"""Exhaustive generators for constrained compositions and partitions.

These streams are the independent oracles that every closed-form counter,
recurrence, and generating function in this package is validated against,
so they favor obviousness over speed.

Every class goes through one walker, _walk, which runs depth-first over
sequences of parts on an explicit stack, so a walk of any depth runs
without recursion.  A class differs from the others only in its part rule:
given the rest still to place, the parts so far and the class's part count
ell, the rule gives the parts allowed next, in emission order.  Started
from a budget top, the walker visits each member of the class of size at
most top once.  The stream of n keeps the members that use up n;
tally_by_enumeration counts the members by size, so one walk counts the
class at every n <= top.

The tally rests on a contract that every part rule keeps:

- a larger rest never allows fewer parts (rest is read only as a cap on
  the next part);
- every sequence the walker reaches is a member of the class of its own
  size (with ell parts, for a class that takes ell).

So the members of size m that a walk from top reaches are exactly those
that the stream of m yields.

Ordering is part of the contract: compositions are emitted in lexicographic
order of their part tuples, partitions in reverse-lexicographic order
(largest first).  Both follow from the direction of each rule's range:
composition rules rise from the smallest part allowed, partition rules fall
from the largest.  Generators are lazy; counting builds no stream.

CLASSES declares each family:kind class once: its part rule, its exact
counter, its generating function and whether it takes a part count ell.
Every counter computes in process; no class reads or writes a file.
Most rows are data: _progression(start, step) for compositions into parts
start, start + step, ..., _descending(step, gap) for partitions into
parts = 1 (mod step) that fall by at least gap, and distinct-ell caps the
distinct row at ell parts.
The generators, the CLI and the verify suites all read it.
"""

from __future__ import annotations

from typing import Callable, ClassVar, Iterable, Iterator, NamedTuple, Sequence

from . import counting, genfun
from .core import Composition, DomainError, Frozen, Partition, check_size


class EnumClass(Frozen):
    """One family:kind class of CLASSES, with its part count ell for a class
    that takes one.  A subclass fixes the family, the family's domain floor
    min_n and the type of its members."""

    family: ClassVar[str]
    min_n: ClassVar[int]
    value: ClassVar[type]

    def __init__(self, kind: str, ell: int | None = None):
        spec = CLASSES.get(f"{self.family}:{kind}")
        if spec is None:
            raise DomainError(f"unknown {self.family[:-1]} class {kind!r}")
        if spec.takes_ell:
            if type(ell) is not int or ell < 0:  # bool is no part count
                raise DomainError(f"{kind} class needs ell >= 0")
        elif ell is not None:
            raise DomainError(f"class {kind!r} does not take ell")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ell", ell)

    def __str__(self) -> str:
        suffix = "" if self.ell is None else f"={self.ell}"
        return f"{self.family}:{self.kind}{suffix}"


class CompositionClass(EnumClass):
    family = "compositions"
    min_n = 1
    value = Composition


class PartitionClass(EnumClass):
    family = "partitions"
    min_n = 0
    value = Partition


PartRule = Callable[[int, Sequence[int], int | None], Iterable[int]]


class ClassSpec(NamedTuple):
    """Everything the package knows about one family:kind class; CLASSES
    names each by its key.

    `rule(rest, parts, ell)` is the part rule that _walk turns into the
    exhaustive oracle: the parts allowed after `parts` (read only) with
    `rest` still to place, in emission order.  It never calls counting or
    genfun.  One walk counts every size only if the rule keeps this
    contract: a larger rest never allows fewer parts, and every sequence
    the walker reaches is a member of the class of its own size (with ell
    parts, for a class that takes ell); the rules that _progression and
    _descending build keep it.  `count(n, cls)` is the exact
    counter for n already inside the class's domain (n >= min_n).
    `gf(order, ell)` is the generating function behind the `series` name,
    where one exists, and `takes_ell` says whether the class (and its
    series) is indexed by a part count ell.  Entries reach counting and
    genfun through the module attribute at call time, so a patched or
    wrapped function is the one that runs.
    """

    min_n: int
    rule: PartRule
    count: Callable[[int, EnumClass], int]
    series: str | None = None
    gf: Callable[[int, int | None], genfun.TruncatedSeries] | None = None
    takes_ell: bool = False


def _progression(start: int, step: int, count, series=None, gf=None) -> ClassSpec:
    """The compositions whose parts are start, start + step, start + 2 step, ...;
    the domain starts at the smallest member, the one part start."""
    return ClassSpec(start, lambda rest, parts, ell: range(start, rest + 1, step), count, series, gf)


def _descending(step: int, gap: int, count, series=None, gf=None) -> ClassSpec:
    """The partitions into parts 1, 1 + step, 1 + 2 step, ..., each at most the
    part before it less gap, largest first; the domain starts at n = 0, the
    empty partition."""

    def rule(rest: int, parts: Sequence[int], ell: int | None) -> range:
        top = parts[-1] - gap if parts and parts[-1] - gap < rest else rest
        return range(top - (top - 1) % step, 0, -step)

    return ClassSpec(0, rule, count, series, gf)


def _ell_parts(spec: ClassSpec) -> ClassSpec:
    """spec, a distinct-parts row, with at most ell parts: none once ell are
    placed, and while left are still to place, each below the last, the
    left - 1 after the next need 1 + 2 + ... + (left - 1), kept back from it."""
    distinct = spec.rule

    def rule(rest: int, parts: Sequence[int], ell: int) -> range:
        left = ell - len(parts)
        return distinct(rest - left * (left - 1) // 2, parts, ell) if left else range(0)

    return spec._replace(rule=rule, takes_ell=True)


def _series_coefficient(n: int, cls: EnumClass) -> int:
    return class_spec(cls).gf(n, cls.ell).coefficient(n)


# The paper's theorem is the pair odd-parts / min-part-2: compositions of n
# into odd parts and of n + 1 into parts >= 2 are both counted by F_n.
CLASSES: dict[str, ClassSpec] = {
    "compositions:all": _progression(
        1, 1, lambda n, cls: counting.c_count(n),
        "compositions", lambda order, ell: genfun.compositions_gf(order),
    ),
    "compositions:odd-parts": _progression(1, 2, lambda n, cls: counting.Q_count(n)),
    "compositions:min-part-2": _progression(2, 1, lambda n, cls: counting.fibonacci(n - 1)),
    "compositions:distinct-parts": ClassSpec(
        1,
        lambda rest, parts, ell: (p for p in range(1, rest + 1) if p not in parts),
        _series_coefficient,
        "distinct-compositions", lambda order, ell: genfun.distinct_compositions_gf(order),
    ),
    "partitions:all": _descending(
        1, 0, lambda n, cls: counting.p_recurrence(n),
        # Euler's product read off p's table; the order gets the series' own refusal first
        "partitions", lambda order, ell: check_size(order, 0, "order must be")
        or genfun.TruncatedSeries(counting.build_table("p", order)),
    ),
    "partitions:odd-parts": _descending(2, 0, lambda n, cls: counting.q_recurrence(n)),
    "partitions:distinct-parts": _descending(1, 1, lambda n, cls: counting.q_recurrence(n)),
    "partitions:distinct-ell": _ell_parts(_descending(
        1, 1, _series_coefficient,
        "distinct-partitions", lambda order, ell: genfun.distinct_partitions_ell_gf(ell, order),
    )),
}

# Series names in the order the CLI has always listed them: plain names
# before distinct- ones, partitions before compositions.
SERIES: dict[str, ClassSpec] = {
    spec.series: spec
    for key, spec in sorted(
        CLASSES.items(), key=lambda row: (":distinct-" in row[0], row[0].startswith("compositions:"))
    )
    if spec.series
}

_FAMILIES = {cls.family: cls for cls in (CompositionClass, PartitionClass)}


def class_spec(cls: EnumClass) -> ClassSpec:
    return CLASSES[f"{cls.family}:{cls.kind}"]


def _spec_in_domain(n: int, cls: EnumClass) -> ClassSpec:
    spec = class_spec(cls)
    check_size(n, cls.min_n, f"{cls.family} need n")
    check_size(n, spec.min_n, f"{cls.kind} {cls.family} need n")
    return spec


def parse_class(text: str) -> EnumClass:
    """Parse "compositions:<kind>" or "partitions:<kind>[=ell]" class names."""
    family, sep, kind = text.partition(":")
    if not sep:
        raise DomainError(f"class must look like family:kind, got {text!r}")
    if family not in _FAMILIES:
        raise DomainError(f"unknown class family {family!r}")
    name, eq, ell = kind.partition("=")
    spec = CLASSES.get(f"{family}:{name}")
    if eq and spec is not None and spec.takes_ell:
        if not (ell.isascii() and ell.isdigit()):
            raise DomainError(f"bad ell value in {text!r}")
        return _FAMILIES[family](name, int(ell))
    return _FAMILIES[family](kind)


def exact_count(n: int, cls: EnumClass) -> int:
    """Size of the class at n from its exact counter, computed in process."""
    return _spec_in_domain(n, cls).count(n, cls)


def _walk(top: int, rule: PartRule, ell: int | None) -> Iterator[tuple[int, list[int]]]:
    """Every member of the class of size at most top, as (rest, parts):
    parts is a sequence that rule allows (with ell parts, for a class that
    takes ell) and rest is top less its sum.  Members come in the order of
    rule's ranges, depth-first on an explicit stack; parts is the walker's
    own list, valid until the next member is asked for.

    The stack holds the iterators over the parts allowed at the root and
    after each part placed that left some rest.  `parts` is the path to the
    top iterator, so when it is resumed, a lazy rule reading parts sees its
    own level's parts again.
    """
    parts: list[int] = []
    rest = top
    if ell is None or len(parts) == ell:
        yield rest, parts
    stack = [iter(rule(rest, parts, ell))] if rest else []
    while stack:
        part = next(stack[-1], None)
        if part is None:
            stack.pop()
            if parts:
                rest += parts.pop()
            continue
        parts.append(part)
        rest -= part
        if ell is None or len(parts) == ell:
            yield rest, parts
        if rest:
            stack.append(iter(rule(rest, parts, ell)))
        else:  # no part fits in a rest of 0; its rule is not asked
            rest += parts.pop()


def gen_class(n: int, cls: EnumClass) -> Iterator[Composition] | Iterator[Partition]:
    """Yield each member of cls of size n exactly once, in the class's order;
    an n outside the class's domain raises at the call, not at the first read."""
    members = _walk(n, _spec_in_domain(n, cls).rule, cls.ell)
    return (cls.value(parts) for rest, parts in members if rest == 0)


def tally_by_enumeration(top: int, cls: EnumClass) -> list[int]:
    """Entry m is the number of members of cls of size m, for m = 0..top,
    from one walk that visits each member once and builds no value object.
    The empty sequence counts at m = 0, also for a family whose domain
    starts at 1."""
    rule = _spec_in_domain(top, cls).rule  # refuses a bad top before the list is sized
    counts = [0] * (top + 1)
    for rest, _ in _walk(top, rule, cls.ell):
        counts[top - rest] += 1
    return counts

