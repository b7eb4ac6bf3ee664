"""Exhaustive generators for constrained compositions and partitions.

These streams are the independent oracles that every closed-form counter,
recurrence, and generating function in this package is validated against,
so they favor obviousness over speed.

Every class streams through one walker, _walk, which runs depth-first over
sequences of parts on an explicit stack, so a stream of any depth runs
without recursion.  A class differs from the others only in its part rule:
given the rest of n still to place, the parts so far and the class's part
count ell, the rule gives the parts allowed next, in emission order.  A
sequence that uses up n is emitted (for a class indexed by ell, only with
ell parts).

Ordering is part of the contract: compositions are emitted in lexicographic
order of their part tuples, partitions in reverse-lexicographic order
(largest first).  Both follow from the direction of each rule's range:
composition rules rise from the smallest part allowed, partition rules fall
from the largest.  Generators are lazy; counting never materializes a
stream.

CLASSES declares each family:kind class once: its part rule, its exact
counter, its generating function and whether it takes a part count ell.
The generators, the CLI and the verify suites all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from . import counting, genfun
from .core import Composition, DomainError, Partition


@dataclass(frozen=True)
class CompositionClass:
    kind: str
    family = "compositions"
    ell = None  # no composition class takes a part count

    def __post_init__(self):
        if self.kind not in COMPOSITION_KINDS:
            raise DomainError(f"unknown composition class {self.kind!r}")

    def __str__(self) -> str:
        return f"compositions:{self.kind}"


@dataclass(frozen=True)
class PartitionClass:
    kind: str
    ell: int | None = None
    family = "partitions"

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise DomainError(f"unknown partition class {self.kind!r}")
        if class_spec(self).takes_ell:
            if self.ell is None or self.ell < 0:
                raise DomainError(f"{self.kind} class needs ell >= 0")
        elif self.ell is not None:
            raise DomainError(f"class {self.kind!r} does not take ell")

    def __str__(self) -> str:
        if self.ell is not None:
            return f"partitions:{self.kind}={self.ell}"
        return f"partitions:{self.kind}"


EnumClass = Union[CompositionClass, PartitionClass]
PartRule = Callable[[int, Sequence[int], int | None], Iterable[int]]


@dataclass(frozen=True)
class ClassSpec:
    """Everything the package knows about one family:kind class.

    `rule(rest, parts, ell)` is the part rule that _walk turns into the
    exhaustive oracle: the parts allowed after `parts` (read only) with
    `rest` of n still to place, in emission order.  It never calls counting
    or genfun.  `count(n, cls, cache_dir)` is the exact counter for n already
    inside the class's domain (n >= min_n).  `gf(order, ell)` is the
    generating function behind the `series` name, where one exists, and
    `takes_ell` says whether the class (and its series) is indexed by a
    part count ell.  Entries reach counting and genfun through the module
    attribute at call time, so a patched or wrapped function is the one
    that runs.
    """

    family: str
    kind: str
    min_n: int
    rule: PartRule
    count: Callable[[int, EnumClass, str | None], int]
    series: str | None = None
    gf: Callable[[int, int | None], genfun.TruncatedSeries] | None = None
    takes_ell: bool = False


def _from_table(kind: str):
    """Counter reading entry n of the p or q recurrence table."""

    def count(n: int, cls: EnumClass, cache_dir: str | None) -> int:
        if cache_dir is not None:
            return counting.cached_table(kind, n, cache_dir).values[n]
        recurrence = {"p": counting.p_recurrence, "q": counting.q_recurrence}
        return recurrence[kind](n)

    return count


def _series_coefficient(n: int, cls: EnumClass, cache_dir: str | None) -> int:
    return class_spec(cls).gf(n, cls.ell).coefficient(n)


def _largest(rest: int, parts: Sequence[int], gap: int) -> int:
    """Largest part allowed after parts in a partition whose parts fall by
    at least gap, with rest of n still to place."""
    return min(rest, parts[-1] - gap) if parts else rest


def _odd_partition_parts(rest: int, parts: Sequence[int], ell: int | None) -> range:
    top = _largest(rest, parts, 0)
    return range(top if top % 2 else top - 1, 0, -2)


def _distinct_ell_parts(rest: int, parts: Sequence[int], ell: int) -> range:
    left = ell - len(parts)  # parts still to place, each below the last
    if left == 0:
        return range(0)
    # the left - 1 smaller parts need at least 1 + 2 + ... + (left - 1)
    return range(_largest(rest - left * (left - 1) // 2, parts, 1), 0, -1)


# The paper's theorem is the pair odd-parts / min-part-2: compositions of n
# into odd parts and of n + 1 into parts >= 2 are both counted by F_n.
CLASSES: dict[str, ClassSpec] = {
    f"{spec.family}:{spec.kind}": spec
    for spec in (
        ClassSpec(
            "compositions", "all", 1,
            lambda rest, parts, ell: range(1, rest + 1),
            lambda n, cls, cache_dir: counting.c_count(n),
            "compositions", lambda order, ell: genfun.compositions_gf(order),
        ),
        ClassSpec(
            "compositions", "odd-parts", 1,
            lambda rest, parts, ell: range(1, rest + 1, 2),
            lambda n, cls, cache_dir: counting.Q_count(n),
        ),
        ClassSpec(
            "compositions", "min-part-2", 2,
            lambda rest, parts, ell: range(2, rest + 1),
            lambda n, cls, cache_dir: counting.fibonacci(n - 1),
        ),
        ClassSpec(
            "compositions", "distinct-parts", 1,
            lambda rest, parts, ell: (p for p in range(1, rest + 1) if p not in parts),
            _series_coefficient,
            "distinct-compositions", lambda order, ell: genfun.distinct_compositions_gf(order),
        ),
        ClassSpec(
            "partitions", "all", 0,
            lambda rest, parts, ell: range(_largest(rest, parts, 0), 0, -1),
            _from_table("p"),
            "partitions", lambda order, ell: genfun.partition_gf(order),
        ),
        ClassSpec("partitions", "odd-parts", 0, _odd_partition_parts, _from_table("q")),
        ClassSpec(
            "partitions", "distinct-parts", 0,
            lambda rest, parts, ell: range(_largest(rest, parts, 1), 0, -1),
            _from_table("q"),
        ),
        ClassSpec(
            "partitions", "distinct-ell", 0,
            _distinct_ell_parts,
            _series_coefficient,
            "distinct-partitions", lambda order, ell: genfun.distinct_partitions_ell_gf(ell, order),
            takes_ell=True,
        ),
    )
}

COMPOSITION_KINDS = tuple(s.kind for s in CLASSES.values() if s.family == "compositions")
PARTITION_KINDS = tuple(s.kind for s in CLASSES.values() if s.family == "partitions")

# Series names in the order the CLI has always listed them: plain names
# before distinct- ones, partitions before compositions.
SERIES: dict[str, ClassSpec] = {
    s.series: s
    for s in sorted(
        (s for s in CLASSES.values() if s.series),
        key=lambda s: (s.series.startswith("distinct-"), s.family == "compositions"),
    )
}

_FAMILIES = {"compositions": CompositionClass, "partitions": PartitionClass}
_FAMILY_MIN_N = {"compositions": 1, "partitions": 0}


def class_spec(cls: EnumClass) -> ClassSpec:
    return CLASSES[f"{cls.family}:{cls.kind}"]


def _spec_in_domain(n: int, cls: EnumClass) -> ClassSpec:
    spec = class_spec(cls)
    floor = _FAMILY_MIN_N[spec.family]
    if n < floor:
        raise DomainError(f"{spec.family} need n >= {floor}, got {n}")
    if n < spec.min_n:
        raise DomainError(f"{spec.kind} {spec.family} need n >= {spec.min_n}, got {n}")
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


def exact_count(n: int, cls: EnumClass, cache_dir: str | None = None) -> int:
    """Size of the class at n from its exact counter; the p and q counts use
    the table cache in cache_dir when one is given."""
    return _spec_in_domain(n, cls).count(n, cls, cache_dir)


def _walk(n: int, rule: PartRule, ell: int | None) -> Iterator[tuple[int, ...]]:
    """Every sequence of parts that rule allows and that sums to n, in the
    order of rule's ranges, depth-first on an explicit stack.

    The stack holds the root level and one level per part placed: the rest
    of n at that level and the iterator over the parts its rule allowed
    there.  `parts` is the path to the top level, so when a level's
    iterator is resumed, a lazy rule reading parts sees its own level's
    parts again.  A level is left once its iterator runs dry; its parts are
    emitted then if they used up n (with ell parts, for a class that takes
    ell).
    """
    parts: list[int] = []
    stack = [(n, iter(rule(n, parts, ell)))]
    while stack:
        rest, allowed = stack[-1]
        part = next(allowed, None)
        if part is not None:
            parts.append(part)
            rest -= part  # no part fits in a rest of 0; its rule is not asked
            stack.append((rest, iter(rule(rest, parts, ell)) if rest else iter(())))
            continue
        stack.pop()
        if rest == 0 and (ell is None or len(parts) == ell):
            yield tuple(parts)
        if parts:
            parts.pop()


def gen_compositions(n: int, cls: CompositionClass) -> Iterator[Composition]:
    """Yield each composition of n in cls exactly once, lexicographically."""
    if not isinstance(cls, CompositionClass):
        raise DomainError(f"expected a composition class, got {cls}")
    return (Composition(parts) for parts in _walk(n, _spec_in_domain(n, cls).rule, cls.ell))


def gen_partitions(n: int, cls: PartitionClass) -> Iterator[Partition]:
    """Yield each partition of n in cls exactly once, largest-first."""
    if not isinstance(cls, PartitionClass):
        raise DomainError(f"expected a partition class, got {cls}")
    return (Partition(parts) for parts in _walk(n, _spec_in_domain(n, cls).rule, cls.ell))


def gen_class(n: int, cls: EnumClass) -> Iterator[Composition] | Iterator[Partition]:
    """Stream any class through gen_compositions or gen_partitions."""
    if isinstance(cls, CompositionClass):
        return gen_compositions(n, cls)
    return gen_partitions(n, cls)


def count_by_enumeration(n: int, cls: EnumClass) -> int:
    """Length of the class stream, computed by exhausting it lazily."""
    return sum(1 for _ in gen_class(n, cls))
