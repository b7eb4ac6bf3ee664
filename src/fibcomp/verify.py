"""Cross-check suites wiring the fast paths against the enumeration oracles.

Each suite returns a list of CheckResult records; the CLI renders them and
maps any failure to a nonzero exit.  Each row is a _Row: it tests its cases
in order, and the first case that fails is the row's smallest
counterexample, after which it takes no more.  Rows that share a stream
share one walk of it, which goes on for the rows still open; a row with
cases of its own runs through _first_failure.  A row that names its cases
also catches the analytic layer's evaluation errors (NonCertifiedError,
ImaginaryResidueError), so a broken evaluator fails that row alone and the
suite goes on to the next.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import NamedTuple

from . import bijection, counting, enumeration, genfun
from .core import (
    DomainError,
    ImaginaryResidueError,
    NonCertifiedError,
    check_size,
    conjugate,
    from_bitseq,
    to_bitseq,
)

class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


_EVALUATION_ERRORS = (NonCertifiedError, ImaginaryResidueError)


class _Row:
    """One row: the cases it has tested, and its first counterexample."""

    def __init__(self, name: str):
        self.name, self.count, self.bad = name, 0, None

    def test(self, fails, *case) -> None:
        """Count the case and keep fails(*case): None when the case holds, the
        counterexample text when it does not.  A failed row takes no more."""
        if self.bad is None:
            self.count += 1
            self.bad = fails(*case)

    def result(self) -> CheckResult:
        if self.bad is None:
            return CheckResult(self.name, True, f"{self.count} cases")
        return CheckResult(self.name, False, f"smallest counterexample: {self.bad}")


def _first_failure(name: str, cases, fails, label: str | None = None) -> CheckResult:
    """One _Row over cases made only while it holds.  With a label, an
    evaluation error raised while a case is made or tested ends the row too,
    reported as "<label>: <message>" with the label formatted by the case's
    values (by none when the first case could not be made); without one it
    propagates."""
    row, case = _Row(name), ()
    try:
        for case in cases:
            row.test(fails, *case)
            if row.bad is not None:
                break
    except _EVALUATION_ERRORS as exc:
        if label is None:
            raise
        row.bad = f"{label.format(*case)}: {exc}"
    return row.result()


def _sides_agree(name: str, last: int, *sides) -> CheckResult:
    """A _first_failure row over n = 0..last that holds while every side, a
    function of n, gives the first side's value; the first n where one does
    not is its counterexample."""

    def differs(n: int) -> str | None:
        want = sides[0](n)
        return None if all(side(n) == want for side in sides[1:]) else f"n={n}"

    return _first_failure(name, ((n,) for n in range(last + 1)), differs)


def _zero_runs_even(bits) -> bool:
    return all(len(run) % 2 == 0 for run in str(bits).split("1"))


def _conjugate_odd_length_even_index_ones(dual) -> bool:
    # odd part count is part of the characterization: c = 2 conjugates
    # to 1+1, whose lone even-index part is 1, yet 2 is not odd
    return dual.ell % 2 == 1 and all(p == 1 for p in dual.parts[1::2])


def _all_odd(c) -> bool:
    return all(p % 2 for p in c.parts)


# (check name, test of a composition c of n with its bit string and its
# conjugate: None when it holds, else c)
_CODEC_CHECKS = (
    ("codec roundtrip", lambda n, c, bits, dual: None if from_bitseq(bits).parts == c.parts else str(c)),
    ("conjugation involution", lambda n, c, bits, dual: None if conjugate(dual).parts == c.parts else str(c)),
    ("conjugate part-count law", lambda n, c, bits, dual: None if dual.ell == n - c.ell + 1 else str(c)),
    (
        "odd parts iff even zero-runs",
        lambda n, c, bits, dual: None if _all_odd(c) == _zero_runs_even(bits) else str(c),
    ),
    (
        "odd parts iff conjugate odd length with even-index ones",
        lambda n, c, bits, dual: None if _all_odd(c) == _conjugate_odd_length_even_index_ones(dual) else str(c),
    ),
)


def _suite_codec(bound: int) -> list[CheckResult]:
    rows = [(_Row(f"{name} n<={bound}"), fails) for name, fails in _CODEC_CHECKS]
    every = enumeration.CompositionClass("all")
    for n in range(1, bound + 1):
        # one walk, and each member encoded and conjugated once, for every row
        for c in enumeration.gen_class(n, every):
            case = (n, c, to_bitseq(c), conjugate(c))
            for row, fails in rows:
                row.test(fails, *case)
    return [row.result() for row, _ in rows]


def _suite_bijection(bound: int) -> list[CheckResult]:
    odd_cls = enumeration.CompositionClass("odd-parts")
    min2_cls = enumeration.CompositionClass("min-part-2")
    roundtrip = _Row(f"roundtrip inverse(forward) n<={bound}")
    image_row = _Row(f"image equals min-part-2 target n<={bound}")
    parity = _Row(f"odd-part parity n == ell (mod 2) n<={bound}")
    count = _Row(f"both classes count F_n n<={bound}")

    def inverts(a, b):
        return None if b is not None and bijection.gt1_to_odd(b).parts == a.parts else str(a)

    def in_both(n, parts, image, target):
        return None if parts in image and parts in target else f"n={n}, {'+'.join(map(str, parts))}"

    def counts_differ(n, odd_count, gt1_count):
        fib = counting.fibonacci(n)
        return None if odd_count == gt1_count == fib else f"n={n}: {odd_count}, {gt1_count}, F={fib}"

    for n in range(1, bound + 1):
        # each stream's members with the times each was yielded, so that a
        # stream that yields a member twice fails the count row
        image = collections.Counter()
        for a in enumeration.gen_class(n, odd_cls):
            # b is None where the map refuses a, an even part: that fails the
            # rows that map a, not the suite, and a stands for itself in the
            # image; it sums to n, not n + 1, so it is never in the target
            try:
                b = bijection.odd_to_gt1(a)
            except DomainError:
                b = None
            roundtrip.test(inverts, a, b)
            parity.test(lambda a: None if (a.n - a.ell) % 2 == 0 else str(a), a)
            image[(b or a).parts] += 1
        target = collections.Counter(c.parts for c in enumeration.gen_class(n + 1, min2_cls))
        # every composition in the image or the target, in order: the first
        # that is missing from one of them is the least of the difference
        for parts in sorted(image.keys() | target.keys()):
            image_row.test(in_both, n, parts, image, target)
        count.test(counts_differ, n, image.total(), target.total())
    return [row.result() for row in (roundtrip, image_row, parity, count)]


def _count_rows(bound: int):
    """(counter in counting, classes with the n-shift of their enumeration, n range)."""
    ptop = max(bound, 40)
    comps, parts = enumeration.CompositionClass, enumeration.PartitionClass
    return (
        ("c_count", ((comps("all"), 0),), range(1, min(bound, 16) + 1)),
        ("Q_count", ((comps("odd-parts"), 0), (comps("min-part-2"), 1)), range(1, bound + 1)),
        ("p_recurrence", ((parts("all"), 0),), range(ptop + 1)),
        ("q_recurrence", ((parts("odd-parts"), 0), (parts("distinct-parts"), 0)), range(ptop + 1)),
    )


def _count_differs(n: int, counter, tallies) -> str | None:
    want = counter(n)
    for cls, tally in tallies:
        if want != tally[n]:
            return f"n={n}" if len(tallies) == 1 else f"n={n} {cls.kind}"
    return None


def _suite_counts(bound: int) -> list[CheckResult]:
    results = []

    for label, classes, ns in _count_rows(bound):
        # looked up per call so a patched counter is the one checked
        counter = getattr(counting, label)
        versus = "enumeration" if len(classes) == 1 else "both enumerations"
        # one walk per class counts it at every n of the row
        tallies = [
            (cls, enumeration.tally_by_enumeration(ns[-1] + shift, cls)[shift:]) for cls, shift in classes
        ]
        cases = ((n, counter, tallies) for n in ns)
        results.append(_first_failure(f"{label} vs {versus} n<={ns[-1]}", cases, _count_differs))

    # Gauss's identity: counting sums the left side from q's table alone, and
    # the right side is 1 at triangular n and 0 elsewhere, from a set made here
    triangular = {m * (m + 1) // 2 for m in range(63)}
    gauss = "q recurrence residual 0/1 pattern n<=2000"
    results.append(_sides_agree(gauss, 2000, counting.q_recurrence_residual, lambda n: int(n in triangular)))

    # not a first-failure row: a passing row reports the threshold it found
    first = counting.binet_first_failure(100)
    low_ok = all(counting.binet_float(n).round_correct for n in range(31))
    passed = first is not None and low_ok
    if passed:
        detail = f"rounds correctly n<=30, first failure at n={first}"
    else:
        detail = f"first failure {first}, all correct below 31: {low_ok}"
    return results + [CheckResult("binet failure threshold", passed, detail)]


def _suite_genfun(bound: int) -> list[CheckResult]:
    order = 40

    def monomial(j: int):
        return genfun.TruncatedSeries.monomial(j, order)

    one = monomial(0)

    def product(factors):
        return functools.reduce(genfun.series_mul, factors, one)

    series = genfun.partition_gf(order)
    partitions = enumeration.PartitionClass("all")
    odd_product = product(genfun.series_inverse(one - monomial(j)) for j in range(1, order + 1, 2))
    distinct_product = product(one + monomial(j) for j in range(1, order + 1))
    times_euler = genfun.series_mul(series, product(one - monomial(j) for j in range(1, order + 1)))

    top = min(bound, 20)
    compositions = genfun.distinct_compositions_gf(top)
    # the empty composition counts at n = 0, as in the series
    direct = enumeration.tally_by_enumeration(top, enumeration.CompositionClass("distinct-parts")).__getitem__
    by_ell = [
        genfun.distinct_partitions_ell_gf(ell, top) for ell in range(top + 1) if ell * (ell + 1) // 2 <= top
    ]

    def linked(n):
        return sum(math.factorial(ell) * gf.coefficient(n) for ell, gf in enumerate(by_ell))

    enumerated = min(bound, order)
    counted = enumeration.tally_by_enumeration(enumerated, partitions).__getitem__
    rows = (
        (f"partition series vs recurrence order {order}", order, series.coefficient, counting.p_recurrence),
        (f"partition series vs enumeration n<={enumerated}", enumerated, series.coefficient, counted),
        (f"odd/distinct product identity order {order}", order, odd_product.coefficient, distinct_product.coefficient),
        (f"partition series times euler product order {order}", order, times_euler.coefficient, one.coefficient),
        (f"distinct compositions series vs enumeration n<={top}", top, compositions.coefficient, direct, linked),
    )
    return [_sides_agree(*row) for row in rows]


def _suite_analytic(bound: int) -> list[CheckResult]:
    # imported here, where they are used, so that the other suites never
    # load the analytic layer, its references, mpmath or fractions; each
    # reference is looked up as reference.<name> when a row calls it, so a
    # rebinding there is the one checked
    from fractions import Fraction

    from mpmath import mp, mpf

    from . import analytic, reference

    def coprime_fractions(ks):
        """(k, h/k) for each coprime 0 < h < k, k in ks; a failing case reports h/k."""
        return ((k, Fraction(h, k)) for k in ks for h in range(1, k) if math.gcd(h, k) == 1)

    def sawtooth_sum(h: int, xs) -> Fraction:
        """Sum of ((x))((hx)) over xs: s(h, k) over x = j/k, t(h, k) over 2h and x = (2j-1)/(2k)."""
        return sum((reference.sawtooth(x) * reference.sawtooth(h * x) for x in xs), Fraction(0))

    def dedekind_fails(k: int, x: Fraction) -> str | None:
        h = x.numerator
        s = reference.dedekind_s(h, k)
        holds = (
            s == sawtooth_sum(h, (Fraction(j, k) for j in range(1, k)))
            and s + reference.dedekind_s(k % h, h) == Fraction(-1, 4) + (x + 1 / x + Fraction(1, h * k)) / 12
            and (12 * k * s).denominator == 1
        )
        return None if holds else str(x)

    def hagis_fails(k: int, x: Fraction) -> str | None:
        h = x.numerator
        t = reference.hagis_t(h, k)
        odd = (Fraction(2 * j - 1, 2 * k) for j in range(1, k + 1))
        return None if t == sawtooth_sum(2 * h, odd) == -reference.hagis_t(k - h, k) else str(x)

    def read(kernel, factor=lambda k: 1):
        """factor(k) times kernel(k, n, 128), an integer at scale 128, as an mpf."""

        def value(k: int, n: int):
            with mp.workprec(160):
                return factor(k) * mp.ldexp(kernel(k, n, 128), -128)

        return value

    def sums_differ(direct, fast):
        """A test that compares fast(k, n) with direct(k, n) to 2^-100."""

        def differs(k: int, n: int) -> str | None:
            return f"(k={k}, n={n}) mismatch" if abs(direct(k, n) - fast(k, n)) > 2.0**-100 else None

        return differs

    def rounding_fails(n: int) -> str | None:
        p_report = analytic.rademacher_p(n)
        if not p_report.certified or p_report.rounded != counting.p_recurrence(n):
            return f"p at n={n}"
        q_report = analytic.hagis_q(n)
        if not q_report.certified or q_report.rounded != counting.q_recurrence(n):
            return f"q at n={n}"
        return None

    probe = min(bound, 30)

    def budgets():
        # the certified budget is found here, inside the row, so that an
        # uncertifiable series fails the row rather than the suite
        base = analytic.rademacher_p(probe).k_terms_used
        for extra in (6, 18, 30, 60, 90):
            yield base + extra, extra

    def residual_fails(k_max: int, extra: int) -> str | None:
        residual = analytic.rademacher_p(probe, k_max=k_max).residual  # below 2^-RESIDUAL_BITS
        return None if residual.man << analytic.RESIDUAL_BITS < 1 << -residual.exp else f"budget +{extra}"

    def series_i1(z: int, bits: int):
        """I_1(z) as the q series computes it, (z/2) F(z^2/4), an mpf."""
        with mp.workprec(bits + 64):
            return z * mp.ldexp(analytic._bessel_F(z * z, 2, bits), -bits - 1)

    # the series' own I_1 at 128 bits against mpmath's at 320
    wide = reference.bessel_I1(2, 320)
    narrow = series_i1(2, 128)
    with mp.workprec(320):
        # subtract at the wide precision; the ambient default would round
        # both operands to 53 bits and swamp the quantity being measured
        drift = abs(wide - narrow)
    i1_ok = drift < mpf(2) ** -120 and series_i1(0, 64) == 0 and series_i1(3, 128) > narrow

    top_k = min(bound, 50)
    ns = range(0, top_k + 1, 7)
    odd_ks = range(1, top_k + 1, 2)
    return [
        _first_failure(
            "dedekind sum vs sawtooth definition, reciprocity and integrality k<=30",
            coprime_fractions(range(2, 31)),
            dedekind_fails,
        ),
        _first_failure(
            "hagis sum vs sawtooth definition and negation symmetry k<30",
            coprime_fractions(range(3, 30, 2)),
            hagis_fails,
        ),
        _first_failure(
            f"exponential sum direct vs selberg k<={top_k}",
            itertools.product(range(1, top_k + 1), ns),
            sums_differ(
                lambda k, n: reference.kloosterman_A(k, n, 128),
                # A_k(n) = sqrt(k/3) C_k(n), C_k Selberg's sum
                read(analytic._A_real, lambda k: mp.sqrt(mpf(k) / 3)),
            ),
            "(k={0}, n={1})",
        ),
        _first_failure(
            f"hagis exponential sum direct vs angle classes odd k<={odd_ks[-1]}",
            itertools.product(odd_ks, ns),
            sums_differ(
                lambda k, n: reference._direct_sum(reference.hagis_t, k, n, 128),
                read(analytic._inner_real),
            ),
            "(k={0}, n={1})",
        ),
        CheckResult(
            "bessel I1 cross-precision consistency",
            bool(i1_ok),
            "cross-precision drift below 2^-120" if i1_ok else f"cross-precision drift {drift}",
        ),
        _first_failure(
            f"certified rounding vs recurrences n<={bound}",
            ((n,) for n in range(1, bound + 1)),
            rounding_fails,
            "n={0}",
        ),
        _first_failure(
            f"residual stays small above certified budget (n={probe})",
            budgets(),
            residual_fails,
            f"n={probe}",
        ),
    ]


# name -> (suite, default enumeration bound)
_SUITES = {
    "codec": (_suite_codec, 12),
    "bijection": (_suite_bijection, 14),
    "counts": (_suite_counts, 20),
    "genfun": (_suite_genfun, 20),
    "analytic": (_suite_analytic, 50),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def verify_suite(name: str, max_n: int | None = None) -> list[CheckResult]:
    """Run one named suite; max_n, an int >= 1, overrides its default
    enumeration bound."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; pick from {', '.join(_SUITES)}")
    suite, default_bound = _SUITES[name]
    bound = default_bound if max_n is None else max_n
    check_size(bound, 1, "max_n must be")
    return suite(bound)
