"""Cross-check suites wiring the fast paths against the enumeration oracles.

Each suite returns a list of CheckResult records; the CLI renders them and
maps any failure to a nonzero exit.  Most rows go through one runner,
_first_failure: it tests the row's cases in order, and the first case that
fails is the row's smallest counterexample.  A row that names its cases
also catches the analytic layer's evaluation errors (NonCertifiedError,
ImaginaryResidueError), so a broken evaluator fails that row alone and the
suite goes on to the next.
"""

from __future__ import annotations

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


def _first_failure(name: str, cases, fails, label: str | None = None) -> CheckResult:
    """Call fails(*case) on each case in order.  fails returns None when the
    case holds and the counterexample text when it does not, and the first
    counterexample ends the row.  With a label, an evaluation error raised
    while a case is made or tested ends the row too, reported as
    "<label>: <message>" with the label formatted by the case's values (by
    none when the first case could not be made); without one it propagates.
    """
    count, case = 0, ()
    try:
        for case in cases:
            count += 1
            bad = fails(*case)
            if bad is not None:
                return CheckResult(name, False, f"smallest counterexample: {bad}")
    except _EVALUATION_ERRORS as exc:
        if label is None:
            raise
        return CheckResult(name, False, f"smallest counterexample: {label.format(*case)}: {exc}")
    return CheckResult(name, True, f"{count} cases")


def _compositions(kind: str, limit: int):
    cls = enumeration.CompositionClass(kind)
    for n in range(1, limit + 1):
        for c in enumeration.gen_compositions(n, cls):
            yield n, c


def _zero_runs_even(c) -> bool:
    run = 0
    for b in to_bitseq(c).bits:
        if b == 0:
            run += 1
        elif run % 2:
            return False
        else:
            run = 0
    return run % 2 == 0


def _conjugate_odd_length_even_index_ones(c) -> bool:
    # odd part count is part of the characterization: c = 2 conjugates
    # to 1+1, whose lone even-index part is 1, yet 2 is not odd
    dual = conjugate(c)
    return dual.ell % 2 == 1 and all(p == 1 for p in dual.parts[1::2])


def _all_odd(c) -> bool:
    return all(p % 2 for p in c.parts)


# (check name, test of a composition c of n: None when it holds, else c)
_CODEC_CHECKS = (
    ("codec roundtrip", lambda n, c: None if from_bitseq(to_bitseq(c)).parts == c.parts else str(c)),
    ("conjugation involution", lambda n, c: None if conjugate(conjugate(c)).parts == c.parts else str(c)),
    ("conjugate part-count law", lambda n, c: None if conjugate(c).ell == n - c.ell + 1 else str(c)),
    ("odd parts iff even zero-runs", lambda n, c: None if _all_odd(c) == _zero_runs_even(c) else str(c)),
    (
        "odd parts iff conjugate odd length with even-index ones",
        lambda n, c: None if _all_odd(c) == _conjugate_odd_length_even_index_ones(c) else str(c),
    ),
)


def _suite_codec(bound: int) -> list[CheckResult]:
    return [
        _first_failure(f"{name} n<={bound}", _compositions("all", bound), fails)
        for name, fails in _CODEC_CHECKS
    ]


def _suite_bijection(bound: int) -> list[CheckResult]:
    odd_cls = enumeration.CompositionClass("odd-parts")
    min2_cls = enumeration.CompositionClass("min-part-2")

    def forward(a):
        # None where the map refuses a: an even part in the odd-parts stream
        # fails the rows that map it, not the whole suite
        try:
            return bijection.odd_to_gt1(a)
        except DomainError:
            return None

    def roundtrip_fails(n, a):
        b = forward(a)
        return None if b is not None and bijection.gt1_to_odd(b).parts == a.parts else str(a)

    def image_and_target():
        # every composition in the image or the target, in order: the first
        # that is missing from one of them is the least of the difference.
        # A composition the map refuses stands for itself; it sums to n, not
        # n + 1, so it is never in the target.
        for n in range(1, bound + 1):
            image = {(forward(a) or a).parts for a in enumeration.gen_compositions(n, odd_cls)}
            target = {c.parts for c in enumeration.gen_compositions(n + 1, min2_cls)}
            for parts in sorted(image | target):
                yield n, parts, image, target

    def counts_differ(n):
        # the streams the rows above map, so a wrong stream fails this row too
        odd_count = sum(1 for _ in enumeration.gen_compositions(n, odd_cls))
        gt1_count = sum(1 for _ in enumeration.gen_compositions(n + 1, min2_cls))
        fib = counting.fibonacci(n)
        return None if odd_count == gt1_count == fib else f"n={n}: {odd_count}, {gt1_count}, F={fib}"

    return [
        _first_failure(f"roundtrip inverse(forward) n<={bound}", _compositions("odd-parts", bound), roundtrip_fails),
        _first_failure(
            f"image equals min-part-2 target n<={bound}",
            image_and_target(),
            lambda n, parts, image, target: (
                None if parts in image and parts in target else f"n={n}, {'+'.join(map(str, parts))}"
            ),
        ),
        _first_failure(
            f"odd-part parity n == ell (mod 2) n<={bound}",
            _compositions("odd-parts", bound),
            lambda n, a: None if (a.n - a.ell) % 2 == 0 else str(a),
        ),
        _first_failure(
            f"both classes count F_n n<={bound}", ((n,) for n in range(1, bound + 1)), counts_differ
        ),
    ]


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

    def residual_differs(n: int) -> str | None:
        return None if counting.q_recurrence_residual(n) == (1 if n in triangular else 0) else f"n={n}"

    cases = ((n,) for n in range(2001))
    results.append(_first_failure("q recurrence residual 0/1 pattern n<=2000", cases, residual_differs))

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
    one = genfun.TruncatedSeries.one(order)

    def monomial(j: int):
        return genfun.TruncatedSeries.monomial(j, order)

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
    direct = enumeration.tally_by_enumeration(top, enumeration.CompositionClass("distinct-parts"))
    by_ell = [
        genfun.distinct_partitions_ell_gf(ell, top) for ell in range(top + 1) if ell * (ell + 1) // 2 <= top
    ]

    def compositions_differ(n):
        linked = sum(math.factorial(ell) * gf.coefficient(n) for ell, gf in enumerate(by_ell))
        return None if compositions.coefficient(n) == direct[n] == linked else f"n={n}"

    orders = [(n,) for n in range(order + 1)]
    enumerated = min(bound, order)
    counted = enumeration.tally_by_enumeration(enumerated, partitions)
    return [
        _first_failure(
            f"partition series vs recurrence order {order}",
            orders,
            lambda n: None if series.coefficient(n) == counting.p_recurrence(n) else f"n={n}",
        ),
        _first_failure(
            f"partition series vs enumeration n<={enumerated}",
            ((n,) for n in range(enumerated + 1)),
            lambda n: None if series.coefficient(n) == counted[n] else f"n={n}",
        ),
        _first_failure(
            f"odd/distinct product identity order {order}",
            orders,
            lambda n: None if odd_product.coefficient(n) == distinct_product.coefficient(n) else f"n={n}",
        ),
        _first_failure(
            f"partition series times euler product order {order}",
            orders,
            lambda n: None if times_euler.coefficient(n) == one.coefficient(n) else "product != 1",
        ),
        _first_failure(
            f"distinct compositions series vs enumeration n<={top}",
            ((n,) for n in range(top + 1)),
            compositions_differ,
        ),
    ]


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
