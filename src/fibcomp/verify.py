"""Cross-check suites wiring the fast paths against the enumeration oracles.

Each suite returns a list of CheckResult records; the CLI renders them and
maps any failure to a nonzero exit.  Failures carry the smallest
counterexample found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import bijection, counting, enumeration, genfun
from .core import (
    DomainError,
    ImaginaryResidueError,
    NonCertifiedError,
    conjugate,
    from_bitseq,
    to_bitseq,
)

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, cases: int, counterexample: str | None) -> CheckResult:
    if counterexample is None:
        return CheckResult(name, True, f"{cases} cases")
    return CheckResult(name, False, f"smallest counterexample: {counterexample}")


def _compositions(kind: str, limit: int):
    cls = enumeration.CompositionClass(kind)
    for n in range(1, limit + 1):
        for c in enumeration.gen_compositions(n, cls):
            yield n, c


def _check(name: str, cases, holds) -> CheckResult:
    """Test holds(n, c) on each case in order; the first failure is the counterexample."""
    count = 0
    for n, c in cases:
        count += 1
        if not holds(n, c):
            return _result(name, count, str(c))
    return _result(name, count, None)


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


# (check name, property of a composition c of n)
_CODEC_CHECKS = (
    ("codec roundtrip", lambda n, c: from_bitseq(to_bitseq(c)).parts == c.parts),
    ("conjugation involution", lambda n, c: conjugate(conjugate(c)).parts == c.parts),
    ("conjugate part-count law", lambda n, c: conjugate(c).ell == n - c.ell + 1),
    ("odd parts iff even zero-runs", lambda n, c: _all_odd(c) == _zero_runs_even(c)),
    (
        "odd parts iff conjugate odd length with even-index ones",
        lambda n, c: _all_odd(c) == _conjugate_odd_length_even_index_ones(c),
    ),
)


def _suite_codec(bound: int) -> list[CheckResult]:
    return [_check(f"{name} n<={bound}", _compositions("all", bound), holds) for name, holds in _CODEC_CHECKS]


def _suite_bijection(bound: int) -> list[CheckResult]:
    odd_cls = enumeration.CompositionClass("odd-parts")
    min2_cls = enumeration.CompositionClass("min-part-2")
    results = [
        _check(
            f"roundtrip inverse(forward) n<={bound}",
            _compositions("odd-parts", bound),
            lambda n, a: bijection.gt1_to_odd(bijection.odd_to_gt1(a)).parts == a.parts,
        )
    ]

    cases = 0
    bad = None
    for n in range(1, bound + 1):
        image = {bijection.odd_to_gt1(a).parts for a in enumeration.gen_compositions(n, odd_cls)}
        target = {c.parts for c in enumeration.gen_compositions(n + 1, min2_cls)}
        cases += len(target)
        if image != target:
            diff = sorted(image ^ target)[0]
            bad = f"n={n}, {'+'.join(map(str, diff))}"
            break
    results.append(_result(f"image equals min-part-2 target n<={bound}", cases, bad))

    results.append(
        _check(
            f"odd-part parity n == ell (mod 2) n<={bound}",
            _compositions("odd-parts", bound),
            lambda n, a: (a.n - a.ell) % 2 == 0,
        )
    )

    cases = 0
    bad = None
    for n in range(1, bound + 1):
        cases += 1
        odd_count = enumeration.count_by_enumeration(n, odd_cls)
        gt1_count = enumeration.count_by_enumeration(n + 1, min2_cls)
        fib = counting.fibonacci(n)
        if not odd_count == gt1_count == fib:
            bad = f"n={n}: {odd_count}, {gt1_count}, F={fib}"
            break
    results.append(_result(f"both classes count F_n n<={bound}", cases, bad))

    return results


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


def _suite_counts(bound: int) -> list[CheckResult]:
    results = []

    for label, classes, ns in _count_rows(bound):
        # looked up per call so a patched counter is the one checked
        counter = getattr(counting, label)
        versus = "enumeration" if len(classes) == 1 else "both enumerations"
        bad = None
        for n in ns:
            want = counter(n)
            for cls, shift in classes:
                if want != enumeration.count_by_enumeration(n + shift, cls):
                    bad = f"n={n}" if len(classes) == 1 else f"n={n} {cls.kind}"
                    break
            if bad:
                break
        results.append(_result(f"{label} vs {versus} n<={ns[-1]}", len(ns), bad))

    bad = None
    for n in range(2001):
        want = 1 if counting.is_triangular(n) else 0
        if counting.q_recurrence_residual(n) != want:
            bad = f"n={n}"
            break
    results.append(_result("q recurrence residual 0/1 pattern n<=2000", 2001, bad))

    first = counting.binet_first_failure(100)
    low_ok = all(counting.binet_float(n).round_correct for n in range(31))
    if first is None or not low_ok:
        results.append(
            CheckResult(
                "binet failure threshold",
                False,
                f"first failure {first}, all correct below 31: {low_ok}",
            )
        )
    else:
        results.append(
            CheckResult(
                "binet failure threshold",
                True,
                f"rounds correctly n<=30, first failure at n={first}",
            )
        )

    return results


def _suite_genfun(bound: int) -> list[CheckResult]:
    results = []
    order = 40

    series = genfun.partition_gf(order)
    bad = None
    for n in range(order + 1):
        if series.coefficient(n) != counting.p_recurrence(n):
            bad = f"n={n}"
            break
    results.append(_result(f"partition series vs recurrence order {order}", order + 1, bad))

    top = min(bound, order)
    bad = None
    for n in range(top + 1):
        if series.coefficient(n) != enumeration.count_by_enumeration(
            n, enumeration.PartitionClass("all")
        ):
            bad = f"n={n}"
            break
    results.append(_result(f"partition series vs enumeration n<={top}", top + 1, bad))

    odd_product = genfun.TruncatedSeries.one(order)
    for j in range(1, order + 1, 2):
        factor = genfun.TruncatedSeries.one(order) - genfun.TruncatedSeries.monomial(j, order)
        odd_product = genfun.series_mul(odd_product, genfun.series_inverse(factor))
    distinct_product = genfun.TruncatedSeries.one(order)
    for j in range(1, order + 1):
        factor = genfun.TruncatedSeries.one(order) + genfun.TruncatedSeries.monomial(j, order)
        distinct_product = genfun.series_mul(distinct_product, factor)
    bad = None
    if odd_product.coeffs != distinct_product.coeffs:
        for n in range(order + 1):
            if odd_product.coefficient(n) != distinct_product.coefficient(n):
                bad = f"n={n}"
                break
    results.append(_result(f"odd/distinct product identity order {order}", order + 1, bad))

    euler = genfun.TruncatedSeries.one(order)
    for j in range(1, order + 1):
        euler = genfun.series_mul(
            euler, genfun.TruncatedSeries.one(order) - genfun.TruncatedSeries.monomial(j, order)
        )
    product = genfun.series_mul(genfun.partition_gf(order), euler)
    bad = None if product.coeffs == genfun.TruncatedSeries.one(order).coeffs else "product != 1"
    results.append(_result(f"partition series times euler product order {order}", order + 1, bad))

    top = min(bound, 20)
    series = genfun.distinct_compositions_gf(top)
    bad = None
    for n in range(top + 1):
        direct = enumeration.count_by_enumeration(
            n, enumeration.CompositionClass("distinct-parts")
        ) if n else 1
        linked = sum(
            math.factorial(ell) * genfun.distinct_partitions_ell_gf(ell, top).coefficient(n)
            for ell in range(top + 1)
            if ell * (ell + 1) // 2 <= top
        )
        if series.coefficient(n) != direct or series.coefficient(n) != linked:
            bad = f"n={n}"
            break
    results.append(_result(f"distinct compositions series vs enumeration n<={top}", top + 1, bad))

    return results


def _check_exponential_sum(name: str, ks, ns, direct, fast) -> CheckResult:
    """Compare fast(k, n) with direct(k, n) to 2^-100 for each k in ks, n in ns."""
    for case, (k, n) in enumerate(itertools.product(ks, ns), 1):
        try:
            want = direct(k, n)
        except ImaginaryResidueError as exc:
            return _result(name, case, f"(k={k}, n={n}): {exc}")
        if abs(want - fast(k, n)) > 2.0**-100:
            return _result(name, case, f"(k={k}, n={n}) mismatch")
    return _result(name, len(ks) * len(ns), None)


# a broken evaluator fails its row instead of ending the suite
_EVALUATION_ERRORS = (NonCertifiedError, ImaginaryResidueError)


def _suite_analytic(bound: int) -> list[CheckResult]:
    # imported here, where they are used, so that the other suites never
    # load the analytic layer, mpmath or fractions
    from fractions import Fraction

    from . import analytic

    def coprime_fractions(ks):
        """(k, h/k) for each coprime 0 < h < k, k in ks; a failing case reports h/k."""
        return ((k, Fraction(h, k)) for k in ks for h in range(1, k) if math.gcd(h, k) == 1)

    def sawtooth_sum(h: int, xs) -> Fraction:
        """Sum of ((x))((hx)) over xs: s(h, k) over x = j/k, t(h, k) over 2h and x = (2j-1)/(2k)."""
        return sum((analytic.sawtooth(x) * analytic.sawtooth(h * x) for x in xs), Fraction(0))

    def dedekind_holds(k: int, x: Fraction) -> bool:
        h = x.numerator
        s = analytic.dedekind_s(h, k)
        return (
            s == sawtooth_sum(h, (Fraction(j, k) for j in range(1, k)))
            and s + analytic.dedekind_s(k % h, h) == Fraction(-1, 4) + (x + 1 / x + Fraction(1, h * k)) / 12
            and (12 * k * s).denominator == 1
        )

    def hagis_holds(k: int, x: Fraction) -> bool:
        h = x.numerator
        t = analytic.hagis_t(h, k)
        odd = (Fraction(2 * j - 1, 2 * k) for j in range(1, k + 1))
        return t == sawtooth_sum(2 * h, odd) == -analytic.hagis_t(k - h, k)

    tier = analytic._tier(128)
    top_k = min(bound, 50)
    ns = range(0, top_k + 1, 7)
    odd_ks = range(1, top_k + 1, 2)
    results = [
        _check(
            "dedekind sum vs sawtooth definition, reciprocity and integrality k<=30",
            coprime_fractions(range(2, 31)),
            dedekind_holds,
        ),
        _check(
            "hagis sum vs sawtooth definition and negation symmetry k<30",
            coprime_fractions(range(3, 30, 2)),
            hagis_holds,
        ),
        _check_exponential_sum(
            f"exponential sum direct vs selberg k<={top_k}",
            range(1, top_k + 1),
            ns,
            lambda k, n: analytic.kloosterman_A(k, n, 128),
            lambda k, n: analytic._A_real(k, n, tier),
        ),
        _check_exponential_sum(
            f"hagis exponential sum direct vs paired odd k<={odd_ks[-1]}",
            odd_ks,
            ns,
            lambda k, n: analytic._direct_sum(analytic.hagis_t, k, n, 128),
            lambda k, n: analytic._inner_real(k, n, tier),
        ),
    ]

    wide = analytic.bessel_I1(2, 320)
    narrow = analytic.bessel_I1(2, 128)
    with analytic.mp.workprec(320):
        # subtract at the wide precision; the ambient default would round
        # both operands to 53 bits and swamp the quantity being measured
        drift = abs(wide - narrow)
    i1_ok = (
        drift < analytic.mpf(2) ** -120
        and analytic.bessel_I1(0, 64) == 0
        and analytic.bessel_I1(3, 128) > narrow
    )
    results.append(
        CheckResult("bessel series self-consistency", bool(i1_ok), f"cross-precision drift {drift}")
    )

    bad = None
    try:
        for n in range(1, bound + 1):
            p_report = analytic.rademacher_p(n)
            if not p_report.certified or p_report.rounded != counting.p_recurrence(n):
                bad = f"p at n={n}"
                break
            q_report = analytic.hagis_q(n)
            if not q_report.certified or q_report.rounded != counting.q_recurrence(n):
                bad = f"q at n={n}"
                break
    except _EVALUATION_ERRORS as exc:
        bad = f"n={n}: {exc}"
    results.append(_result(f"certified rounding vs recurrences n<={bound}", bound, bad))

    probe = min(bound, 30)
    bad = None
    try:
        base = analytic.rademacher_p(probe)
        for extra in (6, 18, 30, 60, 90):
            report = analytic.rademacher_p(probe, k_max=base.k_terms_used + extra)
            if not report.residual < analytic.RESIDUAL_BOUND:
                bad = f"budget +{extra}"
                break
    except _EVALUATION_ERRORS as exc:
        bad = f"n={probe}: {exc}"
    results.append(_result(f"residual stays small above certified budget (n={probe})", 5, bad))

    return results


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
    """Run one named suite; max_n overrides its default enumeration bound."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; pick from {', '.join(_SUITES)}")
    suite, default_bound = _SUITES[name]
    bound = default_bound if max_n is None else max_n
    if bound < 1:
        raise DomainError(f"max_n must be >= 1, got {bound}")
    return suite(bound)
