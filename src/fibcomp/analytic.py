"""High-precision evaluation of the convergent series for the partition
counts p(n) and q(n), with an exact-rational layer underneath.

The rational layer (sawtooth, dedekind_s, hagis_t) is exact integer
arithmetic packaged as Fractions: dedekind_s follows the reciprocity law
down Euclid's chain in O(log k) steps, and hagis_t is a difference of two
Dedekind sums.  The exponential sums keep no caches: A_k(n) comes from
Selberg's formula, a few cosines per k, and the q sum groups its terms by
angle and reads every cosine off one fixed-point integer rotation, one
cospi and one sinpi per k.  The floating layer evaluates the series under
an explicit working precision and only ever rounds a truncated sum to an
integer when a two-sided check passes:

* the truncated value sits within 1/4 of an integer,
* doubling the number of series terms moves the value by less than 2^-4, and
* the working precision leaves at least 16 bits below the integer scale of
  the value, so a small residual is a measurement rather than an artifact
  of the representation rounding to integers on its own.

Together the bounds force the doubled-budget sum to round to the same
integer.  A failed check escalates (doubling both the term budget and the
working precision) up to four times before signaling non-certification.
The term sums are reduced in ascending k order, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, cospi, sinpi, sqrt, cosh, sinh, pi, nint, ldexp

from .core import DomainError, ImaginaryResidueError, NonCertifiedError

RESIDUAL_BOUND = 0.25
STABILITY_BOUND = 0.0625  # 2^-4; tail movement under a doubled term budget
RESOLUTION_GUARD_BITS = 16  # fractional bits the raw value must still carry
MAX_ESCALATIONS = 4


@dataclass(frozen=True)
class SeriesEvalReport:
    n: int
    k_terms_used: int
    precision_bits: int
    raw_value: mpf
    rounded: int
    residual: mpf
    certified: bool


def sawtooth(x) -> Fraction:
    """x - floor(x) - 1/2 for non-integer x, 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def _check_coprime_args(h: int, k: int) -> None:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not 0 <= h < k:
        raise DomainError(f"h must satisfy 0 <= h < k, got h={h}, k={k}")
    if math.gcd(h, k) != 1:
        raise DomainError(f"h and k must be coprime, got h={h}, k={k}")


def _dedekind12(h: int, k: int) -> int:
    """12k * s(h, k) for coprime 0 <= h < k, in O(log k) integer steps: by
    reciprocity h (12k s(h,k)) + k (12h s(k,h)) = h^2 + k^2 + 1 - 3hk, with
    s(k, h) = s(k mod h, h) and s(0, 1) = 0.  The division by h is exact."""
    if h == 0:
        return 0
    return (h * h + k * k + 1 - 3 * h * k - k * _dedekind12(k % h, h)) // h


def dedekind_s(h: int, k: int) -> Fraction:
    """Sum of ((j/k))((hj/k)) over j = 1..k-1, exactly, by reciprocity."""
    _check_coprime_args(h, k)
    return Fraction(_dedekind12(h, k), 12 * k)


def hagis_t(h: int, k: int) -> Fraction:
    """Sum of (( (2j-1)/(2k) ))(( h(2j-1)/k )) over j = 1..k, k odd, exactly.

    t(h, k) = s(h, k) - s(2h mod k, k).  Proof: Dedekind sums are
    homogeneous, s(2h, 2k) = s(h, k).  Split the sum for s(2h, 2k) over
    m mod 2k: the odd m = 2j-1 give t(h, k) and the even m = 2j give
    s(2h, k), which is periodic in 2h mod k.
    """
    _check_coprime_args(h, k)
    if k % 2 == 0:
        raise DomainError(f"k must be odd, got {k}")
    return Fraction(_dedekind12(h, k) - _dedekind12(2 * h % k, k), 12 * k)


def _A_real(k: int, n: int, bits: int):
    """A_k(n) at a precision of bits by Selberg's formula: sqrt(k/3) times
    the sum of (-1)^l cos(pi (6l+1)/(6k)) over l mod 2k with (3l^2 + l)/2 =
    -n (mod k) (Johansson, "Efficient implementation of the Hardy-Ramanujan-
    Rademacher formula", 2012, sec. 2).  Only a few l qualify, so a term
    costs a few cosines and no Dedekind sum.
    """
    if k == 1:
        return mpf(1)
    with mp.workprec(bits):
        total = mpf(0)
        for l in range(2 * k):
            if ((3 * l * l + l) // 2 + n) % k == 0:
                total += (-1) ** l * cospi(mpf(6 * l + 1) / (6 * k))
        return sqrt(mpf(k) / 3) * total


def _inner_real(k: int, n: int, bits: int):
    """Real value of the odd-k exponential sum in the distinct-count series,
    sum over h of e^{pi i (t(h,k) - 2nh/k)}, at a precision of bits.

    The h and k-h terms are complex conjugates, so the sum is twice the sum
    of cos(pi a_h / (12k)) over coprime h < k/2, where the integer
    a_h = 12k t(h, k) - 24nh = D(h) - D(2h mod k) - 24nh (mod 24k) and
    D(x) = 12k s(x, k).  For odd k, 2h < k, and s(k-x, k) = -s(x, k), so
    one Dedekind sum per h fills a table that serves both D terms.  Folding
    a_h by cos(-x) = cos x and cos(pi - x) = -cos x puts every angle in
    [0, 6k] with a signed multiplicity.  The angles share the step
    g = gcd(12k, a_h ...) (in practice 12, or 4 when 3 divides k), so one
    rotation by theta = pi g/(12k), stepped in P-bit fixed point across
    0..max(a)/g, yields every cosine the sum needs.

    Error bound, with u = 2^-P: the rotation's entries C, S are rounded to
    within one unit, so W = (C + iS)u has |W - e^{i theta}| <= sqrt2 u, and
    each step's floor shifts add at most sqrt2 u.  The step error
    e_{j+1} = W e_j + (W - e^{i theta}) e^{ij theta} + r_j then gives
    |e_j| <= 2 sqrt2 u j (1 + sqrt2 u)^j < 3ju, and j <= 12k.  The weights
    sum to at most k/2 in absolute value and the sum is doubled, so the
    result is off by less than 36 k^2 u < 2^(6 + 2 bitlen(k)) u before its
    one rounding to bits.  P = bits + 22 + 2 bitlen(k) makes that
    2^-(bits+16).

    At k = 1 the sum over proper fractions h/k is empty; the evaluation
    takes the single h = 0 term, which is exactly 1, so the first series
    term carries the main weight instead of vanishing.
    """
    if k == 1:
        return mpf(1)
    half = k // 2
    hs = [h for h in range(1, half + 1) if math.gcd(h, k) == 1]
    dedekind = [0] * (half + 1)
    for h in hs:
        dedekind[h] = _dedekind12(h, k)
    turn, step = 24 * k, 24 * (n % k)
    folded = []
    for h in hs:
        double = 2 * h
        d2 = dedekind[double] if double <= half else -dedekind[k - double]
        a = (dedekind[h] - d2 - step * h) % turn
        a = min(a, turn - a)  # cos(-x) = cos x
        folded.append((a, 1) if 2 * a <= 12 * k else (12 * k - a, -1))  # cos(pi - x) = -cos x
    g = math.gcd(12 * k, *(a for a, _ in folded))
    weights = [0] * (max(a for a, _ in folded) // g + 1)
    for a, sign in folded:
        weights[a // g] += sign
    P = bits + 22 + 2 * k.bit_length()
    with mp.workprec(P + 8):
        theta = mpf(g) / (12 * k)
        C = int(nint(cospi(theta) * 2**P))
        S = int(nint(sinpi(theta) * 2**P))
    x, y = 1 << P, 0
    total = 0
    for weight in weights:
        if weight:
            total += weight * x
        x, y = (x * C - y * S) >> P, (y * C + x * S) >> P
    with mp.workprec(bits):
        return ldexp(mpf(total), 1 - P)


def _direct_sum(rational, k: int, n: int, precision_bits: int):
    """Real part of the explicit complex sum of e^{pi i (rational(h, k) - 2nh/k)}
    over h coprime to k (h = 0 alone at k = 1).  The imaginary part must
    cancel to below 2^(-precision_bits/2) or the evaluation is rejected.
    """
    with mp.workprec(precision_bits):
        re = im = mpf(0)
        for h in range(k):
            if math.gcd(h, k) == 1:
                theta = (rational(h, k) - Fraction(2 * n * h, k)) % 2
                x = mpf(theta.numerator) / theta.denominator
                re += cospi(x)
                im += sinpi(x)
        if abs(im) >= mpf(2) ** (-(precision_bits // 2)):
            raise ImaginaryResidueError(
                f"imaginary residue {im} at k={k}, n={n}, bits={precision_bits}"
            )
    return re


def kloosterman_A(k: int, n: int, precision_bits: int) -> mpf:
    """A_k(n) from its definition as an explicit complex sum over h coprime
    to k (see _direct_sum).  The series evaluators use Selberg's formula;
    this direct form is the reference they are checked against.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if precision_bits < 64:
        raise DomainError("precision_bits must be >= 64")
    return _direct_sum(dedekind_s, k, n, precision_bits)


def _i1_raw(z, bits: int):
    half = z / 2
    if half == 0:
        return mpf(0)
    eps = mpf(2) ** (-(bits + 8))
    zz = half * half
    total = half
    term = half
    m = 0
    while True:
        term = term * zz / ((m + 1) * (m + 2))
        total += term
        if term < eps * total:
            return total
        m += 1


def bessel_I1(z, precision_bits: int) -> mpf:
    """Modified Bessel function of order 1 by its entire series, with z read
    at precision_bits (pass a string to keep digits a float would lose).

    Terms are summed until one falls below 2^(-precision_bits-8) of the
    running sum; all terms are positive for z >= 0 so truncation error is
    bounded by a geometric tail of the same size.

    z must be at most 2^16.  The terms grow until about the (z/2)-th and
    only then fall, so the series takes time linear in z: a fraction of a
    second at 2^16, and no useful time at all at 10^7.  The q series only
    needs z <= pi sqrt(48n+2)/12, about 574 at n = 10^5, and calls the
    same kernel without this check.
    """
    if precision_bits < 64:
        raise DomainError("precision_bits must be >= 64")
    with mp.workprec(precision_bits):
        z = mpf(z)
        if not mp.isfinite(z):  # the series' stopping test never passes for nan or inf
            raise DomainError(f"bessel_I1 needs a finite z, got {z}")
        if z < 0:
            raise DomainError("bessel_I1 is only evaluated at z >= 0")
        if z > 2**16:
            raise DomainError(f"bessel_I1 is only evaluated at z <= 2^16, got {z}")
        return _i1_raw(z, precision_bits)


def default_k_terms(n: int) -> int:
    """ceil(8 sqrt(n)) + 16."""
    root = math.isqrt(64 * n)
    if root * root < 64 * n:
        root += 1
    return root + 16


def default_bits_p(n: int) -> int:
    # 64 guard bits over the bit length of the value being summed to
    return max(128, int(math.pi * math.sqrt(2 * n / 3) / math.log(2)) + 64)


def default_bits_q(n: int) -> int:
    return max(128, int(math.pi * math.sqrt(n / 3) / math.log(2)) + 64)


def _resolved(raw, bits: int) -> bool:
    # A residual of 0 is meaningless when the working precision cannot even
    # represent the fractional part at this magnitude, so insist on a margin
    # of usable bits below the integer scale.
    if raw == 0:
        return True
    return bits - mp.mag(raw) >= RESOLUTION_GUARD_BITS


def _sum_and_certify(n: int, k_terms: int, bits: int, prefactor, term, ks) -> SeriesEvalReport:
    """Sum term(k) over ks, round the partial sum through k <= k_terms, and
    certify it against the sum over all of ks (the doubled budget)."""
    with mp.workprec(bits):
        total = mpf(0)
        at_budget = None
        for k in ks:
            total += term(k)
            if k <= k_terms:
                at_budget = total
        raw = prefactor * at_budget
        doubled = prefactor * total
        nearest = nint(raw)
        residual = abs(raw - nearest)
        drift = abs(doubled - raw)
        certified = bool(
            residual < RESIDUAL_BOUND
            and drift < STABILITY_BOUND
            and _resolved(raw, bits)
        )
        rounded = int(nearest)
    return SeriesEvalReport(n, k_terms, bits, raw, rounded, residual, certified)


def _eval_p(n: int, k_terms: int, bits: int) -> SeriesEvalReport:
    with mp.workprec(bits):
        m = mpf(24 * n - 1) / 24
        sm = sqrt(m)
        c0 = pi * sqrt(mpf(2) / 3)
        prefactor = 1 / (pi * sqrt(mpf(2)))

    def term(k):
        C = c0 / k
        arg = C * sm
        deriv = C * cosh(arg) / (2 * m) - sinh(arg) / (2 * m * sm)
        return sqrt(mpf(k)) * _A_real(k, n, bits) * deriv

    return _sum_and_certify(n, k_terms, bits, prefactor, term, range(1, 2 * k_terms + 1))


def _eval_q(n: int, k_terms: int, bits: int) -> SeriesEvalReport:
    with mp.workprec(bits):
        prefactor = pi / sqrt(mpf(24 * n + 1))
        z_base = pi * sqrt(mpf(48 * n + 2)) / 12

    def term(k):
        return _inner_real(k, n, bits) * _i1_raw(z_base / k, bits) / k

    # odd k only; the doubled budget must reach an odd k beyond the budget
    # even at k_terms = 1, or the drift test compares a sum with itself
    return _sum_and_certify(n, k_terms, bits, prefactor, term, range(1, max(2 * k_terms, 3) + 1, 2))


def _certify(name: str, n: int, k_max, precision_bits, default_bits, evaluate) -> SeriesEvalReport:
    if n < 1:
        raise DomainError(f"{name} needs n >= 1, got {n}")
    k_terms = default_k_terms(n) if k_max is None else k_max
    bits = default_bits(n) if precision_bits is None else precision_bits
    if k_terms < 1:
        raise DomainError("k_max must be >= 1")
    if bits < 64:
        raise DomainError("precision_bits must be >= 64")
    report = None
    for _ in range(MAX_ESCALATIONS + 1):
        report = evaluate(n, k_terms, bits)
        if report.certified:
            return report
        k_terms *= 2
        bits *= 2
    raise NonCertifiedError(name, report)


def rademacher_p(n: int, k_max: int | None = None, precision_bits: int | None = None) -> SeriesEvalReport:
    """Certified evaluation of the convergent series for the partition count p(n).

    p(n) = (1/(pi sqrt 2)) sum_k sqrt(k) A_k(n) D_k(n), where D_k is the
    closed-form derivative of sinh((pi/k) sqrt((2/3)(n - 1/24))) / sqrt(n - 1/24)
    in n.  Terms are reduced in ascending k; see the module docstring for
    the rounding certification.
    """
    return _certify("rademacher_p", n, k_max, precision_bits, default_bits_p, _eval_p)


def hagis_q(n: int, k_max: int | None = None, precision_bits: int | None = None) -> SeriesEvalReport:
    """Certified evaluation of the convergent series for the distinct-part
    partition count q(n).

    q(n) = (pi / sqrt(24n+1)) sum_{k odd} k^-1 (sum_h e^{pi i (t(h,k) - 2nh/k)})
    I_1(pi sqrt(48n+2) / (12k)), with the k = 1 inner sum taken as its
    single h = 0 term.  Certification matches rademacher_p.
    """
    return _certify("hagis_q", n, k_max, precision_bits, default_bits_q, _eval_q)
