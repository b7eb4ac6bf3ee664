"""High-precision evaluation of the convergent series for the partition
counts p(n) and q(n), with an exact-rational layer underneath.

The rational layer (sawtooth, dedekind_s, hagis_t) is exact integer
arithmetic packaged as Fractions, the reference that verify and the
tests hold the exponential sums to; the series never call it.
dedekind_s follows the reciprocity law down Euclid's chain in O(log k)
steps, and hagis_t is a difference of two Dedekind sums.  The
exponential sums keep no caches: A_k(n) comes from Selberg's formula, a
few cosines per k, and the q sum, a Kloosterman sum, from one modular
inverse per h and one fixed-point integer rotation, one cospi and one
sinpi per k.  The floating layer evaluates the series under an explicit
working precision and only ever rounds a truncated sum to an integer
when the series' own certificate passes.  Each series carries a
different one:

* p, a proof: a proven bound on the series' tail past the term budget,
  plus a bound on the evaluation error of the partial sum, plus the
  residual, is below 1/2 (_p_bounds derives both bounds), so the nearest
  integer is p(n).  The error bound assumes each mpmath operation is
  accurate to a relative 2^(1-P) at P working bits.
* q, a heuristic drift test, until a bound on the Hagis sums exists: the
  truncated value sits within 1/4 of an integer, doubling the number of
  series terms moves the value by less than 2^-4, and the working
  precision leaves at least 16 bits below the integer scale of the value,
  so a small residual is a measurement rather than an artifact of the
  representation rounding to integers on its own.

A failed certificate escalates up to four times before signaling
non-certification.  Each escalation doubles what the certificate found
short: for p the term budget when the tail bound blocks and the working
precision when the error bound does, for q both.
The term sums are reduced in ascending k order, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from mpmath import iv, mp, mpf, besseli, cospi, sinpi, sqrt, cosh, sinh, pi, nint, ldexp

from .core import DomainError, ImaginaryResidueError, NonCertifiedError

RESIDUAL_BOUND = 0.25
STABILITY_BOUND = 0.0625  # 2^-4; q's tail movement under a doubled term budget
RESOLUTION_GUARD_BITS = 16  # fractional bits q's raw value must still carry
MAX_ESCALATIONS = 4


class SeriesEvalReport(NamedTuple):
    n: int
    k_terms_used: int
    precision_bits: int
    raw_value: mpf
    rounded: int
    residual: mpf
    certified: bool


def sawtooth(x) -> Fraction:
    """x - floor(x) - 1/2 for non-integer x, 0 at integers."""
    from fractions import Fraction  # here, not at the top: the series never build one

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
    from fractions import Fraction

    _check_coprime_args(h, k)
    return Fraction(_dedekind12(h, k), 12 * k)


def hagis_t(h: int, k: int) -> Fraction:
    """Sum of (( (2j-1)/(2k) ))(( h(2j-1)/k )) over j = 1..k, k odd, exactly.

    t(h, k) = s(h, k) - s(2h mod k, k).  Proof: Dedekind sums are
    homogeneous, s(2h, 2k) = s(h, k).  Split the sum for s(2h, 2k) over
    m mod 2k: the odd m = 2j-1 give t(h, k) and the even m = 2j give
    s(2h, k), which is periodic in 2h mod k.
    """
    from fractions import Fraction

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
    S_k(n) = sum over h of e^{pi i (t(h,k) - 2nh/k)}, at a precision of
    bits: a Kloosterman sum, summed with no Dedekind sum.

    Term h has the angle 2 pi a_h/(24k), a_h = D(h) - D(2h) - 24nh, where
    D(x) = 12k s(x, k) is an integer that depends on x mod k.  For x
    coprime to odd k and theta = gcd(3, k) (Rademacher and Grosswald,
    Dedekind Sums, 1972, ch. 3):
      (i)   12xk s(x,k) = x^2 + 1 (mod theta k);
      (ii)  12k s(x,k) = 0 (mod 3) if 3 does not divide k;
      (iii) 12k s(x,k) = k + 1 - 2(x/k) (mod 8), (x/k) Jacobi's symbol.
    With m = theta k and inverses mod m, (i) at x = h and x = 2h gives
    a_h = 1/(2h) - h - 24nh (mod m); (iii) gives a_h = 2(h/k)((2/k) - 1)
    = 12k e (mod 8), with e = 1 if (2/k) = -1 and e = 0 if not; and if 3
    does not divide k, (ii) gives a_h = 0 = 12k e (mod 3).  So by the
    Chinese remainder theorem a_h = (24k/m) b_h + 12k e (mod 24k), with
        b_h = (24k/m)^-1 (1/(2h) - h) - (m/k) n h (mod m),
    term h is (2/k) cos(2 pi b_h/m), and S_k(n) is (2/k) times
    K(48^-1, -24^-1 (24n+1); k) if 3 does not divide k and
    K(16^-1, -8^-1 (24n+1); 3k)/3 if it does, K(a, b; m) being the sum of
    e((a/h + bh)/m) over h coprime to m.  Terms h and k - h are conjugate,
    and b and m - b share a cosine, so S_k(n) is 2 (2/k) times the sum over
    coprime h < k/2 of cos(2 pi j/m), j = min(b_h, m - b_h) <= m/2: one
    rotation by 2 pi/m, in P-bit fixed point over j = 0..m/2, reads every
    cosine off a histogram of the j.

    Error bound, with u = 2^-P: C and S are rounded to within one unit, so
    W = (C + iS)u has |W - w| <= sqrt2 u, w = e^{2 pi i/m}, and each step's
    floor shifts add at most sqrt2 u.  The step error e_{j+1} = W e_j +
    (W - w) w^j + r_j then gives |e_j| <= 2 sqrt2 u j (1 + sqrt2 u)^j < 3ju,
    and j <= m/2 <= 3k/2.  The counts sum to at most k/2 and the sum is
    doubled, so the result is off by less than 4.5 k^2 u < 2^(3 + 2 bitlen(k))
    u before its one rounding to bits: 2^-(bits+19) at P = bits + 22 +
    2 bitlen(k), within 2^-(bits+16).

    At k = 1 the sum over proper fractions h/k is empty; it takes the single
    h = 0 term, exactly 1, so the first series term does not vanish.
    """
    if k == 1:
        return mpf(1)
    m = 3 * k if k % 3 == 0 else k
    unit = pow(24 * k // m, -1, m)
    c, d = unit * (m + 1) // 2 % m, (unit + m // k * n) % m  # b_h = c/h - d h
    counts = [0] * (m // 2 + 1)
    for h in range(1, k // 2 + 1):
        try:
            j = (c * pow(h, -1, m) - d * h) % m
        except ValueError:  # h shares a factor with k
            continue
        counts[min(j, m - j)] += 1
    P = bits + 22 + 2 * k.bit_length()
    with mp.workprec(P + 8):
        C, S = (int(nint(f(mpf(2) / m) * 2**P)) for f in (cospi, sinpi))
    x, y, total = 1 << P, 0, 0
    for count in counts:
        total += count * x
        x, y = (x * C - y * S) >> P, (y * C + x * S) >> P
    with mp.workprec(bits):
        return ldexp(mpf(total if k % 8 in (1, 7) else -total), 1 - P)


def _direct_sum(rational, k: int, n: int, precision_bits: int):
    """Real part of the explicit complex sum of e^{pi i (rational(h, k) - 2nh/k)}
    over h coprime to k (h = 0 alone at k = 1).  The imaginary part must
    cancel to below 2^(-precision_bits/2) or the evaluation is rejected.
    """
    from fractions import Fraction

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


def bessel_I1(z, precision_bits: int) -> mpf:
    """Modified Bessel function of order 1, mpmath's besseli(1, z), with z
    read and the value rounded at precision_bits (pass a string to keep
    digits a float would lose).  The q series calls besseli the same way,
    at its working precision.

    z must be at most 2^16.  besseli's cost grows with the size of z: about
    a millisecond at 2^16 and at 10^12, about a second at 10^1000, and no
    useful time at all at 10^100000.  The q series only needs
    z <= pi sqrt(48n+2)/12, about 574 at n = 10^5.
    """
    if precision_bits < 64:
        raise DomainError("precision_bits must be >= 64")
    with mp.workprec(precision_bits):
        z = mpf(z)
        if not mp.isfinite(z):  # besseli returns nan at nan and raises TypeError at inf
            raise DomainError(f"bessel_I1 needs a finite z, got {z}")
        if z < 0:
            raise DomainError("bessel_I1 is only evaluated at z >= 0")
        if z > 2**16:
            raise DomainError(f"bessel_I1 is only evaluated at z <= 2^16, got {z}")
        return besseli(1, z)


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


def _iv_cosh(y):
    return (iv.exp(y) + iv.exp(-y)) / 2


def _p_bounds(n: int, k_terms: int, bits: int):
    """Intervals that enclose upper bounds on the two errors of p's partial
    sum through k <= N = k_terms evaluated at P = bits: its tail past N and
    its evaluation error.  Interval arithmetic (mpmath's iv) rounds each
    bound outward, so the bounds hold as computed; the error bound also
    rests on the accuracy assumption stated below, which mpmath does not
    document for its transcendental functions.

    Write m = n - 1/24, c0 = pi sqrt(2/3), x = c0 sqrt(m) and x_k = x/k.
    The k-th term is sqrt(k) A_k(n) D_k with
    D_k = (c0/k) cosh(x_k)/(2m) - sinh(x_k)/(2m sqrt(m))
        = (c0/k)(cosh x_k - sinh(x_k)/x_k)/(2m).

    Tail.  Three facts bound it: |A_k(n)| <= phi(k) < k for k > 1; the
    power series of cosh y - sinh(y)/y, sum over j >= 1 of
    2j y^(2j)/(2j+1)!, is termwise at most that of (y^2/3) cosh y, so
    0 <= D_k <= (c0/k)^3 cosh(x_k)/6; and sum over k > N of k^(-3/2) is at
    most the integral of t^(-3/2) from N on, 2/sqrt(N).  With cosh(x_k) <=
    cosh(x/N) for k > N and the prefactor 1/(pi sqrt 2), for every n >= 1
        |p(n) - partial sum| <= c0^3/(3 pi sqrt 2) cosh(x/N)/sqrt(N),
    where the constant c0^3/(3 pi sqrt 2) is about 1.2663.

    Evaluation error.  Let u = 2^(1-P), one unit in the last place relative
    to the value, and assume that every mpmath operation a term makes
    (arithmetic, sqrt, pi, cosh, sinh, cospi) returns its exact value on its
    rounded inputs to within a factor 1 +- u.  Let w = (N + x + 8) u.  To
    first order in u:
    * x_k takes nine rounded operations, so it is off by at most 10u x_k,
      and the computed cosh x_k and sinh x_k are each within
      (10 x_k + 1) u cosh(x_k) of the true values.  Each part of D_k is at
      most B_k/2 = (c0/k) cosh(x_k)/(2m) in size; the first carries
      (10 x_k + 10) u B_k/2 of error, the second, whose 1/sqrt(m) is
      (c0/k)/x_k, 18 u B_k/2, and the difference one more rounding of at
      most B_k, so D_k is off by at most (5 x_k + 15) u B_k.
    * _A_real sums at most 2k cosines of angles pi t, t < 2, each off by at
      most (2 pi + 1) u < 8u, in at most 2k - 1 additions, then scales by
      sqrt(k/3) in three roundings.  With a_k = 2k sqrt(k/3) >= |A_k| (and
      A_1 = 1 exactly), A_k is off by at most (2k + 11) u a_k.
    * So term k, formed in three more roundings, is off by at most
      (2k + 5 x_k + 29) u G_k, with G_k = sqrt(k) a_k B_k.  The N - 1
      additions of the partial sum add (N - 1) u times the sum of the G_k,
      and the prefactor and its product 5u of it.
    In all, since k <= N and x_k <= x, and with S the sum of the G_k,
        |raw - prefactor partial sum| <= 5 w S/(pi sqrt 2)
    to first order.  Every factor (1 +- u)^j behind these counts has
    j <= 16 (N + x + 8), and (1 + u)^j - 1 <= j u e^(ju), so the exact error
    is at most 5 w e^(16 w) S/(pi sqrt 2); the bound below takes
    8 w e^(64 w) S/(pi sqrt 2).  It grows without limit once the precision
    cannot resolve the sum, which is how a too-small P is refused.  Last,
    G_1 = c0 cosh(x)/m, G_k = (2/sqrt 3) k c0 cosh(x_k)/m and
    cosh(x_k) <= cosh(x/2) for k >= 2, so
        S <= (c0/m) (cosh x + N (N + 1) cosh(x/2)/sqrt 3).
    """
    N = k_terms
    m = iv.mpf(24 * n - 1) / 24
    c0 = iv.pi * iv.sqrt(iv.mpf(2) / 3)
    x = c0 * iv.sqrt(m)
    tail = c0**3 / (3 * iv.pi * iv.sqrt(2)) * _iv_cosh(x / N) / iv.sqrt(N)
    w = (N + x + 8) * iv.mpf(2) ** (1 - bits)
    S = c0 / m * (_iv_cosh(x) + N * (N + 1) * _iv_cosh(x / 2) / iv.sqrt(3))
    return tail, 8 * w * iv.exp(64 * w) * S / (iv.pi * iv.sqrt(2))


def _p_series(n: int, k_terms: int, bits: int):
    """The p series' prefactor, term(k), its k <= k_terms and its
    certificate, at the working precision bits.  The certificate is a proof:
    |p(n) - raw| <= tail + error (_p_bounds), so tail + error + residual <
    1/2 makes the nearest integer p(n).  A failure means tail + error >= 1/4,
    since the residual is at most tail + error, so at least one of the two
    is 1/8 or more: needs asks for more terms when the tail is and for more
    bits when the error is, and for both if neither is (which the bounds rule
    out), so that a failure always asks for more."""
    m = mpf(24 * n - 1) / 24
    sm = sqrt(m)
    c0 = pi * sqrt(mpf(2) / 3)

    def term(k):
        C = c0 / k
        arg = C * sm
        deriv = C * cosh(arg) / (2 * m) - sinh(arg) / (2 * m * sm)
        return sqrt(mpf(k)) * _A_real(k, n, bits) * deriv

    def needs(raw, residual, total):
        tail, error = _p_bounds(n, k_terms, bits)
        if (tail + error + residual).b < 0.5:
            return False, False
        terms, precision = tail.b >= 0.125, error.b >= 0.125
        return (terms, precision) if terms or precision else (True, True)

    return 1 / (pi * sqrt(mpf(2))), term, range(1, k_terms + 1), needs


def _q_series(n: int, k_terms: int, bits: int):
    """The q series' prefactor, term(k), the k of the doubled budget and its
    certificate, the drift test, at the working precision bits."""
    z_base = pi * sqrt(mpf(48 * n + 2)) / 12
    prefactor = pi / sqrt(mpf(24 * n + 1))

    def term(k):
        return _inner_real(k, n, bits) * besseli(1, z_base / k) / k

    def needs(raw, residual, total):
        # A residual of 0 is meaningless when the working precision cannot
        # even represent the fractional part at this magnitude, so insist
        # on a margin of usable bits below the integer scale (mp.mag(0) is
        # -inf, so a raw value of 0 passes).  The drift test cannot tell
        # which budget fell short, so a failure grows both.
        failed = not (
            residual < RESIDUAL_BOUND
            and abs(prefactor * total - raw) < STABILITY_BOUND
            and bits - mp.mag(raw) >= RESOLUTION_GUARD_BITS
        )
        return failed, failed

    # odd k only; the doubled budget must reach an odd k beyond the budget
    # even at k_terms = 1, or the drift test compares a sum with itself
    return prefactor, term, range(1, max(2 * k_terms, 3) + 1, 2), needs


def _certify(name: str, n: int, k_max, precision_bits, default_bits, series) -> SeriesEvalReport:
    """Sum the series in ascending k over its k range, round the partial sum
    through k <= k_terms, and hold it to the series' certificate.  The
    certificate, needs(raw, residual, total), says whether more terms and
    whether more bits are needed; a failed one doubles the term budget, the
    precision or both, as it asks, and tries again.  An attempt at unchanged
    bits keeps the last partial sum and adds only the terms past the old
    budget, so every sum is still reduced in ascending k; new bits start
    over at k = 1."""
    if n < 1:
        raise DomainError(f"{name} needs n >= 1, got {n}")
    k_terms = default_k_terms(n) if k_max is None else k_max
    bits = default_bits(n) if precision_bits is None else precision_bits
    if k_terms < 1:
        raise DomainError("k_max must be >= 1")
    if bits < 64:
        raise DomainError("precision_bits must be >= 64")
    kept = None, 0, mpf(0)  # bits, k_terms and partial sum of the last attempt
    for _ in range(MAX_ESCALATIONS + 1):
        with mp.workprec(bits):
            prefactor, term, ks, needs = series(n, k_terms, bits)
            done, at_budget = kept[1:] if kept[0] == bits else (0, mpf(0))
            total = at_budget
            for k in ks:
                if k > done:
                    total += term(k)
                    if k <= k_terms:
                        at_budget = total
            raw = prefactor * at_budget
            nearest = nint(raw)
            residual = abs(raw - nearest)
            more_terms, more_bits = needs(raw, residual, total)
        kept = bits, k_terms, at_budget
        certified = not (more_terms or more_bits)
        report = SeriesEvalReport(n, k_terms, bits, raw, int(nearest), residual, certified)
        if certified:
            return report
        if more_terms:
            k_terms *= 2
        if more_bits:
            bits *= 2
    raise NonCertifiedError(name, report)


def rademacher_p(n: int, k_max: int | None = None, precision_bits: int | None = None) -> SeriesEvalReport:
    """Certified evaluation of the convergent series for the partition count p(n).

    p(n) = (1/(pi sqrt 2)) sum_k sqrt(k) A_k(n) D_k(n), where D_k is the
    closed-form derivative of sinh((pi/k) sqrt((2/3)(n - 1/24))) / sqrt(n - 1/24)
    in n.  Terms are reduced in ascending k; the rounding is certified by
    a proven bound on the tail and the evaluation error (_p_bounds).
    """
    return _certify("rademacher_p", n, k_max, precision_bits, default_bits_p, _p_series)


def hagis_q(n: int, k_max: int | None = None, precision_bits: int | None = None) -> SeriesEvalReport:
    """Certified evaluation of the convergent series for the distinct-part
    partition count q(n).

    q(n) = (pi / sqrt(24n+1)) sum_{k odd} k^-1 (sum_h e^{pi i (t(h,k) - 2nh/k)})
    I_1(pi sqrt(48n+2) / (12k)), with the k = 1 inner sum taken as its
    single h = 0 term.  It is certified by the drift test of the module
    docstring, not by a proven bound as rademacher_p is.
    """
    return _certify("hagis_q", n, k_max, precision_bits, default_bits_q, _q_series)
