"""High-precision evaluation of the convergent series for the partition
counts p(n) and q(n), with an exact-rational layer underneath.

The rational layer (sawtooth, dedekind_s, hagis_t) is pure integer
arithmetic packaged as Fractions, so its results are reproducible
bit-for-bit.  The floating layer evaluates the series under an explicit
working precision and only ever rounds a truncated sum to an integer when
a two-sided check passes:

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

from mpmath import mp, mpf, cospi, sinpi, sqrt, cosh, sinh, pi, nint

from .core import DomainError

ExactRational = Fraction

RESIDUAL_BOUND = 0.25
STABILITY_BOUND = 0.0625  # 2^-4; tail movement under a doubled term budget
RESOLUTION_GUARD_BITS = 16  # fractional bits the raw value must still carry
MAX_ESCALATIONS = 4


class ImaginaryResidueError(ArithmeticError):
    """The imaginary part of an exponential sum failed to cancel."""


class NonCertifiedError(ArithmeticError):
    """Rounding could not be certified within the escalation budget."""

    def __init__(self, report: "SeriesEvalReport"):
        super().__init__(
            f"series for n={report.n} not certified at k_terms={report.k_terms_used}, "
            f"precision_bits={report.precision_bits}"
        )
        self.report = report


@dataclass(frozen=True)
class HPReal:
    """A high-precision real tagged with the precision it was computed at."""

    value: object
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < 64:
            raise DomainError("HPReal needs precision_bits >= 64")

    def _bits_with(self, other) -> int:
        if isinstance(other, HPReal):
            return min(self.precision_bits, other.precision_bits)
        return self.precision_bits

    @staticmethod
    def _raw(x):
        return x.value if isinstance(x, HPReal) else x

    def _combine(self, other, op) -> "HPReal":
        bits = self._bits_with(other)
        with mp.workprec(bits):
            return HPReal(op(self.value, self._raw(other)), bits)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    def __truediv__(self, other):
        return self._combine(other, lambda a, b: a / b)

    def __neg__(self):
        return HPReal(-self.value, self.precision_bits)

    def __abs__(self):
        return HPReal(abs(self.value), self.precision_bits)

    def __float__(self):
        return float(self.value)

    def __lt__(self, other):
        return self.value < self._raw(other)

    def __le__(self, other):
        return self.value <= self._raw(other)

    def __gt__(self, other):
        return self.value > self._raw(other)

    def __ge__(self, other):
        return self.value >= self._raw(other)


@dataclass(frozen=True)
class SeriesEvalReport:
    n: int
    k_terms_used: int
    precision_bits: int
    raw_value: HPReal
    rounded: int
    residual: HPReal
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


def dedekind_s(h: int, k: int) -> Fraction:
    """Sum of ((j/k))((hj/k)) over j = 1..k-1, exactly.

    For 0 < j < k neither j/k nor hj/k is an integer (h coprime to k), so
    each sawtooth factor is a half-integer offset and the whole sum
    collapses to integer arithmetic over a denominator of 4k^2.
    """
    _check_coprime_args(h, k)
    acc = 0
    r = 0
    for j in range(1, k):
        r += h
        if r >= k:
            r -= k
        acc += (2 * j - k) * (2 * r - k)
    return Fraction(acc, 4 * k * k)


def hagis_t(h: int, k: int) -> Fraction:
    """Sum of (( (2j-1)/(2k) ))(( h(2j-1)/k )) over j = 1..k, k odd, exactly.

    The j with k | (2j-1) contributes 0 through its first factor, so the
    collapsed integer form needs no special case for it.
    """
    _check_coprime_args(h, k)
    if k % 2 == 0:
        raise DomainError(f"k must be odd, got {k}")
    acc = 0
    u = -h
    for j in range(1, k + 1):
        u += 2 * h
        u %= k
        acc += (2 * j - 1 - k) * (2 * u - k)
    return Fraction(acc, 4 * k * k)


# Per-k half tables of the rational sums, for h <= k/2 only: the h <-> k-h
# symmetry (s and t are both odd under it) supplies the other half.
_s_half_tables: dict[int, list[tuple[int, Fraction]]] = {}
_t_half_tables: dict[int, list[tuple[int, Fraction]]] = {}


def _tier(bits: int) -> int:
    return ((bits + 63) // 64) * 64


def _cospi_fraction(theta: Fraction):
    return cospi(mpf(theta.numerator) / theta.denominator)


# (k, n mod k, tier) -> mpf; exponential sums depend on n only through n mod k
_A_cache: dict[tuple[int, int, int], object] = {}
_inner_cache: dict[tuple[int, int, int], object] = {}


def _cached_sum(cache: dict, k: int, n: int, tier: int, evaluate):
    """evaluate(r) at the tier's precision for r = n mod k, once per (k, r, tier)."""
    if k == 1:
        return mpf(1)
    r = n % k
    key = (k, r, tier)
    cached = cache.get(key)
    if cached is None:
        with mp.workprec(tier):
            cached = evaluate(r)
        cache[key] = cached
    return cached


def _paired_sum(half_tables: dict, rational, k: int, r: int):
    # the h and k - h terms are complex conjugates, so each pair is twice a cosine
    half = half_tables.get(k)
    if half is None:
        half = [(h, rational(h, k)) for h in range(1, k // 2 + 1) if math.gcd(h, k) == 1]
        half_tables[k] = half
    total = mpf(0)
    for h, x in half:
        total += _cospi_fraction((x - Fraction(2 * r * h, k)) % 2)
    return 2 * total


def _A_real(k: int, n: int, tier: int):
    """Real value of the Dedekind exponential sum, via the h <-> k-h pairing."""

    def evaluate(r):
        if k == 2:  # the lone h = 1 is its own partner
            return _cospi_fraction(Fraction(-r) % 2)
        return _paired_sum(_s_half_tables, dedekind_s, k, r)

    return _cached_sum(_A_cache, k, n, tier, evaluate)


def _inner_real(k: int, n: int, tier: int):
    """Real value of the odd-k exponential sum in the distinct-count series.

    At k = 1 the sum over proper fractions h/k is empty; the evaluation
    takes the single h = 0 term, which is exactly 1, so the first series
    term carries the main weight instead of vanishing.
    """
    return _cached_sum(_inner_cache, k, n, tier, lambda r: _paired_sum(_t_half_tables, hagis_t, k, r))


def kloosterman_A(k: int, n: int, precision_bits: int) -> HPReal:
    """Exponential sum over residues h coprime to k, evaluated from the
    definition as an explicit complex sum.

    The true value is real; the imaginary part must cancel to below
    2^(-precision_bits/2) or the evaluation is rejected.  (The series
    evaluators use a pairing shortcut; this direct form is the reference
    they are checked against.)
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if precision_bits < 64:
        raise DomainError("precision_bits must be >= 64")
    with mp.workprec(_tier(precision_bits)):
        re = mpf(0)
        im = mpf(0)
        for h in range(k):
            if h and math.gcd(h, k) != 1:
                continue
            if h == 0 and k != 1:
                continue
            theta = (dedekind_s(h, k) - Fraction(2 * n * h, k)) % 2
            x = mpf(theta.numerator) / theta.denominator
            re += cospi(x)
            im += sinpi(x)
        if abs(im) >= mpf(2) ** (-(precision_bits // 2)):
            raise ImaginaryResidueError(
                f"imaginary residue {im} at k={k}, n={n}, bits={precision_bits}"
            )
    return HPReal(re, precision_bits)


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


def bessel_I1(z: HPReal) -> HPReal:
    """Modified Bessel function of order 1 by its entire series.

    Terms are summed until one falls below 2^(-precision_bits-8) of the
    running sum; all terms are positive for z >= 0 so truncation error is
    bounded by a geometric tail of the same size.
    """
    if not isinstance(z, HPReal):
        raise DomainError("bessel_I1 expects an HPReal argument")
    if z.value < 0:
        raise DomainError("bessel_I1 is only evaluated at z >= 0")
    with mp.workprec(z.precision_bits):
        return HPReal(_i1_raw(z.value, z.precision_bits), z.precision_bits)


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
    return SeriesEvalReport(
        n, k_terms, bits, HPReal(raw, bits), rounded, HPReal(residual, bits), certified
    )


def _eval_p(n: int, k_terms: int, bits: int) -> SeriesEvalReport:
    tier = _tier(bits)
    with mp.workprec(bits):
        m = mpf(24 * n - 1) / 24
        sm = sqrt(m)
        c0 = pi * sqrt(mpf(2) / 3)
        prefactor = 1 / (pi * sqrt(mpf(2)))

    def term(k):
        C = c0 / k
        arg = C * sm
        deriv = C * cosh(arg) / (2 * m) - sinh(arg) / (2 * m * sm)
        return sqrt(mpf(k)) * _A_real(k, n, tier) * deriv

    return _sum_and_certify(n, k_terms, bits, prefactor, term, range(1, 2 * k_terms + 1))


def _eval_q(n: int, k_terms: int, bits: int) -> SeriesEvalReport:
    tier = _tier(bits)
    with mp.workprec(bits):
        prefactor = pi / sqrt(mpf(24 * n + 1))
        z_base = pi * sqrt(mpf(48 * n + 2)) / 12

    def term(k):
        return _inner_real(k, n, tier) * _i1_raw(z_base / k, bits) / k

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
    raise NonCertifiedError(report)


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
