"""Evaluation of the convergent series for the partition counts p(n) and
q(n) in integer fixed point.  The references they are held to live in
fibcomp.reference, which this module does not import.

The series run on plain Python integers: a real number v is held as an
integer near v 2^V, "at scale V", and every kernel states how many units
of 2^-V it may be off.  The kernels are pi (Machin's formula), exp (with
cosh and sinh from one exp), the cosine of a rational multiple of pi,
math.isqrt, and the power series of the Bessel function I_1.  A_k(n)
comes from Selberg's formula, a few cosines per k, and the q sum, a
Kloosterman sum, from one modular inverse per unit h and Clenshaw's
recurrence over a histogram of its angles, one cosine per k.

Each series is summed at an absolute scale set by its working precision
P = precision_bits: P bits of a value the size of the largest term,
e^(pi sqrt(c n/3)) with c = P_C = 2 for p and c = Q_C = 1 for q (_magnitude), so that
P keeps the meaning of a floating-point precision.  A report's raw value and
residual are exact binary fractions (Dyadic), and a series' integer is
only reported certified when the series' own certificate passes.  Each
series carries a different one:

* p, a proof: a bound on the series' tail past the term budget, plus the
  sum of the kernels' stated error bounds over the partial sum, plus the
  residual, is below 1/2 (_p_bounds), so the nearest integer is p(n).
  Both bounds are integers, and the proof assumes nothing beyond exact
  integer arithmetic and floor division.
* q, a heuristic drift test, until a bound on the Hagis sums exists: the
  truncated value sits within 1/4 of an integer, doubling the number of
  series terms moves the value by less than 2^-4, and the working
  precision leaves at least 16 bits below the integer scale of the value,
  so a small residual is a measurement rather than an artifact of the
  representation rounding to integers on its own.

A failed certificate escalates up to four times before signaling
non-certification.  Each escalation doubles what the certificate found
short: for p the term budget when the tail bound blocks and the working
precision when the error bound does, for q both.  An attempt keeps one
partial sum, over its term budget, and the next attempt extends it only at
the same scale: a new scale starts over at k = 1.  q's drift test itself
sums the rest of the doubled budget.  The term sums are reduced in ascending
k order, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import DomainError, Frozen, NonCertifiedError, check_size

RESIDUAL_BITS = 2  # 2^-2; the residual bound of q's drift test and verify's residual row
STABILITY_BITS = 4  # q's tail moves by less than 2^-4 under a doubled term budget
RESOLUTION_GUARD_BITS = 16  # fractional bits q's raw value must still carry
MAX_ESCALATIONS = 4
P_C, Q_C = 2, 1  # the constants c of p's and q's series: their largest term is e^(pi sqrt(c n/3))


class Dyadic(Frozen):
    """The exact binary fraction man * 2^exp, read only: the value type of a
    report's raw_value and residual.  It converts with float() and carries
    mpmath's normalized _mpf_ tuple, so mpmath.mpf(x) is exact at a working
    precision of at least its bit count and mpmath.mp.nstr(x, d) prints it
    as nstr(x, d) does here.  man and exp are plain ints; two Dyadics are
    equal when both are."""

    def __init__(self, man: int, exp: int):
        if type(man) is not int or type(exp) is not int:  # bool is no field
            raise DomainError(f"Dyadic needs int man and exp, got {man!r}, {exp!r}")
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)

    @property
    def _mpf_(self) -> tuple[int, int, int, int]:
        if not self.man:
            return (0, 0, 0, 0)
        man = abs(self.man)
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        return (int(self.man < 0), man, self.exp + zeros, man.bit_length())

    def __float__(self) -> float:
        if self.exp >= 0:
            return float(self.man << self.exp)
        return self.man / (1 << -self.exp)  # int division rounds correctly


class SeriesEvalReport(NamedTuple):
    n: int
    k_terms_used: int
    precision_bits: int
    raw_value: Dyadic
    rounded: int
    residual: Dyadic
    certified: bool


def nstr(x: Dyadic, dps: int) -> str:
    """x to dps >= 1 significant digits, as mpmath.mp.nstr(x, dps) prints
    it: a port of mpmath's libmpf.to_str and to_digits_exp.  Past 2^3500
    (or below 2^-3500) mpmath scales by a power of ten rounded to about
    3.3 (dps + 3) + 10 bits, and this port scales exactly; the two can
    differ only when the digits after the (dps + 3)-th sit that close to
    a run of zeros or nines.  A dps below 1 is refused."""
    check_size(dps, 1, "nstr needs dps")
    sign, man, exp, bc = x._mpf_
    if not man:
        return "0.0"
    if abs(exp + bc) > 3500:
        # ten to the power b, b a little below the decimal exponent, divides
        # out exactly, leaving dps + 4 or more digits; the fixed-point digits
        # of a value past 10^4300 would pass CPython's int-to-str digit limit
        b = int((exp + bc) * 0.30102999566398120) - dps - 5
        num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
        num, den = (num, den * 10**b) if b >= 0 else (num * 10**-b, den)
        digits = str(num // den)
        exponent = b + len(digits) - 1
    else:
        bitprec = int((dps + 3) * math.log(10, 2)) + 10
        fixprec = max(bitprec - exp - bc, 0)
        fixdps = int(fixprec / math.log(10, 2) + 0.5)
        offset = exp + fixprec
        fixed = man << offset if offset >= 0 else man >> -offset
        digits = str(fixed * 10**fixdps >> fixprec)
        exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        rounded = str(int(digits[:dps]) + 1)  # a carry through nines adds a digit
        exponent += len(rounded) - dps
        digits = rounded[:dps]
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:  # fixed point near unit magnitude
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    text = "-" * sign + digits
    if exponent == 0:
        return text
    return f"{text}e{exponent:+d}"


# The kernels.  Each takes and returns integers at stated scales; an input
# t at scale s stands for the exact binary fraction t/2^s, and each bound
# is strict and holds for every scale V >= 1.

_pi_memo = (0, 0)  # (scale, pi at that scale), the largest scale asked so far


def _pi(V: int) -> int:
    """pi at scale V, within 1 unit.

    Machin: pi = 16 atan(1/5) - 4 atan(1/239), each atan(1/x) summed to
    the first zero term at scale W = V + G.  Every power floor(2^W/x^(2j+1))
    comes out exact by repeated floor division, so a term with weight w is
    within |w| + 1 units, and an alternating tail is below its first term,
    under |w| units.  With J_x <= W/(2 log2 x) + 1 terms, the sum is within
    17 J_5 + 5 J_239 + 20 < 5W + 40 < 2^(G-1) units, and rounding it to
    scale V adds at most 1/2.  A memo keeps the largest scale asked for,
    and rounding that value to a smaller scale stays within 1 unit.
    """
    global _pi_memo
    scale, value = _pi_memo
    if V > scale:
        G = (V + 64).bit_length() + 4
        W = V + G
        total = 0
        for weight, x in ((16, 5), (-4, 239)):
            power, j, x2 = (1 << W) // x, 1, x * x
            while power:
                total += weight * power // j if j % 4 == 1 else -(weight * power // j)
                power //= x2
                j += 2
        scale, value = _pi_memo = V, (total + (1 << (G - 1))) >> G
    shift = scale - V
    return value if shift == 0 else (value + (1 << (shift - 1))) >> shift


def _exp(t: int, shift: int, V: int) -> int:
    """e^tau at scale V, within 1 unit, for tau = t/2^shift >= 0.

    With s = max(0, bitlen(t) - shift) + 8, rho = tau/2^s < 2^-8.  The
    Taylor terms of e^rho at scale M = V + G, a_j = floor(a_(j-1) rho/j),
    are floors of exact products, each at most 2 units under its exact
    value, and the tail past the first zero term is under 1 unit; so
    0 <= e^rho 2^M - sum < 2J + 1 with J <= M/8 + 1 terms.  Squaring s times,
    T <- floor(T^2/2^M), keeps T below the exact value X_i, and its deficit
    d obeys d' <= 2 e^(rho 2^i) d + 1, so d_s <= 2^s e^tau (2J + 1 + s).
    G = 2s + bitlen(V + 64) + 16 + E, with 2^E > e^tau, makes d_s < 2^(G-1),
    and rounding to scale V adds at most 1/2.
    """
    s = max(0, t.bit_length() - shift) + 8
    G = 2 * s + (V + 64).bit_length() + 16 + ((3 * t) >> (shift + 1)) + 1
    M = V + G
    reduced = shift + s
    term = total = 1 << M
    j = 1
    while term:
        term = (term * t >> reduced) // j
        total += term
        j += 1
    for _ in range(s):
        total = total * total >> M
    return (total + (1 << (G - 1))) >> G


def _cosh_sinh(t: int, shift: int, V: int) -> tuple[int, int]:
    """2 cosh(tau) and 2 sinh(tau) at scale V, each within 4 units, for
    tau = t/2^shift >= 0, from one exp.

    e = _exp is within 1 unit of X = e^tau 2^V >= 2^V.  Then
    |2^(2V)/e - 2^(2V)/X| < 2^(2V)/((X - 1) X) <= 2, so the floor of
    2^(2V)/e is within 3 units of e^-tau 2^V, and their sum and difference
    within 4.
    """
    e = _exp(t, shift, V)
    inverse = (1 << 2 * V) // e
    return e + inverse, e - inverse


def _cos_pi(a: int, b: int, V: int) -> int:
    """cos(pi a/b) at scale V, within 1 unit, for integers a and b > 0.

    a/b is reduced exactly: r = a mod 2b, then r = min(r, 2b - r) as cos is
    even, then r = min(r, b - r) with the sign flipped when 2r > b, as
    cos(pi - u) = -cos u; so theta = pi r/b <= pi/2.  At scale M = V + G,
    theta is within 3/2 units (pi within 1, times r/b <= 1/2, and a floor),
    and cos moves by no more than theta does.  x = floor(theta^2) at scale M
    is within 1 unit of theta^2, and |d cos(sqrt x)/dx| <= 1/2, so that
    adds 1/2.  The powers p_i = floor(p_(i-1) x/(2i (2i-1))), p_0 = 2^M,
    are floors of exact products; with x < 5/2 each falls short of its
    exact value by e_i < e_(i-1) x/(2i (2i-1)) + 1 < 2, and the alternating
    tail past the first zero power p_J is below that term's exact value
    times 5/24, under 1.  So the sum is within 2J + 3 units, and as every
    ratio past the first is below 1/4, J <= M/2 + 2: under M + 7 < 2^(G-4)
    units, a sixteenth of a unit of scale V with G = bitlen(V) + 8, and
    rounding to scale V adds at most 1/2.
    """
    r = a % (2 * b)
    r = min(r, 2 * b - r)
    flip = 2 * r > b
    r = min(r, b - r)
    G = V.bit_length() + 8
    M = V + G
    theta = _pi(M) * r // b
    x = theta * theta >> M
    power = total = 1 << M
    j = 2
    while power:
        power = (power * x >> M) // (j * (j - 1))
        total += -power if j & 2 else power
        j += 2
    c = (total + (1 << (G - 1))) >> G
    return -c if flip else c


def _bessel_F(t: int, shift: int, V: int) -> int:
    """F(tau) = sum over j >= 0 of tau^j/(j! (j+1)!) at scale V, within 1
    unit, for tau = t/2^shift >= 0.  F(tau) = I_1(2 sqrt(tau))/sqrt(tau), so
    I_1(z) = (z/2) F(z^2/4): the power series of I_1, all terms positive.

    F(tau) <= (sum of tau^(j/2)/j!)^2 = e^(2 sqrt tau) < 2^E with
    E = 3 (isqrt(floor tau) + 1).  At scale M = V + G the terms
    T_j = floor(T_(j-1) tau/(j (j+1))) are floors of exact products, each
    short of its exact value by e_j <= e_(j-1) r_j + 1, r_j = tau/(j (j+1)).
    While r_j >= 1 the exact terms grow from 2^M, so e_j <= j T_j/2^M; after
    that e_j <= e_(i*) T_j/T_(i*) + (j - i*).  The sum of the e_j is then at
    most J F + J^2 units.  The loop stops at the first zero term with
    j (j+1) >= 4 (floor tau + 1), after which r_j < 1/4, so the tail is
    under (J F + J + 1)/3.  In all, the sum is within 2J (F + J) units,
    J < Jmax = 2 isqrt(floor tau) + 2E + V + 64, below 2^(G-1) with
    G = E + 2 bitlen(Jmax) + 4; rounding to scale V adds at most 1/2.
    """
    whole = t >> shift
    E = 3 * (math.isqrt(whole) + 1)
    G = E + 2 * (2 * math.isqrt(whole) + 2 * E + V + 64).bit_length() + 4
    M = V + G
    term = total = 1 << M
    j = 1
    while term or j * (j + 1) < 4 * (whole + 1):
        term = (term * t >> shift) // (j * (j + 1))
        total += term
        j += 1
    return (total + (1 << (G - 1))) >> G


def _A_real(k: int, n: int, V: int) -> int:
    """Selberg's sum C_k(n), the sum of (-1)^l cos(pi (6l+1)/(6k)) over l mod
    2k with (3l^2 + l)/2 = -n (mod k), at scale V: within one unit per such
    l, so within 2k units.  A_k(n) = sqrt(k/3) C_k(n) (Johansson, "Efficient
    implementation of the Hardy-Ramanujan-Rademacher formula", 2012, sec.
    2); the p series uses C_k itself.  Only a few l qualify, so a term costs
    a few cosines and no Dedekind sum.  Each cosine is _cos_pi's, within
    one unit, and the signed sum of integers adds no error.  C_1 = sqrt 3.
    """
    total = 0
    for l in range(2 * k):
        if ((3 * l * l + l) // 2 + n) % k == 0:
            c = _cos_pi(6 * l + 1, 6 * k, V)
            total += -c if l & 1 else c
    return total


def _inner_real(k: int, n: int, V: int) -> int:
    """Real value of the odd-k exponential sum in the distinct-count series,
    S_k(n) = sum over h of e^{pi i (t(h,k) - 2nh/k)}, at scale V, within 1
    unit: a Kloosterman sum, summed with no Dedekind sum.

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
    e((a/h + bh)/m) over h coprime to m.  Estermann's bound,
    |K(a, b; m)| <= d(m) sqrt(gcd(a, b, m) m) with d(m) the number of
    divisors of m, gives |S_k(n)| <= d(k) sqrt(k): the first argument is a
    unit mod m, and when 3 | k, d(3k)/sqrt(3) <= (3/2) d(k)/sqrt(3) < d(k).
    Terms h and k - h are conjugate, and b and m - b share a cosine, so
    S_k(n) is 2 (2/k) times the sum over coprime h < k/2 of cos(2 pi j/m),
    j = min(b_h, m - b_h) <= m/2: the sum over j = 0..m/2 of
    c_j cos(2 pi j/m), c_j the histogram of the j, filled from one modular
    inverse per unit h (a unit mod k is one mod m, as m has k's primes) and
    summed from one cosine per k and one P-bit product per j.

    Error bound, with u = 2^-P, alpha = 2 pi/m and t = m//2.  Clenshaw's
    recurrence b_j = c_j + 2y b_(j+1) - b_(j+2), from b_(t+1) = b_(t+2) = 0,
    has the solution b_j = sum over i >= j of c_i U_(i-j)(y), so b_0 - y b_1
    is the sum of c_i T_i(y), as T_i = U_i - y U_(i-1) (Chebyshev's
    polynomials T and U); at y = cos alpha that is the sum of
    c_j cos(j alpha).  The loop runs it on integers at scale P with y = Cu,
    C = _cos_pi(2, m, P) within one unit, so |y - cos alpha| < u and y lies
    in (0, 1], as m >= 5.  With each step's floor the loop's integers B_j
    obey the recurrence at y exactly as B_j u, with c_j - delta_j u,
    0 <= delta_j < 1, in place of c_j, so the result is the sum of
    (c_j - delta_j u) T_j(y) less one more floor: as |T_j(y)| <= 1, the
    floors add less than (t + 2) u.
    T_j' = j U_(j-1) and |U_(j-1)| <= j on [-1, 1], so
    |T_j(y) - T_j(cos alpha)| <= j^2 u.  The counts sum to at most k/2 and
    j <= t <= m/2, so the doubled sum is off by less than
    (k m^2/4 + m + 4) u < 2^(bitlen(k) + 2 bitlen(m)) u: under a quarter
    of a unit of scale V at P = V + 2 + bitlen(k) + 2 bitlen(m), and
    rounding to scale V adds at most 1/2.

    At k = 1 the sum over proper fractions h/k is empty; it takes the single
    h = 0 term, exactly 1, so the first series term does not vanish.
    """
    if k == 1:
        return 1 << V
    m = 3 * k if k % 3 == 0 else k
    unit = pow(24 * k // m, -1, m)
    c, d = unit * (m + 1) // 2 % m, (unit + m // k * n) % m  # b_h = c/h - d h
    counts = [0] * (m // 2 + 1)
    for h in range(1, k // 2 + 1):
        if math.gcd(h, k) == 1:
            j = (c * pow(h, -1, m) - d * h) % m
            counts[min(j, m - j)] += 1
    P = V + 2 + k.bit_length() + 2 * m.bit_length()
    C = _cos_pi(2, m, P)
    b1 = b2 = 0  # Clenshaw's b_j and b_(j+1), at scale P
    for count in reversed(counts):
        b1, b2 = (count << P) + (C * b1 >> P - 1) - b2, b1
    total = b1 - (C * b2 >> P)
    shift = P - V - 1  # the sum is doubled
    return ((total if k % 8 in (1, 7) else -total) + (1 << (shift - 1))) >> shift


def default_k_terms(n: int) -> int:
    """ceil(8 sqrt(n)) + 16."""
    root = math.isqrt(64 * n)
    if root * root < 64 * n:
        root += 1
    return root + 16


def _magnitude(n: int, c: int) -> int:
    # bits of e^(pi sqrt(c n/3)), the largest term's size: c = P_C for p's series, Q_C for q's
    return int(math.pi * math.sqrt(c * n / 3) / math.log(2)) + 1


def default_bits(n: int, c: int) -> int:
    # 64 guard bits over the bit length of the value being summed to
    return max(128, _magnitude(n, c) + 63)


def _scale(n: int, bits: int, c: int) -> int:
    """The scale V of a series' sum at a working precision of bits: the fraction
    bits that bits-bit floats hold at the size of its largest term (at least 1)."""
    return max(bits - _magnitude(n, c), 1)


def _p_bounds(n: int, k_terms: int, bits: int) -> tuple[int, int]:
    """Upper bounds on the two errors of p's partial sum through
    k <= N = k_terms at bits of working precision, as integers in units of
    2^-bits: its tail past N and its evaluation error.  Both come from
    integer operations only.

    Write x = pi sqrt(24n - 1)/6 and g(y) = cosh y - sinh(y)/y.  Rademacher's
    series is p(n) = (4/(24n - 1)) times the sum over k of C_k(n) g(x/k),
    with C_k = A_k sqrt(3/k) Selberg's cosine sum (_A_real): its k-th term,
    (1/(pi sqrt 2)) sqrt(k) A_k (c0/k) g(x/k)/(2m) with m = n - 1/24 and
    c0 = pi sqrt(2/3), is this one, as c0/(pi sqrt 2) = 1/sqrt 3 and
    1/(6m) = 4/(24n - 1).

    Tail.  Three facts bound it: |A_k(n)| <= phi(k) < k for k > 1; the
    power series of g(y), sum over j >= 1 of 2j y^(2j)/(2j+1)!, is termwise
    at most that of (y^2/3) cosh y; and sum over k > N of k^(-3/2) is at
    most the integral of t^(-3/2) from N on, 2/sqrt(N).  With
    cosh(x/k) <= cosh(x/N) for k > N, for every n >= 1
        |p(n) - partial sum| <= 2 pi^2 cosh(x/N)/(9 sqrt(3N)),
    where 2 pi^2/(9 sqrt 3) is about 1.2663.  Each factor is rounded the way
    that enlarges the quotient, so it stays an upper bound at any scale T;
    T = 128 + _magnitude(n, P_C) // N holds about 128 bits past the integer
    part of cosh(x/N) < 2^(_magnitude(n, P_C)/N), whatever bits is.
    * pi: _pi is within 1 unit, so _pi(T) + 1 is above pi 2^T.
    * x/N: isqrt((24n - 1) 2^(2T)) + 1 is above sqrt(24n - 1) 2^T, so their
      product over 6 2^T, rounded up, and that over N, rounded up, give
      t >= (x/N) 2^T.
    * cosh: _cosh_sinh is within 4 units, so _cosh_sinh(t, T, T) + 4 is
      above 2 cosh(t/2^T) 2^T, and as cosh rises on [0, inf) that is at
      least 2 cosh(x/N) 2^T.
    * sqrt(3N): isqrt(3N 2^(2T)) is at most sqrt(3N) 2^T.
    The quotient is then taken in units of 2^-bits, rounded up (_p_tail).

    Early tail.  Once the tail is surely at least 1, its size no longer
    matters: the certificate fails and needs asks for more terms whatever
    it is.  With y = x/N, cosh y >= e^y/2 and pi^2/9 > 1 make the tail at
    least e^y/sqrt(3N), which is at least 1 when y log2(e) >= bitlen(3N)/2;
    pi > 333/106, sqrt(24n - 1) >= isqrt(24n - 1) and log2(e) > 14426/10^4
    turn that into one integer comparison.  Then pi < 355/113,
    sqrt(24n - 1) < isqrt(24n - 1) + 1 and log2(e) < 14427/10^4 give an
    integer E >= y log2(e), so cosh y <= e^y <= 2^E, and the tail is below
    1.27 2^E.  _p_tail rounds each factor within a relative 2^-100 of it and
    the quotient up by 1 unit, so 2^(E+1) is at least what _p_tail returns,
    without a cosh of E bits.

    Evaluation error.  _p_series sums terms each within 2 units of
    2 C_k g(x/k) 2^V, V = _scale(n, bits, P_C) <= bits (its docstring proves
    it), so their sum S is within 2N units, and raw = floor(2S/(24n - 1))
    is within 4N/(24n - 1) + 1 units of scale V of the partial sum.
    """
    root = math.isqrt(24 * n - 1)  # y = pi sqrt(24n - 1)/(6N)
    if 2 * 333 * 14426 * root >= 106 * 6 * 10**4 * k_terms * (3 * k_terms).bit_length():  # the early tail
        E = -(-355 * 14427 * (root + 1) // (113 * 6 * 10**4 * k_terms))
        tail = 1 << bits + E + 1
    else:
        tail = _p_tail(n, k_terms, bits)
    return tail, 4 * k_terms // (24 * n - 1) + 2 << bits - _scale(n, bits, P_C)


def _p_tail(n: int, k_terms: int, bits: int) -> int:
    """The tail bound of _p_bounds, 2 pi^2 cosh(x/N)/(9 sqrt(3N)) in units of
    2^-bits, from one cosh at scale T."""
    T = 128 + _magnitude(n, P_C) // k_terms
    pi = _pi(T) + 1  # pi 2^T rounded up
    x = -(-pi * (math.isqrt((24 * n - 1) << 2 * T) + 1) // (6 << T))  # x 2^T rounded up
    cosh2 = _cosh_sinh(-(-x // k_terms), T, T)[0] + 4  # 2 cosh(x/N) 2^T rounded up
    divisor = 9 * math.isqrt((3 * k_terms) << 2 * T) << 2 * T
    return -(-(pi * pi * cosh2 << bits) // divisor)


def _p_series(n: int, k_terms: int, bits: int):
    """The p series' raw value of a sum, term(k), its k <= k_terms and its
    certificate, at the working precision bits.  The certificate is a proof:
    |p(n) - raw| <= tail + error (_p_bounds), so tail + error + residual <
    1/2 makes the nearest integer p(n).  A failure means tail + error >= 1/4,
    since the residual is at most tail + error, so at least one of the two
    is 1/8 or more: needs asks for more terms when the tail is and for more
    bits when the error is, and for both if neither is (which the bounds rule
    out), so that a failure always asks for more.

    term(k) is within 2 units of 2 C_k g(y) 2^V, y = x/k (see _p_bounds):
    * x is held at scale U.  pi and sqrt(24n - 1) are within 1 unit, so
      X = floor(pi sqrt(24n - 1)/6) is within sqrt(24n - 1)/6 + 2 < D - 1
      units, D = isqrt(24n) + 5, and Y = floor(X/k) within D.
    * At scale beta = b + h, _cosh_sinh gives 2 cosh and 2 sinh of
      y' = Y/2^U within 4 units, the division by y' adds 4/y' + 1 <=
      2^(h-3) + 1 as h = bitlen(4/y') + 3, and the shift to scale b brings
      2 g(y') within 2 units.  0 <= g' <= sinh, so 2 g(y') is within
      2 D 2^-U e^(y'+D 2^-U) 2^b < 1 unit of 2 g(y), as e^y' < 2^(E+1),
      E = _magnitude(n, P_C), and U >= b + E + bitlen(D) + 3 for k < 2^40.
      So G = 2 g 2^b is held within 3 units.
    * C = _A_real at scale a is within 2k units, and |C| <= 2k (2^a + 1).
      The product is off by at most |C| 3 + (G + 3) 2k units of scale
      a + b: below 3/8 of a unit of scale V as b = V + bitlen(2k) + 4, plus
      at most 1/2 as a + b - V >= bitlen(G + 3) + bitlen(4k).  The shift to
      scale V adds at most 1.
    """
    V = _scale(n, bits, P_C)
    D = math.isqrt(24 * n) + 5
    U = V + _magnitude(n, P_C) + D.bit_length() + 48
    X = _pi(U) * math.isqrt((24 * n - 1) << 2 * U) // (6 << U)

    def term(k):
        y = X // k
        b = V + (2 * k).bit_length() + 4
        h = ((4 << U) // y).bit_length() + 3
        cosh2, sinh2 = _cosh_sinh(y, U, b + h)
        g = (cosh2 - (sinh2 << U) // y) >> h
        a = max(V - b + (g + 3).bit_length() + (4 * k).bit_length(), 1)
        return _A_real(k, n, a) * g >> (a + b - V)

    def value(total):
        return Dyadic(2 * total // (24 * n - 1), -V)

    def needs(raw, residual, total):
        tail, error = _p_bounds(n, k_terms, bits)
        if tail + error + (residual.man << bits - V) < 1 << (bits - 1):
            return False, False
        terms, precision = 8 * tail >= 1 << bits, 8 * error >= 1 << bits
        return (terms, precision) if terms or precision else (True, True)

    return value, term, range(1, k_terms + 1), needs


def _q_series(n: int, k_terms: int, bits: int):
    """The q series' raw value of a sum, term(k), its odd k <= k_terms and
    its certificate, the drift test, which sums the doubled budget itself,
    at the working precision bits.

    With y_k = (z/(2k))^2 = pi^2 (24n+1)/(288 k^2) and F = _bessel_F,
    I_1(z/k) = (z/(2k)) F(y_k), so the series is q(n) = (pi^2 sqrt2/24)
    times the sum over odd k of S_k(n) F(y_k)/k^2.  Each term is summed at
    scale V + bitlen(2N) + 4, V = _scale(n, bits, Q_C), from
    F at a scale that covers k^2 and S_k at one that covers F.
    """
    E = _magnitude(n, Q_C)
    V = _scale(n, bits, Q_C) + (2 * k_terms).bit_length() + 4
    U = V + E + 8
    pi = _pi(U)
    Y = pi * pi * (24 * n + 1) // (288 << U)  # y_1 2^U
    K = pi * pi * math.isqrt(2 << 2 * U) // (24 << 2 * U)  # pi^2 sqrt2/24 2^U

    def term(k):
        d = V + k.bit_length() + 4
        F = _bessel_F(Y // (k * k), U, d)
        c = max(V - d + F.bit_length() + 4, 1)
        return _inner_real(k, n, c) * F // (k * k << (c + d - V))

    def value(total):
        return Dyadic(K * total >> U, -V)

    def needs(raw, residual, total):
        # A residual of 0 is meaningless when the working precision cannot
        # even represent the fractional part at this magnitude, so insist
        # on a margin of usable bits below the integer scale.  Only then are
        # the odd k past the budget summed, up to the doubled one, which
        # reaches one even at k_terms = 1 so that the test never compares a
        # sum with itself.  It cannot tell which budget fell short: a failure
        # grows both.
        failed = not (
            residual.man << RESIDUAL_BITS < 1 << V
            and bits - (raw.man.bit_length() - V) >= RESOLUTION_GUARD_BITS
        )
        if not failed:
            total += sum(term(k) for k in range((k_terms + 1) | 1, max(2 * k_terms, 3) + 1, 2))
            failed = abs(value(total).man - raw.man) << STABILITY_BITS >= 1 << V
        return failed, failed

    return value, term, range(1, k_terms + 1, 2), needs  # odd k only


def _certify(name: str, n: int, k_max, precision_bits, c: int, series) -> SeriesEvalReport:
    """Sum the series in ascending k over its k <= k_terms, round the sum,
    and hold it to the series' certificate, needs(raw, residual, total) with
    total the partial sum, which says whether more terms and whether more
    bits are needed; a failed one doubles the term budget, the precision or
    both, as it asks, and tries again.  Each attempt keeps its partial sum
    and scale, the exponent of value's result; a next attempt at that scale
    adds only the terms past the old budget, still in ascending k, and a new
    scale starts over at k = 1.  The series constant c of _magnitude sets
    the default bits."""
    check_size(n, 1, f"{name} needs n")
    k_terms = default_k_terms(n) if k_max is None else k_max
    bits = default_bits(n, c) if precision_bits is None else precision_bits
    check_size(k_terms, 1, "k_max must be")
    check_size(bits, 64, "precision_bits must be")
    if k_terms >> 36:  # so that four doublings keep k < 2^40, where _p_series's error analysis holds
        raise DomainError(f"k_max must be below 2**36, got {k_terms}")
    kept = None, 0, 0  # scale, k_terms and partial sum of the last attempt
    for _ in range(MAX_ESCALATIONS + 1):
        value, term, ks, needs = series(n, k_terms, bits)
        done, total = kept[1:] if kept[0] == value(0).exp else (0, 0)
        total += sum(term(k) for k in ks if k > done)
        raw = value(total)
        # the nearest integer, ties to even
        nearest, rest = divmod(raw.man, 1 << -raw.exp)
        if 2 * rest > 1 << -raw.exp or (2 * rest == 1 << -raw.exp and nearest & 1):
            nearest += 1
        residual = Dyadic(abs(raw.man - (nearest << -raw.exp)), raw.exp)
        more_terms, more_bits = needs(raw, residual, total)
        kept = raw.exp, k_terms, total
        certified = not (more_terms or more_bits)
        report = SeriesEvalReport(n, k_terms, bits, raw, nearest, residual, certified)
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
    return _certify("rademacher_p", n, k_max, precision_bits, P_C, _p_series)


def hagis_q(n: int, k_max: int | None = None, precision_bits: int | None = None) -> SeriesEvalReport:
    """Certified evaluation of the convergent series for the distinct-part
    partition count q(n).

    q(n) = (pi / sqrt(24n+1)) sum_{k odd} k^-1 (sum_h e^{pi i (t(h,k) - 2nh/k)})
    I_1(pi sqrt(48n+2) / (12k)), with the k = 1 inner sum taken as its
    single h = 0 term.  The drift test of the module docstring certifies it,
    summing the doubled budget itself, not a proven bound as rademacher_p's.
    """
    return _certify("hagis_q", n, k_max, precision_bits, Q_C, _q_series)
