"""The integer fixed-point kernels of the series and the exact binary
fraction a report carries, each held to mpmath.

A kernel returns an integer at a stated scale V, standing for value/2^V,
and its docstring states a strict bound on the distance in units of 2^-V.
The references run at four times the kernel's working bits; the
exponential sums are held to the direct sums of fibcomp.reference."""

import math
import random
from fractions import Fraction

from mpmath import mp

from fibcomp import analytic, reference
from fibcomp.analytic import Dyadic

SCALES = (1, 2, 5, 33, 64, 128, 257, 600)


def _units(got: int, want, V: int):
    """|got - want 2^V|, computed in the current mpmath context."""
    return abs(mp.mpf(got) - mp.ldexp(want, V))


def _dyadic(value) -> Dyadic:
    """A float or an int as the Dyadic of the same value."""
    num, den = Fraction(value).as_integer_ratio()
    return Dyadic(num, 1 - den.bit_length())


class TestKernels:
    def test_pi_within_one_unit(self, monkeypatch):
        rng = random.Random(1)
        for V in (*SCALES, *rng.sample(range(3, 3000), 40)):
            monkeypatch.setattr(analytic, "_pi_memo", (0, 0))  # Machin's sum, not the memo
            got = analytic._pi(V)
            with mp.workprec(4 * V + 64):
                assert _units(got, mp.pi, V) < 1, V
        # rounded down from a memo at a larger scale
        analytic._pi(4000)
        for V in (*SCALES, *rng.sample(range(3, 4000), 40)):
            with mp.workprec(4 * V + 64):
                assert _units(analytic._pi(V), mp.pi, V) < 1, V

    def test_exp_cosh_sinh_within_their_bounds(self):
        rng = random.Random(2)
        cases = [(0, 0, V) for V in SCALES] + [(1, 0, V) for V in SCALES]
        for _ in range(400):
            shift = rng.randint(0, 300)
            top = rng.choice((1, 4, 64, 700))  # tau below top
            cases.append((rng.randrange(top << shift), shift, rng.choice(SCALES)))
        for t, shift, V in cases:
            size = V + 2 * (t >> shift) + 8  # bits of e^tau 2^V
            with mp.workprec(4 * size + 64):
                tau = mp.ldexp(t, -shift)
                assert _units(analytic._exp(t, shift, V), mp.exp(tau), V) < 1, (t, shift, V)
                cosh2, sinh2 = analytic._cosh_sinh(t, shift, V)
                assert _units(cosh2, 2 * mp.cosh(tau), V) < 4, (t, shift, V)
                assert _units(sinh2, 2 * mp.sinh(tau), V) < 4, (t, shift, V)

    def test_cos_of_rational_multiples_of_pi_within_one_unit(self):
        rng = random.Random(3)
        cases = [(a, b, V) for V in SCALES for a, b in ((0, 1), (1, 2), (1, 4), (3, 4), (1, 6), (7, 6), (-5, 3))]
        # a = 0, b/2, b and 3b/2 (mod 2b), where the reduction meets its
        # edges, from either side of 0 and at b = 1
        for b in (1, 2, 3, 6, 999_998):
            for a in (0, b // 2, b, 3 * b // 2, -b // 2, -b, -3 * b // 2, 5 * b // 2, -7 * b):
                cases += [(a + e, b, V) for e in (-1, 0, 1) for V in SCALES]
        for _ in range(600):
            b = rng.choice((rng.randint(1, 12), rng.randint(1, 10**6)))
            cases.append((rng.randint(-3 * b, 3 * b), b, rng.choice(SCALES)))
        for a, b, V in cases:
            got = analytic._cos_pi(a, b, V)
            with mp.workprec(4 * V + 64):
                assert _units(got, mp.cospi(mp.mpf(a) / b), V) < 1, (a, b, V)

    def test_bessel_series_within_one_unit(self):
        # F(tau) = I_1(2 sqrt tau)/sqrt tau; tau = 3000 is z = 110
        rng = random.Random(4)
        cases = [(0, 0, V) for V in SCALES] + [(1, 0, V) for V in SCALES]
        for _ in range(300):
            shift = rng.randint(0, 200)
            top = rng.choice((1, 30, 300, 3000))
            cases.append((rng.randrange(top << shift), shift, rng.choice(SCALES)))
        for t, shift, V in cases:
            size = V + 3 * math.isqrt(t >> shift) + 8  # bits of F(tau) 2^V
            with mp.workprec(4 * size + 64):
                tau = mp.ldexp(t, -shift)
                want = mp.besseli(1, 2 * mp.sqrt(tau)) / mp.sqrt(tau) if t else mp.mpf(1)
                assert _units(analytic._bessel_F(t, shift, V), want, V) < 1, (t, shift, V)


class TestExponentialSums:
    # each sum held to its docstring's bound at scales 64, 128 and 512
    # against fibcomp.reference's direct complex sums, which run at 576 bits:
    # each of their k cosines is within 2^-576, far below a unit
    SUM_SCALES = (64, 128, 512)

    def test_hagis_sum_within_one_unit(self):
        # 333 = 9*37, 999 = 27*37 and 2187 = 3^7 sum cosines of 2 pi j/(3k);
        # 1147 = 31*37, 2053 (prime) and 2201 = 31*71 of 2 pi j/k.  n up to
        # 10^6 wraps 24nh many times around 24k
        rng = random.Random(7)
        cases = [(k, n) for k in range(1, 60, 2) for n in (0, 1, 45, 331)]
        cases += [(k, n) for k in (333, 999, 1147, 2053, 2187, 2201) for n in (2, 10**6)]
        cases += [(rng.randrange(61, 2200, 2), rng.randint(0, 10**6)) for _ in range(10)]
        for k, n in cases:
            want = reference._direct_sum(reference.hagis_t, k, n, 576)
            for V in self.SUM_SCALES:
                with mp.workprec(576):
                    assert _units(analytic._inner_real(k, n, V), want, V) < 1, (k, n, V)

    def test_selberg_sum_within_one_unit_per_root(self):
        # C_k = A_k sqrt(3/k), within one unit per l mod 2k with
        # (3l^2 + l)/2 = -n (mod k); with no such l it is exactly 0
        rng = random.Random(8)
        cases = [(k, n) for k in range(1, 41) for n in (0, 1, 2, 45, 331)]
        cases += [(rng.randint(41, 1200), rng.randint(0, 10**6)) for _ in range(30)]
        for k, n in cases:
            roots = sum(((3 * l * l + l) // 2 + n) % k == 0 for l in range(2 * k))
            with mp.workprec(576):
                want = reference.kloosterman_A(k, n, 576) * mp.sqrt(mp.mpf(3) / k)
                for V in self.SUM_SCALES:
                    got = analytic._A_real(k, n, V)
                    assert _units(got, want, V) < roots if roots else got == 0, (k, n, V)

    def test_hagis_sum_within_estermanns_bound(self):
        # |S_k(n)| <= d(k) sqrt(k), d(k) the number of divisors; s is within
        # one unit of S_k(n) 2^64, so (|s| - 1)^2 <= d(k)^2 k 2^128
        for n in (0, 10**6):
            for k in range(1, 1001, 2):
                s = analytic._inner_real(k, n, 64)
                divisors = sum(k % d == 0 for d in range(1, k + 1))
                assert max(abs(s) - 1, 0) ** 2 <= divisors**2 * k << 128, (k, n)


def _nstr_cases():
    rng = random.Random(5)
    values = [0, 1, -1, 7, 10, 999, -12345, 10**29, 10**30 - 1, 10**30, 10**31 + 1, 3**70, -(7**50)]
    values += [0.5, -0.25, 0.1, 1 / 3, 2.5e-5, 0.00606999, 0.999999, 9.9995, 99.95, 999.5]
    # carries through a run of nines into a new leading digit, at 3 and 30 digits
    values += [10**k - 1 for k in (4, 31, 32)] + [1 - 2.0**-40, 9.999999, -99.999999]
    # either side of the fixed and exponent layouts: exponents -10 | -9 and
    # 29 | 30 at 30 digits, -5 | -4 and 2 | 3 at 3 digits
    for e in (-11, -10, -9, -6, -5, -4, 1, 2, 3, 28, 29, 30, 31):
        values += [10.0**e, 10.0**e * (1 - 2.0**-50), 10.0**e * (1 + 2.0**-50)]
    dyadics = [_dyadic(v) for v in values]
    dyadics += [Dyadic(man, exp) for man, exp in ((3, -1), (-3, -1), (1 << 100, -100), (5, 200), (5, -200))]
    for e in range(-40, 41):  # magnitudes 1e-40 .. 1e40
        man = rng.getrandbits(100) | 1 << 99
        exp = math.floor(e * math.log2(10)) - 99
        dyadics += [Dyadic(man, exp), Dyadic(-man, exp)]
    for _ in range(2000):
        bits = rng.randint(64, 1024)
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        dyadics.append(Dyadic(rng.choice((man, -man)), rng.randint(-bits - 160, 160)))
    return dyadics


NSTR_CASES = _nstr_cases()


class TestDyadic:
    def test_nstr_prints_as_mpmath_does(self):
        for x in NSTR_CASES:
            for dps in (30, 3):
                assert analytic.nstr(x, dps) == mp.nstr(x, dps), (x, dps)

    def test_nstr_past_the_scaled_range(self):
        # beyond 2^3500 mpmath scales by a rounded power of ten, this port exactly
        rng = random.Random(6)
        for _ in range(50):
            man = rng.getrandbits(300) | 1 << 299
            x = Dyadic(man, rng.choice((1, -1)) * rng.randint(3300, 20000))
            for dps in (30, 3):
                assert analytic.nstr(x, dps) == mp.nstr(x, dps), (x, dps)

    def test_mpf_reads_mantissa_and_exponent_exactly(self):
        for x in NSTR_CASES:
            with mp.workprec(max(abs(x.man).bit_length(), 53)):
                y = mp.mpf(x)
            sign, man, exp, _ = y._mpf_
            assert y._mpf_ == x._mpf_
            assert (-man if sign else man) << max(exp - x.exp, 0) == x.man << max(x.exp - exp, 0)

    def test_float_rounds_to_nearest(self):
        for x in NSTR_CASES:
            if abs(x.man).bit_length() + x.exp <= 1024:  # past that both overflow
                assert float(x) == float(Fraction(x.man) * Fraction(2) ** x.exp), x
