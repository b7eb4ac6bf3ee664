"""Independent reference implementations used only by the test suite.

Everything here is written from the raw definitions, deliberately not
sharing code paths with the package: compositions come from separator
bitmasks, partitions from an ascending-part recursion, the p and q tables
from coin-change and 0/1-knapsack counts over the parts, the rational sums
from literal sawtooth products, the floating sums from mpmath complex
exponentials, I_1 from its power series at four times the precision, and
the residues of p(n) and q(n) at any n from Ramanujan's congruences and
Euler's pentagonal theorem.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache


def compositions_bitmask(n: int) -> set[tuple[int, ...]]:
    """All compositions of n, one per separator bitmask."""
    out = set()
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.add(tuple(parts))
    return out


def partitions_ascending(n: int, least: int = 1) -> set[tuple[int, ...]]:
    """All partitions of n as descending tuples, built smallest-part-first."""
    if n == 0:
        return {()}
    out = set()
    for part in range(least, n + 1):
        for rest in partitions_ascending(n - part, part):
            out.add(tuple(sorted(rest + (part,), reverse=True)))
    return out


def fib_list(upto: int) -> list[int]:
    values = [0, 1]
    while len(values) <= upto:
        values.append(values[-1] + values[-2])
    return values[: upto + 1]


def triangular(n: int) -> bool:
    m = 0
    while m * (m + 1) // 2 < n:
        m += 1
    return m * (m + 1) // 2 == n


def q_table_literal(upto: int) -> list[int]:
    """Distinct-count recurrence with the uncorrected linear shifts 3k-1, 3k+1."""
    values = [1]
    for n in range(1, upto + 1):
        total = 1 if triangular(n) else 0
        k = 1
        while 3 * k - 1 <= n:
            sign = 1 if k % 2 else -1
            term = values[n - (3 * k - 1)]
            if 3 * k + 1 <= n:
                term += values[n - (3 * k + 1)]
            total += sign * term
            k += 1
        values.append(total)
    return values


def q_table_corrected(upto: int) -> list[int]:
    """Same recurrence with the quadratic shifts k(3k-1), k(3k+1)."""
    values = [1]
    for n in range(1, upto + 1):
        total = 1 if triangular(n) else 0
        k = 1
        while k * (3 * k - 1) <= n:
            sign = 1 if k % 2 else -1
            term = values[n - k * (3 * k - 1)]
            if k * (3 * k + 1) <= n:
                term += values[n - k * (3 * k + 1)]
            total += sign * term
            k += 1
        values.append(total)
    return values


def p_table_coin_change(upto: int) -> list[int]:
    """p(0..upto) as coin change: the ways to make n from parts 1..upto,
    each usable any number of times."""
    values = [1] + [0] * upto
    for part in range(1, upto + 1):
        for n in range(part, upto + 1):
            values[n] += values[n - part]
    return values


def q_table_knapsack(upto: int) -> list[int]:
    """q(0..upto) as a 0/1 knapsack: the ways to make n from parts 1..upto,
    each used at most once (n runs downward so no part is reused)."""
    values = [1] + [0] * upto
    for part in range(1, upto + 1):
        for n in range(upto, part - 1, -1):
            values[n] += values[n - part]
    return values


# Ramanujan's congruences p(5j+4) = 0 (mod 5), p(7j+5) = 0 (mod 7) and
# p(11j+6) = 0 (mod 11): Proc. Cambridge Philos. Soc. 19 (1919), Math. Z. 9 (1921)
RAMANUJAN_RESIDUES = {5: 4, 7: 5, 11: 6}


def ramanujan_moduli(n: int) -> tuple[int, ...]:
    """The primes l in (5, 7, 11) that divide p(n) by Ramanujan's congruences."""
    return tuple(ell for ell, residue in RAMANUJAN_RESIDUES.items() if n % ell == residue)


def q_is_odd(n: int) -> bool:
    """Whether q(n) is odd: exactly when n = j(3j-1)/2 for an integer j.

    Mod 2, 1 + x^k = 1 - x^k, so the product of (1 + x^k) that counts
    distinct parts equals Euler's product of (1 - x^k), whose series has
    coefficients +-1 at the pentagonal numbers j(3j-1)/2 and 0 elsewhere.
    n = j(3j-1)/2 exactly when 24n + 1 = (6j-1)^2, and every square that is
    1 mod 24 has a root prime to 6, of the form +-(6j-1).
    """
    root = math.isqrt(24 * n + 1)
    return root * root == 24 * n + 1


def sawtooth_def(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


@cache  # pure; spares the exponential-sum oracles one O(k) sum per (h, k, n)
def dedekind_def(h: int, k: int) -> Fraction:
    return sum(
        (sawtooth_def(Fraction(j, k)) * sawtooth_def(Fraction(h * j, k)) for j in range(1, k)),
        Fraction(0),
    )


@cache
def hagis_def(h: int, k: int) -> Fraction:
    return sum(
        (
            sawtooth_def(Fraction(2 * j - 1, 2 * k)) * sawtooth_def(Fraction(h * (2 * j - 1), k))
            for j in range(1, k + 1)
        ),
        Fraction(0),
    )


def dedekind_loop(h: int, k: int) -> Fraction:
    """s(h, k) by one pass over j, each sawtooth product an integer over 4k^2.

    For 0 < j < k neither j/k nor hj/k is an integer (h coprime to k), so
    each sawtooth factor is a half-integer offset.
    """
    acc = 0
    r = 0
    for j in range(1, k):
        r += h
        if r >= k:
            r -= k
        acc += (2 * j - k) * (2 * r - k)
    return Fraction(acc, 4 * k * k)


def hagis_loop(h: int, k: int) -> Fraction:
    """t(h, k) for odd k by one pass over j, each product an integer over 4k^2.

    The j with k | (2j-1) contributes 0 through its first factor, so the
    integer form needs no special case for it.
    """
    acc = 0
    u = -h
    for j in range(1, k + 1):
        u += 2 * h
        u %= k
        acc += (2 * j - 1 - k) * (2 * u - k)
    return Fraction(acc, 4 * k * k)


def _exponential_sum_complex(rational, k: int, n: int, dps_bits: int):
    """Sum over h coprime to k (h = 0 alone at k = 1) of e^{pi i (rational(h, k) - 2nh/k)},
    as literal mpmath complex exponentials."""
    import math

    from mpmath import mp, mpc, exp, mpf, pi

    with mp.workprec(dps_bits):
        total = mpc(0)
        for h in range(k):
            if h == 0 and k != 1:
                continue
            if h and math.gcd(h, k) != 1:
                continue
            s = rational(h, k)
            angle = mpf(s.numerator) / s.denominator - mpf(2 * n * h) / k
            total += exp(mpc(0, 1) * pi * angle)
        return total


def kloosterman_complex(k: int, n: int, dps_bits: int = 256):
    """Dedekind exponential sum A_k(n) from the sawtooth definition of s."""
    return _exponential_sum_complex(dedekind_def, k, n, dps_bits)


def hagis_complex(k: int, n: int, dps_bits: int = 256):
    """Odd-k exponential sum of the distinct-count series from the sawtooth definition of t."""
    return _exponential_sum_complex(hagis_def, k, n, dps_bits)


def bessel_i1_series(z, bits: int):
    """I_1(z) for z >= 0 from its power series, the sum over m of
    (z/2)^(2m+1) / (m! (m+1)!), summed in mpf at 4 bits + 64 bits.  The
    terms grow until m is about z/2, so the sum stops only once they have
    begun to fall and one is below 2^-(4 bits + 64) of the running sum."""
    from mpmath import mp, mpf

    wide = 4 * bits + 64
    with mp.workprec(wide):
        half = mpf(z) / 2
        total = term = half
        if half == 0:
            return total
        eps = mpf(2) ** -wide
        m = 0
        while True:
            previous = term
            term = term * half * half / ((m + 1) * (m + 2))
            total += term
            if term < previous and term < eps * total:
                return total
            m += 1
