"""Independent references for the analytic layer's series kernels, which
verify and the tests hold them to; the series never call them.  sawtooth,
dedekind_s and hagis_t are exact, in Fractions: dedekind_s follows the
reciprocity law down Euclid's chain in O(log k) steps, and hagis_t is a
difference of two Dedekind sums.  _direct_sum, kloosterman_A and bessel_I1
evaluate their definitions in mpmath.  `fibcomp analytic` never loads
this module, nor fractions or mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import besseli, cospi, mp, mpf, sinpi

from .core import DomainError, ImaginaryResidueError, check_size


def sawtooth(x) -> Fraction:
    """x - floor(x) - 1/2 for non-integer x, 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def _check_coprime_args(h: int, k: int) -> None:
    check_size(k, 1, "k must be")
    if type(h) is not int or not 0 <= h < k:  # bool is no int
        raise DomainError(f"h must satisfy 0 <= h < k, got h={h!r}, k={k}")
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


def _direct_sum(rational, k: int, n: int, precision_bits: int):
    """Real part of the explicit complex sum of e^{pi i (rational(h, k) - 2nh/k)}
    over h coprime to k (h = 0 alone at k = 1), an mpmath mpf.  The imaginary
    part must cancel to below 2^(-precision_bits/2) or the evaluation is
    rejected.
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
            raise ImaginaryResidueError(f"imaginary residue {im} at k={k}, n={n}, bits={precision_bits}")
    return re


def kloosterman_A(k: int, n: int, precision_bits: int):
    """A_k(n) from its definition as an explicit complex sum over h coprime
    to k (see _direct_sum), an mpmath mpf.  The p series uses Selberg's
    formula (_A_real); this direct form is the reference it is checked
    against.
    """
    check_size(k, 1, "k must be")
    check_size(n, 0, "n must be")
    check_size(precision_bits, 64, "precision_bits must be")
    return _direct_sum(dedekind_s, k, n, precision_bits)


def bessel_I1(z, precision_bits: int):
    """Modified Bessel function of order 1, mpmath's besseli(1, z), with z
    read and the value rounded at precision_bits (pass a string to keep
    digits a float would lose).  It is the reference for the q series'
    own power series, _bessel_F.

    z must be at most 2^16.  besseli's cost grows with the size of z: about
    a millisecond at 2^16 and at 10^12, about a second at 10^1000, and no
    useful time at all at 10^100000.
    """
    check_size(precision_bits, 64, "precision_bits must be")
    with mp.workprec(precision_bits):
        z = mpf(z)
        if not mp.isfinite(z):  # besseli returns nan at nan and raises TypeError at inf
            raise DomainError(f"bessel_I1 needs a finite z, got {z}")
        if z < 0:
            raise DomainError("bessel_I1 is only evaluated at z >= 0")
        if z > 2**16:
            raise DomainError(f"bessel_I1 is only evaluated at z <= 2^16, got {z}")
        return besseli(1, z)
