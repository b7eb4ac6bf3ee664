"""Truncated formal power series over exact integers.

A TruncatedSeries holds coefficients for x^0..x^N; every operation is
exact integer arithmetic, and binary operations truncate to the smaller
operand order.  Infinite products are truncated to factors with exponent
at most N, which cannot disturb coefficients up to N since every dropped
factor is 1 + O(x^(N+1)).
"""

from __future__ import annotations

from typing import Iterable

from .core import DomainError, Frozen, check_size


class TruncatedSeries(Frozen):
    """x^0..x^N from a non-empty iterable of ints; monomial(power, order) gives x^power."""

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("series needs at least the constant coefficient")
        for c in coeffs:
            if type(c) is not int:  # bool is no coefficient
                raise DomainError(f"non-integer coefficient {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if type(i) is not int or not 0 <= i <= self.order:  # bool is no index
            raise DomainError(f"coefficient index {i!r} outside 0..{self.order}")
        return self.coeffs[i]

    @classmethod
    def monomial(cls, power: int, order: int) -> "TruncatedSeries":
        check_size(power, 0, "power must be")
        check_size(order, 0, "order must be")
        values = [0] * (order + 1)
        if power <= order:
            values[power] = 1
        return cls(values)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller operand order."""
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs[: n + 1]):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(out)


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse at the same order; constant term must be +-1."""
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise DomainError(f"series with constant term {a0} has no integer inverse")
    n = a.order
    out = [0] * (n + 1)
    out[0] = a0
    for i in range(1, n + 1):
        acc = 0
        for k in range(1, i + 1):
            ak = a.coeffs[k]
            if ak:
                acc += ak * out[i - k]
        out[i] = -a0 * acc
    return TruncatedSeries(out)


def _multiply_geometric(coeffs: list[int], step: int) -> None:
    # in-place product with 1/(1-x^step)
    for i in range(step, len(coeffs)):
        coeffs[i] += coeffs[i - step]


def partition_gf(N: int) -> TruncatedSeries:
    """Product of 1/(1-x^j) for j = 1..N; coefficient n counts partitions of n."""
    check_size(N, 0, "order must be")
    coeffs = [1] + [0] * N
    for j in range(1, N + 1):
        _multiply_geometric(coeffs, j)
    return TruncatedSeries(coeffs)


def compositions_gf(N: int) -> TruncatedSeries:
    """x/(1-2x): coefficient n is 2^(n-1) for n >= 1, constant term 0."""
    check_size(N, 1, "order must be")
    coeffs = [0] * (N + 1)  # first, so an order too large to hold fails before any power
    coeffs[1:] = [1 << i for i in range(N)]
    return TruncatedSeries(coeffs)


def distinct_partitions_ell_gf(ell: int, N: int) -> TruncatedSeries:
    """x^(ell(ell+1)/2) / prod_{i=1..ell}(1-x^i).

    Coefficient n counts partitions of n into exactly ell distinct parts:
    the staircase ell + (ell-1) + ... + 1 is the least such partition and
    the geometric factors distribute the remaining weight.
    """
    check_size(ell, 0, "ell must be")
    check_size(N, 0, "order must be")
    staircase = ell * (ell + 1) // 2
    coeffs = [0] * (N + 1)
    if staircase <= N:
        coeffs[staircase] = 1
        for i in range(1, ell + 1):
            _multiply_geometric(coeffs, i)
    return TruncatedSeries(coeffs)


def distinct_compositions_gf(N: int) -> TruncatedSeries:
    """Sum over ell of ell! times the exactly-ell distinct-partition series.

    Each partition into ell distinct parts orders in ell! ways, so the
    coefficient at x^n counts compositions of n with pairwise distinct
    parts.  The sum is finite: ell(ell+1)/2 <= N bounds ell.  The rows
    q_ell(m), partitions of m into exactly ell distinct parts, fill one from
    the last: taking 1 from every part leaves ell distinct parts, or ell - 1
    when the least part was 1, so q_ell(m) = q_ell(m - ell) + q_(ell-1)(m - ell)
    from q_0 = 1, 0, 0, ...; O(N^1.5) additions in all.
    """
    check_size(N, 0, "order must be")
    row = [1] + [0] * N  # q_0
    total = row[:]
    ell, factor = 1, 1
    while ell * (ell + 1) // 2 <= N:
        factor *= ell
        previous, row = row, [0] * (N + 1)
        for m in range(ell * (ell + 1) // 2, N + 1):
            row[m] = row[m - ell] + previous[m - ell]
            total[m] += factor * row[m]
        ell += 1
    return TruncatedSeries(total)
