"""Exact counters: powers of two, Fibonacci numbers, and the two classic
partition recurrences, all over arbitrary-precision integers.

Also home to the floating-point Binet evaluation used to demonstrate where
double-width arithmetic stops rounding to the true Fibonacci value.  Every
p and q entry is computed in one place, the in-process memo.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import DomainError, check_size


def c_count(n: int) -> int:
    """Number of compositions of n: 2^(n-1)."""
    check_size(n, 1, "c_count needs n")
    return 1 << (n - 1)


def is_triangular(n: int) -> bool:
    """True when n = m(m+1)/2 for some m >= 0; n = 0 counts.  n may be any
    int, and a negative one is not triangular; a non-int is refused."""
    if type(n) is not int:  # bool is no int
        raise DomainError(f"is_triangular needs an integer n, got {n!r}")
    if n < 0:
        return False
    root = math.isqrt(8 * n + 1)
    return root * root == 8 * n + 1


def _pentagonal_sum(values: list[int], n: int, scale: int) -> int:
    # sum_{j>=1} (-1)^(j-1) [ v(n - scale j(3j-1)/2) + v(n - scale j(3j+1)/2) ]
    total = 0
    j = 1
    while True:
        g1 = scale * (j * (3 * j - 1) // 2)
        if g1 > n:
            break
        sign = 1 if j % 2 else -1
        term = values[n - g1]
        g2 = scale * (j * (3 * j + 1) // 2)
        if g2 <= n:
            term += values[n - g2]
        total += sign * term
        j += 1
    return total


# p and q obey one recurrence and differ only in their row (s, right):
#   v(n) = right(n) + sum_{j>=1} (-1)^(j-1) [ v(n - s j(3j-1)/2) + v(n - s j(3j+1)/2) ]
# p: s = 1, right(n) = [n = 0], Euler's pentagonal theorem;
# q: s = 2, right(n) = [n triangular], Gauss's q(x) prod_k (1 - x^2k) = sum_m x^(m(m+1)/2).
# q's right side looks up is_triangular when it runs, so a wrapped one is used.
_ROWS = {
    "p": (1, lambda n: n == 0),
    "q": (2, lambda n: is_triangular(n)),
}

_tables: dict[str, list[int]] = {kind: [] for kind in _ROWS}


def _next(kind: str, values: list[int], n: int) -> int:
    """v(n) for the kind's recurrence, from values[:n]."""
    scale, right = _ROWS[kind]
    return (1 if right(n) else 0) + _pentagonal_sum(values, n, scale)


def _extend(kind: str, upto: int) -> None:
    # the one fill loop of the p and q entries, over the memo; every slot first, so a
    # table too large fails before any work, and a failed fill keeps what it computed
    values = _tables[kind]
    n = len(values)
    values += [0] * (upto + 1 - n)
    try:
        for n in range(n, upto + 1):
            values[n] = _next(kind, values, n)
    except BaseException:
        del values[n:]
        raise


def _memo_value(kind: str, n: int) -> int:
    check_size(n, 0, f"{kind}_recurrence needs n")
    _extend(kind, n)
    return _tables[kind][n]


def fibonacci(n: int) -> int:
    """F_0 = 0, F_1 = 1, F_n = F_{n-1} + F_{n-2}, by fast doubling over the
    bits of n: F_2k = F_k (2 F_{k+1} - F_k) and F_{2k+1} = F_k^2 + F_{k+1}^2."""
    check_size(n, 0, "fibonacci needs n")
    a, b = 0, 1  # F_k, F_{k+1} for k = the leading bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def Q_count(n: int) -> int:
    """Number of compositions of n into odd parts; equals F_n."""
    check_size(n, 1, "Q_count needs n")
    return fibonacci(n)


def p_recurrence(n: int) -> int:
    """Number of partitions of n via the alternating pentagonal-shift recurrence."""
    return _memo_value("p", n)


def q_recurrence(n: int) -> int:
    """Number of partitions of n into distinct parts (equivalently odd parts).

    Uses the alternating recurrence with shifts k(3k-1) and k(3k+1) and a
    right side of 1 exactly at triangular n.
    """
    return _memo_value("q", n)


def q_recurrence_residual(n: int) -> int:
    """Left side of Gauss's identity at n, 1 at triangular n and 0 elsewhere:
    q(n) + sum_{k>=1} (-1)^k [q(n - k(3k-1)) + q(n - k(3k+1))], with q(n) from
    one q_recurrence(n) call and the rest summed here from the table it fills."""
    check_size(n, 0, "residual needs n")
    total, values, k = q_recurrence(n), _tables["q"], 1
    while k * (3 * k - 1) <= n:
        pair = values[n - k * (3 * k - 1)] + (values[n - k * (3 * k + 1)] if k * (3 * k + 1) <= n else 0)
        total += -pair if k % 2 else pair
        k += 1
    return total


class BinetReport(NamedTuple):
    n: int
    float_estimate: float
    exact: int
    abs_error: float
    round_correct: bool


def binet_float(n: int) -> BinetReport:
    """Evaluate ((1+sqrt5)^n - (1-sqrt5)^n) / (2^n sqrt5) in double precision.

    Overflow is reported as round_correct=False with infinite error rather
    than raised.
    """
    check_size(n, 0, "binet_float needs n")
    exact = fibonacci(n)
    s5 = math.sqrt(5.0)
    try:
        estimate = ((1.0 + s5) ** n - (1.0 - s5) ** n) / (2.0**n * s5)
    except OverflowError:  # from n = 605 on; below it F_n is well inside float range
        return BinetReport(n, math.inf, exact, math.inf, False)
    return BinetReport(n, estimate, exact, abs(estimate - exact), round(estimate) == exact)


def binet_first_failure(limit: int = 100) -> int | None:
    """Smallest n <= limit whose Binet estimate rounds wrong, or None."""
    check_size(limit, 0, "binet_first_failure needs limit")
    for n in range(limit + 1):
        if not binet_float(n).round_correct:
            return n
    return None


def build_table(kind: str, max_n: int) -> list[int]:
    """Values 0..max_n of the p or q recurrence, a copy of the memo's prefix,
    so the caller's edits miss the memo."""
    if kind not in _ROWS:
        raise DomainError(f"unknown table kind {kind!r}")
    check_size(max_n, 0, f"table for {kind!r} needs max_n")
    _extend(kind, max_n)
    return _tables[kind][: max_n + 1]
