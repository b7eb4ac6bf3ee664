"""Reference answers computed apart from fibcomp, and the checks of its outputs.

Nothing here imports fibcomp.  Each count comes from a method other than
the one the program uses: p(n) from an unbounded-parts knapsack DP (the
program uses the pentagonal recurrence), q(n) from a distinct-parts DP,
F_n and 2^(n-1) by direct iteration, and distinct-part counts from a
(sum, part-count) DP.
"""

from __future__ import annotations

import math


def partitions_upto(top: int) -> list[int]:
    """p(0..top) by the unbounded-parts knapsack DP."""
    p = [1] + [0] * top
    for part in range(1, top + 1):
        for s in range(part, top + 1):
            p[s] += p[s - part]
    return p


def distinct_partitions_upto(top: int) -> list[int]:
    """q(0..top), partitions into distinct parts, by the 0/1 knapsack DP."""
    q = [1] + [0] * top
    for part in range(1, top + 1):
        for s in range(top, part - 1, -1):
            q[s] += q[s - part]
    return q


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def power_of_two(e: int) -> int:
    value = 1
    for _ in range(e):
        value *= 2
    return value


def distinct_by_count(top: int) -> list[list[int]]:
    """d[ell][s]: partitions of s into exactly ell distinct parts, s <= top."""
    max_ell = 0
    while (max_ell + 1) * (max_ell + 2) // 2 <= top:
        max_ell += 1
    d = [[0] * (top + 1) for _ in range(max_ell + 1)]
    d[0][0] = 1
    for part in range(1, top + 1):
        for ell in range(max_ell, 0, -1):
            row, prev = d[ell], d[ell - 1]
            for s in range(top, part - 1, -1):
                row[s] += prev[s - part]
    return d


def distinct_compositions(by_count: list[list[int]]) -> list[int]:
    """Compositions of s into distinct parts: sum over ell of ell! d[ell][s]."""
    top = len(by_count[0]) - 1
    return [sum(math.factorial(ell) * row[s] for ell, row in enumerate(by_count)) for s in range(top + 1)]


class References:
    """Reference tables sized for one workload's inputs."""

    def __init__(self, p_top: int = 0, q_top: int = 0, distinct_top: int = 0):
        self.p = partitions_upto(p_top)
        self.q = distinct_partitions_upto(q_top)
        self.by_count = distinct_by_count(distinct_top)
        self.distinct_compositions = distinct_compositions(self.by_count)

    def count(self, cls: str, n: int) -> int:
        """Number of members of class cls of n, in `fibcomp count` naming."""
        if cls == "compositions:all":
            return power_of_two(n - 1)
        if cls == "compositions:odd-parts":
            return fibonacci(n)
        if cls == "compositions:min-part-2":
            return fibonacci(n - 1)
        if cls == "compositions:distinct-parts":
            return self.distinct_compositions[n]
        if cls == "partitions:all":
            return self.p[n]
        if cls in ("partitions:odd-parts", "partitions:distinct-parts"):
            return self.q[n]
        if cls.startswith("partitions:distinct-ell="):
            ell = int(cls.split("=", 1)[1])
            return self.by_count[ell][n] if ell < len(self.by_count) else 0
        raise ValueError(f"no reference for class {cls!r}")

    def series(self, name: str, order: int, ell: int | None = None) -> list[int]:
        """Coefficients 0..order of a `fibcomp series` generating function."""
        if name == "partitions":
            return self.p[: order + 1]
        if name == "compositions":
            return [0] + [power_of_two(i - 1) for i in range(1, order + 1)]
        if name == "distinct-partitions":
            return [self.count(f"partitions:distinct-ell={ell}", s) for s in range(order + 1)]
        raise ValueError(f"no reference for series {name!r}")


# Checks.  Each takes the finished process's exit code and stdout and
# returns True when the output is right.


def _fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def check_analytic(returncode: int, stdout: str, expected: int) -> bool:
    """`analytic` passes on exit 0, certified=true and rounded equal to the reference."""
    fields = _fields(stdout)
    return (
        returncode == 0
        and fields.get("certified") == "true"
        and fields.get("rounded") == str(expected)
    )


def check_value(returncode: int, stdout: str, expected: int) -> bool:
    return returncode == 0 and stdout == f"{expected}\n"


def check_series(returncode: int, stdout: str, expected: list[int]) -> bool:
    want = "".join(f"{i}\t{c}\n" for i, c in enumerate(expected))
    return returncode == 0 and stdout == want


def check_verify(returncode: int, stdout: str) -> bool:
    """`verify` passes on exit 0 with a final `passed k/k checks` line."""
    lines = stdout.splitlines()
    if returncode != 0 or not lines:
        return False
    words = lines[-1].split()
    if len(words) != 3 or words[0] != "passed" or words[2] != "checks":
        return False
    done, _, total = words[1].partition("/")
    return done.isdigit() and done == total and int(total) > 0


def parse_parts(text: str) -> list[int] | None:
    pieces = text.strip().split("+")
    if not all(p.isdigit() and p[0] != "0" for p in pieces):
        return None
    return [int(p) for p in pieces]


def check_map_odd_to_gt1(returncode: int, stdout: str, source: list[int]) -> bool:
    """Forward map: all parts >= 2 and summing to n+1."""
    parts = parse_parts(stdout) if returncode == 0 else None
    return parts is not None and all(p >= 2 for p in parts) and sum(parts) == sum(source) + 1


def check_map_gt1_to_odd(returncode: int, stdout: str, source: list[int]) -> bool:
    """Reverse map: all parts odd and summing to n-1."""
    parts = parse_parts(stdout) if returncode == 0 else None
    return parts is not None and all(p % 2 for p in parts) and sum(parts) == sum(source) - 1


def check_round_trip(returncode: int, stdout: str, original: list[int]) -> bool:
    """Mapping back under the other direction gives the original composition."""
    return returncode == 0 and parse_parts(stdout) == original
