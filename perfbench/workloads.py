"""The benchmark's workloads: one round of operations each, made from a seed.

A run repeats one round a fixed number of times, so every run of a
workload does the same work for a given seed and run length, and the
failed operations are the same share of the attempted ones in every run.
The seed draws each input from a narrow band, so that the cost of a round
changes little from seed to seed.  Inputs whose cost grows exponentially
(enumerations, verify bounds) do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

# Stands for the round's own empty --cache-dir in an argv.
CACHE_DIR = "<cache-dir>"

# Inputs on which `analytic q n --kmax 1` certifies a wrong integer: at one
# term the doubled budget sums the same single term, so the stability test
# cannot fail.  These operations fail every time; the failures are counted
# but do not make a run incorrect.
KMAX1_MISCERTIFIED = (45, 57, 59)


@dataclass
class CliOp:
    """One fresh-process `fibcomp` call and the check of its output."""

    argv: list[str]
    check: Callable[[int, str], bool]
    known_fault: bool = False
    # the previous call's stdout, stripped, is appended as the last argument
    chained: bool = False


@dataclass
class Plan:
    round: list[CliOp]
    rounds: int


# Fixed work per run: the round count follows from the requested run length
# and a round's nominal cost on the reference machine (README.md), never
# from a clock reading.
def _rounds(seconds: int) -> int:
    return max(1, round(seconds / 10.0))


def _analytic_op(series: str, n: int, expected: int, *extra: str, known_fault=False) -> CliOp:
    return CliOp(
        ["analytic", series, str(n), *extra],
        lambda code, out: ref.check_analytic(code, out, expected),
        known_fault=known_fault,
    )


def analytic_cold(seed: int, seconds: int) -> Plan:
    rng = random.Random(seed)
    # Two p and two q calls of about the same cold cost (p near 250, q near
    # 330) put the run's median operation among twelve like samples; one p
    # and one q near 450 carry the larger n.
    bands = [
        ("p", 248, 252),
        ("p", 248, 252),
        ("q", 326, 334),
        ("q", 326, 334),
        ("p", 446, 454),
        ("q", 446, 454),
    ]
    picks = [(series, rng.randint(lo, hi)) for series, lo, hi in bands]
    top = max(n for _, n in picks)
    refs = ref.References(p_top=top, q_top=top)
    table = {"p": refs.p, "q": refs.q}
    ops = [_analytic_op(s, n, table[s][n]) for s, n in picks]
    ops += [
        _analytic_op("q", n, refs.q[n], "--kmax", "1", known_fault=True)
        for n in KMAX1_MISCERTIFIED
    ]
    return Plan(ops, _rounds(seconds))


def _count_op(refs: ref.References, cls: str, n: int, cached: bool = False) -> CliOp:
    expected = refs.count(cls, n)
    argv = ["count", "--class", cls, str(n)]
    if cached:
        argv[3:3] = ["--cache-dir", CACHE_DIR]
    return CliOp(argv, lambda code, out: ref.check_value(code, out, expected))


def _series_op(refs: ref.References, name: str, order: int, ell: int | None = None) -> CliOp:
    expected = refs.series(name, order, ell)
    argv = ["series", name, "--order", str(order)]
    if ell is not None:
        argv += ["--ell", str(ell)]
    return CliOp(argv, lambda code, out: ref.check_series(code, out, expected))


def _enumerate_op(refs: ref.References, cls: str, n: int) -> CliOp:
    expected = refs.count(cls, n)
    argv = ["enumerate", "--count", "--class", cls, str(n)] + (["--force"] if n > 30 else [])
    return CliOp(argv, lambda code, out: ref.check_value(code, out, expected))


def _map_pair(start: list[int], forward: bool) -> list[CliOp]:
    """Map a composition one way, then map the output back the other way."""
    text = "+".join(map(str, start))
    first, back = ("--odd-to-gt1", "--gt1-to-odd") if forward else ("--gt1-to-odd", "--odd-to-gt1")
    check_first = ref.check_map_odd_to_gt1 if forward else ref.check_map_gt1_to_odd
    return [
        CliOp(["map", first, text], lambda code, out: check_first(code, out, start)),
        CliOp(["map", back], lambda code, out: ref.check_round_trip(code, out, start), chained=True),
    ]


def _odd_parts(rng: random.Random, total: int) -> list[int]:
    parts = []
    while total:
        parts.append(rng.choice(range(1, min(total, 9) + 1, 2)))
        total -= parts[-1]
    return parts


def _parts_at_least_2(rng: random.Random, total: int) -> list[int]:
    parts = []
    while total:
        parts.append(rng.choice([p for p in range(2, min(total, 9) + 1) if total - p != 1]))
        total -= parts[-1]
    return parts


def exact_cli(seed: int, seconds: int) -> Plan:
    rng = random.Random(seed)
    p_n = rng.randint(1200, 1300)
    q_n = rng.randint(2000, 2200)
    fib_n = rng.randint(14900, 15000)
    grow = rng.randint(150, 250)
    refs = ref.References(p_top=p_n + grow, q_top=q_n + grow, distinct_top=320)
    odd = _odd_parts(rng, rng.randint(1900, 2100))
    gt1 = _parts_at_least_2(rng, rng.randint(1900, 2100))
    ell = rng.randint(5, 7)
    ops = [
        # build and write the p, q and fib tables in the round's empty cache
        _count_op(refs, "partitions:all", p_n, cached=True),
        _count_op(refs, "partitions:distinct-parts", q_n, cached=True),
        _count_op(refs, "compositions:odd-parts", fib_n, cached=True),
        # read them back
        _count_op(refs, "partitions:all", p_n - rng.randint(1, 100), cached=True),
        _count_op(refs, "partitions:odd-parts", q_n - rng.randint(1, 100), cached=True),
        _count_op(refs, "compositions:min-part-2", fib_n - rng.randint(1, 100), cached=True),
        # extend and rewrite them
        _count_op(refs, "partitions:all", p_n + grow, cached=True),
        _count_op(refs, "partitions:distinct-parts", q_n + grow, cached=True),
        _count_op(refs, "compositions:all", rng.randint(3000, 4000)),
        _count_op(refs, "compositions:distinct-parts", rng.randint(180, 220)),
        _count_op(refs, f"partitions:distinct-ell={ell}", rng.randint(280, 320)),
        _series_op(refs, "partitions", rng.randint(380, 420)),
        _series_op(refs, "compositions", rng.randint(380, 420)),
        _series_op(refs, "distinct-partitions", rng.randint(280, 320), ell),
        _enumerate_op(refs, "compositions:odd-parts", 22),
        _enumerate_op(refs, "partitions:all", 36),
        *_map_pair(odd, forward=True),
        *_map_pair(gt1, forward=False),
        *(
            CliOp(["verify", "--suite", suite, *bound], ref.check_verify)
            for suite, bound in (
                ("codec", ["--max-n", "10"]),
                ("bijection", ["--max-n", "16"]),
                ("counts", []),
                ("genfun", []),
            )
        ),
    ]
    return Plan(ops, _rounds(seconds))


# A fixed set of small calls, one or more into every layer, that each traced
# run adds after its workload so every per-layer metric is measured in every
# workload.  It does not depend on the seed.
def layer_probe() -> list[CliOp]:
    refs = ref.References(p_top=300, q_top=60, distinct_top=12)
    return [
        _analytic_op("p", 60, refs.p[60]),
        _analytic_op("q", 60, refs.q[60]),
        _count_op(refs, "partitions:all", 300, cached=True),
        _count_op(refs, "partitions:all", 200, cached=True),
        _series_op(refs, "partitions", 50),
        _enumerate_op(refs, "compositions:odd-parts", 12),
        *_map_pair([3, 1, 5, 1], forward=True),
        *(
            CliOp(["verify", "--suite", suite, "--max-n", "6"], ref.check_verify)
            for suite in ("codec", "bijection", "counts", "genfun")
        ),
    ]


WORKLOADS = {
    "analytic-cold": analytic_cold,
    "exact-cli": exact_cli,
}
