"""Tests of the benchmark's own parts: references, checks, metric names, tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys

import pytest

import reference as ref
import run
import workloads
from tracer import PER_LAYER

SMALL = 16


def brute_compositions(n):
    # every subset of the n-1 gaps between n units cuts out one composition
    for mask in range(2 ** (n - 1)):
        parts, size = [], 1
        for gap in range(n - 1):
            if mask >> gap & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        yield parts


def brute_partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield []
        return
    for first in range(min(n, largest), 0, -1):
        for rest in brute_partitions(n - first, first):
            yield [first, *rest]


def brute_count(cls, n):
    family, kind = cls.split(":")
    if family == "compositions":
        keep = {
            "all": lambda c: True,
            "odd-parts": lambda c: all(p % 2 for p in c),
            "min-part-2": lambda c: all(p >= 2 for p in c),
            "distinct-parts": lambda c: len(set(c)) == len(c),
        }[kind]
        return sum(1 for c in brute_compositions(n) if keep(c))
    if kind.startswith("distinct-ell="):
        ell = int(kind.split("=")[1])
        return sum(1 for p in brute_partitions(n) if len(set(p)) == len(p) == ell)
    keep = {
        "all": lambda p: True,
        "odd-parts": lambda p: all(x % 2 for x in p),
        "distinct-parts": lambda p: len(set(p)) == len(p),
    }[kind]
    return sum(1 for p in brute_partitions(n) if keep(p))


CLASSES = [
    "compositions:all",
    "compositions:odd-parts",
    "compositions:min-part-2",
    "compositions:distinct-parts",
    "partitions:all",
    "partitions:odd-parts",
    "partitions:distinct-parts",
    "partitions:distinct-ell=0",
    "partitions:distinct-ell=3",
]


@pytest.mark.parametrize("cls", CLASSES)
def test_reference_counts_match_brute_force(cls):
    refs = ref.References(p_top=SMALL, q_top=SMALL, distinct_top=SMALL)
    first = 0 if cls.startswith("partitions") else 1
    if cls == "compositions:min-part-2":
        first = 2
    for n in range(first, SMALL + 1):
        assert refs.count(cls, n) == brute_count(cls, n), (cls, n)


def test_reference_series_match_brute_force():
    refs = ref.References(p_top=SMALL, q_top=SMALL, distinct_top=SMALL)
    assert refs.series("partitions", SMALL) == [brute_count("partitions:all", n) for n in range(SMALL + 1)]
    assert refs.series("compositions", SMALL) == [0] + [
        brute_count("compositions:all", n) for n in range(1, SMALL + 1)
    ]
    assert refs.series("distinct-partitions", SMALL, 2) == [
        brute_count("partitions:distinct-ell=2", n) for n in range(SMALL + 1)
    ]


def test_independent_iterations():
    assert [ref.fibonacci(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert ref.power_of_two(100) == 2**100
    assert ref.partitions_upto(100)[100] == 190569292
    assert ref.distinct_partitions_upto(45)[45] == 2048


ANALYTIC_Q45 = "series=q\nn=45\nrounded={}\ncertified=true\nk_terms=1\n"


def test_analytic_check_rejects_the_kmax1_miscertification():
    q45 = ref.distinct_partitions_upto(45)[45]
    assert not ref.check_analytic(0, ANALYTIC_Q45.format(2047), q45)
    assert ref.check_analytic(0, ANALYTIC_Q45.format(2048), q45)
    assert not ref.check_analytic(0, ANALYTIC_Q45.format(2048).replace("true", "false"), q45)
    assert not ref.check_analytic(2, ANALYTIC_Q45.format(2048), q45)


def test_verify_and_map_checks():
    assert ref.check_verify(0, "[OK] codec: x (3 cases)\npassed 5/5 checks\n")
    assert not ref.check_verify(0, "passed 4/5 checks\n")
    assert not ref.check_verify(2, "passed 5/5 checks\n")
    assert ref.check_map_odd_to_gt1(0, "2+3\n", [1, 3])
    assert not ref.check_map_odd_to_gt1(0, "1+4\n", [1, 3])
    assert not ref.check_map_odd_to_gt1(0, "2+2\n", [1, 3])
    assert ref.check_map_gt1_to_odd(0, "1+3\n", [2, 3])
    assert not ref.check_map_gt1_to_odd(0, "2+2\n", [2, 3])
    assert ref.check_round_trip(0, "1+3\n", [1, 3])
    assert not ref.check_round_trip(0, "3+1\n", [1, 3])


def test_workloads_are_made_from_the_seed():
    for make in workloads.WORKLOADS.values():
        first, again, other = make(7, 30), make(7, 30), make(8, 30)
        argv = lambda plan: [op.argv for op in plan.round]
        assert argv(first) == argv(again)
        assert argv(first) != argv(other)
        assert first.rounds >= 1


def test_known_faults_do_not_depend_on_the_seed():
    faults = [
        [op.argv for op in workloads.analytic_cold(seed, 30).round if op.known_fault] for seed in (1, 2, 3)
    ]
    assert faults[0] == faults[1] == faults[2]
    assert len(faults[0]) == len(workloads.KMAX1_MISCERTIFIED)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _traced_call(tmp_path, name, *argv):
    stats = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "cli_traced.py"), str(stats), *argv],
        env=run.program_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout, json.loads(stats.read_text())


def test_traced_call_keeps_output_and_repeats_its_counts(tmp_path):
    plain = subprocess.run(
        [sys.executable, "-c", run.CLI_ENTRY, "analytic", "q", "60"],
        env=run.program_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    out1, first = _traced_call(tmp_path, "a", "analytic", "q", "60")
    out2, second = _traced_call(tmp_path, "b", "analytic", "q", "60")
    assert out1 == out2 == plain.stdout
    counts = [name for name, unit in PER_LAYER.items() if unit != "s"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["analytic.hagis_t.calls"] > 0 and first["analytic.cospi.calls"] > 0
    # default_k_terms(60) = ceil(8 sqrt 60) + 16, certified without escalation
    assert (first["analytic.terms"], first["analytic.escalations"]) == (78, 0)


def test_traced_map_counts_entries_into_a_layer_once(tmp_path):
    out, stats = _traced_call(tmp_path, "m", "map", "--odd-to-gt1", "1+3")
    assert out == "3+2\n"
    # odd_to_gt1 calls trace_forward: one map entered from outside the layer
    assert stats["bijection.maps"] == 1
    # parse_composition, conjugate (to_bitseq and from_bitseq nested) and
    # format_composition are entered from outside core
    assert stats["core.codec.calls"] == 3
