"""Acceptance battery: one test per advertised guarantee, each printing a
single [PASS] line with the measured evidence (visible under pytest -s or
in failure reports).
"""

import os
import time

import pytest

from fibcomp import cli
from fibcomp.analytic import hagis_q, rademacher_p
from fibcomp.bijection import gt1_to_odd, odd_to_gt1
from fibcomp.counting import (
    binet_first_failure,
    binet_float,
    c_count,
    fibonacci,
    is_triangular,
    p_recurrence,
    q_recurrence,
    q_recurrence_residual,
)
from fibcomp.enumeration import (
    CompositionClass,
    PartitionClass,
    gen_class,
    tally_by_enumeration,
)
from fibcomp.genfun import distinct_compositions_gf, partition_gf

from _oracles import q_is_odd, q_table_corrected, q_table_literal, ramanujan_moduli


def test_criterion_1_worked_example_via_cli(capsys):
    started = time.perf_counter()
    code = cli.run(["map", "--odd-to-gt1", "1+1+1+9+1+1+5+3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "5+2+2+2+5+2+3+2\n"
    code = cli.run(["map", "--trace", "1+1+1+9+1+1+5+3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "a_conj=4+1+1+1+1+1+1+1+4+1+1+1+2+1+1" in lines
    assert "b=5+2+2+2+5+2+3+1" in lines
    assert "c=5+2+2+2+5+2+3+2" in lines
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: worked example bit-exact via CLI in {elapsed:.3f}s")


def test_criterion_2_bijection_exhaustive_to_18():
    started = time.perf_counter()
    total = 0
    for n in range(1, 19):
        odd = list(gen_class(n, CompositionClass("odd-parts")))
        image = [odd_to_gt1(a) for a in odd]
        for a, c in zip(odd, image):
            assert gt1_to_odd(c) == a
        target = {c.parts for c in gen_class(n + 1, CompositionClass("min-part-2"))}
        assert {c.parts for c in image} == target
        assert len(image) == len(set(image)) == len(target) == fibonacci(n)
        total += len(image)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"[PASS] criterion 2: bijection exhaustive n<=18, {total} compositions, "
        f"{elapsed:.1f}s"
    )


def test_criterion_3_composition_count():
    for n in range(1, 17):
        assert c_count(n) == tally_by_enumeration(n, CompositionClass("all"))[n]
    assert c_count(4) == 8
    eight = {c.parts for c in gen_class(4, CompositionClass("all"))}
    assert eight == {
        (4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1),
    }
    print("[PASS] criterion 3: c(n) = 2^(n-1) vs enumeration n<=16, c(4) = 8")


def test_criterion_4_odd_equals_distinct():
    for n in range(0, 41):
        assert tally_by_enumeration(n, PartitionClass("odd-parts"))[n] == tally_by_enumeration(
            n, PartitionClass("distinct-parts")
        )[n]
    assert q_recurrence(8) == 6
    assert [p.parts for p in gen_class(8, PartitionClass("distinct-parts"))] == [
        (8,), (7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1),
    ]
    assert [p.parts for p in gen_class(8, PartitionClass("odd-parts"))] == [
        (7, 1), (5, 3), (5, 1, 1, 1), (3, 3, 1, 1), (3, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1),
    ]
    print("[PASS] criterion 4: odd = distinct partition counts n<=40, q(8) = 6 both lists")


def test_criterion_5_partition_recurrence_and_series():
    series = partition_gf(40)
    for n in range(0, 41):
        want = tally_by_enumeration(n, PartitionClass("all"))[n]
        assert p_recurrence(n) == want
        assert series.coefficient(n) == want
    print("[PASS] criterion 5: p_recurrence = enumeration = series coefficients n<=40")


def test_criterion_6_corrected_shift_regression():
    for n in range(0, 2001):
        assert q_recurrence_residual(n) == (1 if is_triangular(n) else 0)
    literal = q_table_literal(60)
    corrected = q_table_corrected(60)
    assert corrected[:41] == [q_recurrence(n) for n in range(41)]
    for n in range(41):
        assert corrected[n] == tally_by_enumeration(n, PartitionClass("distinct-parts"))[n]
    diverged = [n for n in range(61) if literal[n] != corrected[n]]
    # the linear shifts coincide with the quadratic ones while n <= 4 (the
    # k = 1 shifts are equal and k = 2 first acts at n = 5), so the first
    # possible failure point is n = 5, and it is realized there
    assert literal[:5] == corrected[:5]
    assert diverged[0] == 5
    assert literal[5] != tally_by_enumeration(5, PartitionClass("distinct-parts"))[5]
    print(
        "[PASS] criterion 6: corrected shifts exact n<=2000; literal shifts first "
        f"fail at n={diverged[0]} (n<=4 coincides by shift algebra)"
    )


def test_criterion_7_certified_series_sweep():
    started = time.perf_counter()
    worst_p = 0.0
    worst_q = 0.0
    for n in range(1, 501):
        p_report = rademacher_p(n)
        assert p_report.certified
        assert p_report.rounded == p_recurrence(n), f"p mismatch at n={n}"
        q_report = hagis_q(n)
        assert q_report.certified
        assert q_report.rounded == q_recurrence(n), f"q mismatch at n={n}"
        worst_p = max(worst_p, float(p_report.residual))
        worst_q = max(worst_q, float(q_report.residual))
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        f"[PASS] criterion 7: certified p(n), q(n) match recurrences 1<=n<=500 in "
        f"{elapsed:.1f}s (worst residual p={worst_p:.2e}, q={worst_q:.2e})"
    )


@pytest.mark.skipif(os.environ.get("FIBCOMP_STRETCH") != "1", reason="set FIBCOMP_STRETCH=1")
def test_criterion_7_stretch_ten_thousand():
    started = time.perf_counter()
    p_report = rademacher_p(10_000)
    assert p_report.certified and p_report.rounded == p_recurrence(10_000)
    q_report = hagis_q(10_000)
    assert q_report.certified and q_report.rounded == q_recurrence(10_000)
    elapsed = time.perf_counter() - started
    print(f"[PASS] stretch: certified p(10^4) and q(10^4) match recurrences in {elapsed:.1f}s")


@pytest.mark.skipif(os.environ.get("FIBCOMP_STRETCH") != "1", reason="set FIBCOMP_STRETCH=1")
def test_stretch_congruence_and_parity_past_the_recurrences():
    # residues the series must reproduce where no recurrence check reaches
    started = time.perf_counter()
    assert ramanujan_moduli(99_999) == (5,)
    p_report = rademacher_p(99_999)
    assert p_report.certified and p_report.rounded % 5 == 0
    q_report = hagis_q(10_000)
    assert q_report.certified and q_report.rounded % 2 == q_is_odd(10_000)
    elapsed = time.perf_counter() - started
    print(
        f"[PASS] stretch: certified p(99999) = 0 (mod 5) and q(10^4) has the parity "
        f"of Euler's pentagonal theorem in {elapsed:.1f}s"
    )


@pytest.mark.skipif(os.environ.get("FIBCOMP_STRETCH") != "1", reason="set FIBCOMP_STRETCH=1")
def test_stretch_congruence_near_ten_million():
    # 2689 terms, the least budget p's certificate proves at n = 10^7
    started = time.perf_counter()
    assert ramanujan_moduli(9_999_999) == (5,)
    report = rademacher_p(9_999_999, k_max=2689)
    assert report.certified and report.k_terms_used == 2689 and report.rounded % 5 == 0
    elapsed = time.perf_counter() - started
    print(f"[PASS] stretch: certified p(9999999) = 0 (mod 5) at 2689 terms in {elapsed:.1f}s")


def test_criterion_8_distinct_composition_series():
    series = distinct_compositions_gf(20)
    assert series.coefficient(0) == 1
    for n in range(1, 21):
        assert series.coefficient(n) == tally_by_enumeration(
            n, CompositionClass("distinct-parts")
        )[n]
    assert series.coefficient(6) == 11
    print("[PASS] criterion 8: distinct-composition series = enumeration n<=20, coeff(6) = 11")


def test_criterion_9_binet_failure_found():
    failure = binet_first_failure(limit=100)
    assert failure is not None, "no Binet rounding failure found for n <= 100"
    for n in range(failure):
        assert binet_float(n).round_correct
    report = binet_float(failure)
    assert not report.round_correct
    print(
        f"[PASS] criterion 9: double-precision Binet first misrounds at n={failure} "
        f"(|error| = {report.abs_error:.1f})"
    )
