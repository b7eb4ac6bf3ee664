import math
import random

import pytest
from hypothesis import given, strategies as st

from fibcomp import counting
from fibcomp.core import DomainError
from fibcomp.counting import (
    Q_count,
    binet_first_failure,
    binet_float,
    build_table,
    c_count,
    fibonacci,
    is_triangular,
    p_recurrence,
    q_recurrence,
    q_recurrence_residual,
)
from fibcomp.enumeration import CompositionClass, PartitionClass, tally_by_enumeration

from _oracles import (
    fib_list,
    p_table_coin_change,
    q_is_odd,
    q_table_corrected,
    q_table_knapsack,
    q_table_literal,
    ramanujan_moduli,
    triangular,
)


class TestCompositionCount:
    def test_examples(self):
        assert c_count(4) == 8
        assert c_count(1) == 1
        assert c_count(13) == 4096

    def test_matches_enumeration(self):
        for n in range(1, 17):
            assert c_count(n) == tally_by_enumeration(n, CompositionClass("all"))[n]

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            c_count(0)


class TestFibonacci:
    def test_examples(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1
        assert fibonacci(10) == 55
        assert fibonacci(25) == 75025

    def test_matches_oracle(self):
        oracle = fib_list(21000)
        for n in [*range(2001), 21000]:
            assert fibonacci(n) == oracle[n]

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            fibonacci(-1)

    def test_q_count_examples(self):
        assert Q_count(1) == 1
        assert Q_count(5) == 5
        assert Q_count(25) == 75025
        with pytest.raises(DomainError):
            Q_count(0)

    def test_q_count_matches_enumerations(self):
        for n in range(1, 21):
            assert Q_count(n) == tally_by_enumeration(n, CompositionClass("odd-parts"))[n]
            assert Q_count(n) == tally_by_enumeration(n + 1, CompositionClass("min-part-2"))[n + 1]


class TestPartitionRecurrence:
    def test_examples(self):
        assert p_recurrence(0) == 1
        assert p_recurrence(4) == 5
        assert p_recurrence(20) == 627
        assert p_recurrence(100) == 190569292

    def test_matches_enumeration(self):
        for n in range(0, 41):
            assert p_recurrence(n) == tally_by_enumeration(n, PartitionClass("all"))[n]

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            p_recurrence(-2)


class TestDistinctRecurrence:
    def test_examples(self):
        assert q_recurrence(0) == 1
        assert q_recurrence(8) == 6
        assert q_recurrence(100) == 444793

    def test_matches_both_enumerations(self):
        for n in range(0, 41):
            q = q_recurrence(n)
            assert q == tally_by_enumeration(n, PartitionClass("distinct-parts"))[n]
            assert q == tally_by_enumeration(n, PartitionClass("odd-parts"))[n]

    def test_matches_corrected_oracle(self):
        oracle = q_table_corrected(400)
        for n in range(401):
            assert q_recurrence(n) == oracle[n]

    def test_residual_is_triangular_indicator(self):
        for n in range(0, 2001):
            assert q_recurrence_residual(n) == (1 if is_triangular(n) else 0)

    def test_triangular_indicator(self):
        for n in range(0, 500):
            assert is_triangular(n) == triangular(n)
        assert not is_triangular(-1)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            q_recurrence(-1)
        with pytest.raises(DomainError):
            q_recurrence_residual(-1)

    def test_residual_catches_a_table_filled_with_the_literal_shifts(self, monkeypatch):
        # the recurrence swapped for the uncorrected linear shifts 3k-1, 3k+1
        # fills q's table wrongly; the residual sums the quadratic shifts
        # itself, so it stops reading the triangular indicator
        def literal_shifts(values, n, scale):
            total, k = 0, 1
            while 3 * k - 1 <= n:
                pair = values[n - (3 * k - 1)] + (values[n - (3 * k + 1)] if 3 * k + 1 <= n else 0)
                total += pair if k % 2 else -pair
                k += 1
            return total

        monkeypatch.setattr(counting, "_pentagonal_sum", literal_shifts)
        monkeypatch.setitem(counting._tables, "q", [])  # the memo, restored afterwards
        assert q_recurrence(12) == q_table_literal(12)[12] != q_table_corrected(12)[12]
        assert [n for n in range(21) if q_recurrence_residual(n) != (1 if triangular(n) else 0)]


def test_failed_fill_keeps_only_computed_entries(monkeypatch):
    # the table is sized before it is filled; a fill that fails at n = 50
    # must leave p(0..49) and no unfilled slot for a later call to read
    pentagonal_sum = counting._pentagonal_sum

    def fail_at_50(values, n, scale):
        if n == 50:
            raise MemoryError
        return pentagonal_sum(values, n, scale)

    monkeypatch.setitem(counting._tables, "p", [])  # the memo, restored afterwards
    monkeypatch.setattr(counting, "_pentagonal_sum", fail_at_50)
    with pytest.raises(MemoryError):
        p_recurrence(100)
    assert counting._tables["p"] == p_table_coin_change(49)
    monkeypatch.setattr(counting, "_pentagonal_sum", pentagonal_sum)
    assert p_recurrence(60) == p_table_coin_change(60)[60]


@pytest.mark.parametrize(
    "kind,recurrence,oracle",
    [("p", p_recurrence, p_table_coin_change), ("q", q_recurrence, q_table_knapsack)],
)
def test_recurrence_matches_counting_dp(kind, recurrence, oracle):
    # the oracles count parts directly and never use the pentagonal formula
    want = oracle(1000)
    assert [recurrence(n) for n in range(1001)] == want
    assert build_table(kind, 1000) == want


def test_residue_oracles_hold_for_the_recurrences():
    # the congruence and parity oracles check the series where no recurrence reaches
    for n in range(3001):
        for ell in ramanujan_moduli(n):
            assert p_recurrence(n) % ell == 0, (n, ell)
        assert (q_recurrence(n) % 2 == 1) == q_is_odd(n), n
    assert [n for n in range(30) if q_is_odd(n)] == [0, 1, 2, 5, 7, 12, 15, 22, 26]
    assert [ramanujan_moduli(n) for n in (4, 5, 6, 9999, 10001, 10005, 19)] == [
        (5,), (7,), (11,), (5,), (7,), (11,), (5, 7),
    ]


class TestLiteralShiftRegression:
    """The uncorrected linear shifts first break at n = 5."""

    def test_agreement_through_four(self):
        literal = q_table_literal(10)
        corrected = q_table_corrected(10)
        for n in range(5):
            assert literal[n] == corrected[n]

    def test_first_divergence_at_five(self):
        literal = q_table_literal(60)
        corrected = q_table_corrected(60)
        diverged = [n for n in range(61) if literal[n] != corrected[n]]
        assert diverged[0] == 5

    def test_literal_contradicts_enumeration_at_five(self):
        literal = q_table_literal(5)
        assert literal[5] != tally_by_enumeration(5, PartitionClass("distinct-parts"))[5]
        assert q_recurrence(5) == tally_by_enumeration(5, PartitionClass("distinct-parts"))[5]


class TestBinet:
    def test_small_values_round_correctly(self):
        for n in range(0, 31):
            report = binet_float(n)
            assert report.round_correct
            assert report.exact == fibonacci(n)

    def test_estimate_close_at_ten(self):
        report = binet_float(10)
        assert abs(report.float_estimate - 55.0) < 1e-6
        assert report.abs_error < 1e-6

    def test_first_failure_exists_and_is_reported(self):
        failure = binet_first_failure(limit=100)
        assert failure is not None
        assert 30 < failure <= 100
        assert not binet_float(failure).round_correct
        assert binet_float(failure - 1).round_correct

    def test_no_failure_below_the_first(self):
        assert binet_first_failure(limit=50) is None

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            binet_float(-1)

    def test_huge_index_overflows_to_non_correct(self):
        report = binet_float(1600)
        assert not report.round_correct
        assert report.abs_error == math.inf


# the indices a saved table's audit drew: index 0 and a 16-index sample
# seeded by "kind:max", for a short and a long table of each kind
_AUDITED_TABLES = [(kind, max_n) for kind in ("p", "q") for max_n in (40, 300)]
_AUDITED = [
    (kind, max_n, index)
    for kind, max_n in _AUDITED_TABLES
    for index in sorted({0, *random.Random(f"{kind}:{max_n}").sample(range(max_n + 1), 16)})
]


def _failures(kind, values):
    """Every index whose entry differs from the recurrence step over the
    entries below it: the table files' audit, run at every index."""
    return [n for n in range(len(values)) if values[n] != counting._next(kind, values, n)]


class TestTables:
    # the test_load_* names are kept from the table files' loader, whose audit was
    # this recurrence check; the files are gone, and the check is run on the list
    def test_build_matches_functions(self):
        t = build_table("p", 50)
        assert t == [p_recurrence(n) for n in range(51)]
        t[3] = 0  # a copy of the memo's prefix, so the memo keeps p(3)
        assert p_recurrence(3) == 3
        t = build_table("q", 50)
        assert t == [q_recurrence(n) for n in range(51)]

    def test_build_rejects_negative_max_n(self):
        with pytest.raises(DomainError):
            build_table("p", -1)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_table("r", 10)

    @pytest.mark.parametrize("kind,max_n", _AUDITED_TABLES)
    def test_untouched_table_loads(self, kind, max_n):
        assert _failures(kind, build_table(kind, max_n)) == []

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("kind,max_n,index", _AUDITED)
    def test_load_rejects_corrupt_value(self, kind, max_n, index, delta):
        # one entry moved by one fails its own step, and no step below it
        values = build_table(kind, max_n)
        values[index] += delta
        assert _failures(kind, values)[:1] == [index]

    def test_load_rejects_wholesale_corruption(self):
        values = [v + 1 for v in build_table("p", 40)]
        assert _failures("p", values)[:1] == [0]

    @pytest.mark.parametrize("kind,upto", [("p", 300), ("q", 300)])
    def test_load_rejects_wrong_seed(self, kind, upto):
        # the recurrence grown from the wrong seed 2 (for p, every entry
        # doubled); past the seed each table satisfies its recurrence, so
        # only the seed's own step catches it
        values = [2]
        for n in range(1, upto + 1):
            values.append(counting._next(kind, values, n))
        assert _failures(kind, values) == [0]


@given(st.integers(min_value=0, max_value=600))
def test_residual_and_triangular_agree(n):
    assert q_recurrence_residual(n) == (1 if is_triangular(n) else 0)
    assert is_triangular(n) == (math.isqrt(8 * n + 1) ** 2 == 8 * n + 1)
