import math

import pytest
from hypothesis import given, strategies as st

from fibcomp.core import DomainError
from fibcomp.counting import c_count, p_recurrence, q_recurrence
from fibcomp.enumeration import CompositionClass, PartitionClass, count_by_enumeration
from fibcomp.genfun import (
    TruncatedSeries,
    compositions_gf,
    distinct_compositions_gf,
    distinct_partitions_ell_gf,
    partition_gf,
    series_inverse,
    series_mul,
)


def S(*coeffs):
    return TruncatedSeries(tuple(coeffs))


class TestSeriesType:
    def test_order_and_coefficient(self):
        s = S(1, 0, -3)
        assert s.order == 2
        assert s.coefficient(2) == -3
        with pytest.raises(DomainError):
            s.coefficient(3)
        with pytest.raises(DomainError):
            s.coefficient(-1)

    def test_from_list_pads_and_truncates(self):
        assert TruncatedSeries.from_list([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
        assert TruncatedSeries.from_list([1, 2, 3, 4], 2).coeffs == (1, 2, 3)

    def test_rejects_empty_and_nonint(self):
        with pytest.raises(DomainError, match=r"^series needs at least the constant coefficient\Z"):
            TruncatedSeries(())
        for bad in (0.5, True):
            with pytest.raises(DomainError, match=rf"^non-integer coefficient {bad}\Z"):
                TruncatedSeries((1, bad))

    def test_add_sub_truncate_to_min_order(self):
        a = S(1, 2, 3, 4)
        b = S(1, 1)
        assert (a + b).coeffs == (2, 3)
        assert (a - b).coeffs == (0, 1)

    def test_monomial_beyond_order_is_zero(self):
        assert TruncatedSeries.monomial(5, 3).coeffs == (0, 0, 0, 0)

    def test_rejects_negative_order_and_power(self):
        with pytest.raises(DomainError):
            TruncatedSeries.from_list([1], -1)
        with pytest.raises(DomainError):
            TruncatedSeries.monomial(-1, 3)


class TestMul:
    def test_difference_of_squares(self):
        got = series_mul(TruncatedSeries.from_list([1, 1], 4), TruncatedSeries.from_list([1, -1], 4))
        assert got.coeffs == (1, 0, -1, 0, 0)

    def test_geometric_telescope(self):
        geo = TruncatedSeries.from_list([1] * 9)
        got = series_mul(geo, TruncatedSeries.from_list([1, -1], 8))
        assert got.coeffs == (1,) + (0,) * 8

    def test_euler_product_matches_partition_recurrence(self):
        n = 8
        prod = TruncatedSeries.one(n)
        for j in range(1, n + 1):
            factor = TruncatedSeries.one(n) - TruncatedSeries.monomial(j, n)
            prod = series_mul(prod, series_inverse(factor))
        assert prod.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)

    def test_truncates_to_min_order(self):
        got = series_mul(S(1, 1, 1), S(1, 1, 1, 1, 1, 1))
        assert got.order == 2


class TestInverse:
    def test_geometric(self):
        assert series_inverse(TruncatedSeries.from_list([1, -1], 5)).coeffs == (1,) * 6

    def test_identity(self):
        assert series_inverse(TruncatedSeries.one(4)).coeffs == (1, 0, 0, 0, 0)

    def test_powers_of_two(self):
        assert series_inverse(TruncatedSeries.from_list([1, -2], 5)).coeffs == (1, 2, 4, 8, 16, 32)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(DomainError):
            series_inverse(S(2, 1))
        with pytest.raises(DomainError):
            series_inverse(S(0, 1))

    def test_negative_unit(self):
        a = TruncatedSeries.from_list([-1, 3, 1], 6)
        assert series_mul(a, series_inverse(a)).coeffs == (1,) + (0,) * 6


class TestPartitionGF:
    def test_small(self):
        assert partition_gf(4).coeffs == (1, 1, 2, 3, 5)
        assert partition_gf(0).coeffs == (1,)

    def test_twenty(self):
        assert partition_gf(20).coefficient(20) == 627

    def test_matches_recurrence_and_enumeration(self):
        series = partition_gf(40)
        for n in range(41):
            assert series.coefficient(n) == p_recurrence(n)
        for n in range(26):
            assert series.coefficient(n) == count_by_enumeration(n, PartitionClass("all"))

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            partition_gf(-1)


class TestCompositionsGF:
    def test_small(self):
        assert compositions_gf(4).coeffs == (0, 1, 2, 4, 8)
        assert compositions_gf(1).coefficient(1) == 1

    def test_thirteen(self):
        assert compositions_gf(13).coefficient(13) == 4096

    def test_matches_counter(self):
        series = compositions_gf(30)
        assert series.coefficient(0) == 0
        for n in range(1, 31):
            assert series.coefficient(n) == c_count(n)

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            compositions_gf(0)


class TestDistinctEllGF:
    def test_single_part(self):
        assert distinct_partitions_ell_gf(1, 5).coeffs == (0, 1, 1, 1, 1, 1)

    def test_empty(self):
        assert distinct_partitions_ell_gf(0, 3).coeffs == (1, 0, 0, 0)

    def test_two_parts_of_eight(self):
        assert distinct_partitions_ell_gf(2, 8).coefficient(8) == 3

    def test_staircase_beyond_order(self):
        assert distinct_partitions_ell_gf(6, 10).coeffs == (0,) * 11

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            distinct_partitions_ell_gf(1, -1)

    def test_matches_enumeration(self):
        for ell in range(0, 6):
            series = distinct_partitions_ell_gf(ell, 20)
            for n in range(21):
                assert series.coefficient(n) == count_by_enumeration(
                    n, PartitionClass("distinct-ell", ell)
                )


class TestDistinctCompositionsGF:
    def test_small(self):
        assert distinct_compositions_gf(6).coeffs == (1, 1, 1, 3, 3, 5, 11)

    def test_constant(self):
        assert distinct_compositions_gf(0).coeffs == (1,)

    def test_coefficient_three(self):
        assert distinct_compositions_gf(3).coefficient(3) == 3

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            distinct_compositions_gf(-1)

    def test_matches_the_per_ell_sum(self):
        for N in range(61):
            want = [0] * (N + 1)
            ell = 0
            while ell * (ell + 1) // 2 <= N:
                for i, c in enumerate(distinct_partitions_ell_gf(ell, N).coeffs):
                    want[i] += math.factorial(ell) * c
                ell += 1
            assert distinct_compositions_gf(N).coeffs == tuple(want), N

    def test_matches_enumeration(self):
        series = distinct_compositions_gf(20)
        for n in range(1, 21):
            assert series.coefficient(n) == count_by_enumeration(
                n, CompositionClass("distinct-parts")
            )


class TestIdentities:
    def test_euler_identity_order_forty(self):
        n = 40
        odd_prod = TruncatedSeries.one(n)
        for j in range(1, n + 1, 2):
            odd_prod = series_mul(
                odd_prod, series_inverse(TruncatedSeries.one(n) - TruncatedSeries.monomial(j, n))
            )
        distinct_prod = TruncatedSeries.one(n)
        for j in range(1, n + 1):
            distinct_prod = series_mul(
                distinct_prod, TruncatedSeries.one(n) + TruncatedSeries.monomial(j, n)
            )
        assert odd_prod.coeffs == distinct_prod.coeffs
        for i in range(n + 1):
            assert odd_prod.coefficient(i) == q_recurrence(i)

    def test_pentagonal_identity_order_forty(self):
        n = 40
        euler_prod = TruncatedSeries.one(n)
        for j in range(1, n + 1):
            euler_prod = series_mul(
                euler_prod, TruncatedSeries.one(n) - TruncatedSeries.monomial(j, n)
            )
        assert series_mul(partition_gf(n), euler_prod).coeffs == (1,) + (0,) * n
        # the nonzero exponents of the product are exactly the pentagonal numbers
        pent = {j * (3 * j - 1) // 2 for j in range(1, 6)} | {j * (3 * j + 1) // 2 for j in range(1, 6)}
        for i in range(1, n + 1):
            assert (euler_prod.coefficient(i) != 0) == (i in pent)


small_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8).map(
    lambda cs: TruncatedSeries(tuple(cs))
)
unit_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7).flatmap(
    lambda tail: st.sampled_from((1, -1)).map(lambda u: TruncatedSeries(tuple([u] + tail)))
)


@given(small_series, small_series)
def test_mul_commutative(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@given(small_series, small_series, small_series)
def test_mul_distributes_over_add(a, b, c):
    n = min(a.order, b.order, c.order)

    def cut(s):
        return TruncatedSeries(s.coeffs[: n + 1])

    lhs = series_mul(cut(a), cut(b) + cut(c))
    rhs = series_mul(cut(a), cut(b)) + series_mul(cut(a), cut(c))
    assert lhs == rhs


@given(unit_series)
def test_inverse_roundtrip(a):
    inv = series_inverse(a)
    assert series_mul(a, inv).coeffs == (1,) + (0,) * a.order
    assert series_inverse(inv) == a
