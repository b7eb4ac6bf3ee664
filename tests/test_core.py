import itertools

import pytest
from hypothesis import given, strategies as st

from fibcomp.core import (
    BitSeq,
    Composition,
    DomainError,
    Partition,
    conjugate,
    format_composition,
    from_bitseq,
    make_composition,
    check_size,
    parse_composition,
    render_graph,
    to_bitseq,
)

from _oracles import compositions_bitmask


def comp(*parts):
    return make_composition(parts)


def all_compositions(n):
    for bits in itertools.product((0, 1), repeat=n - 1):
        yield from_bitseq(BitSeq(bits))


class TestMakeComposition:
    def test_worked_example(self):
        c = comp(2, 4, 1, 1, 5)
        assert c.n == 13
        assert c.ell == 5

    def test_single_part(self):
        c = comp(4)
        assert (c.n, c.ell) == (4, 1)

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match=r"^composition must have at least one part\Z"):
            make_composition([])

    def test_rejects_nonpositive_part(self):
        with pytest.raises(DomainError, match=r"^part 0 at position 0 is not a positive integer\Z"):
            make_composition([0, 3])
        with pytest.raises(DomainError, match=r"^part -1 at position 1 is not a positive integer\Z"):
            make_composition([2, -1])

    def test_immutable(self):
        c = comp(1, 2)
        with pytest.raises(Exception):
            c.parts = (3,)


class TestTextFormat:
    def test_parse_and_format(self):
        assert parse_composition("2+4+1+1+5") == comp(2, 4, 1, 1, 5)
        assert format_composition(comp(2, 4, 1, 1, 5)) == "2+4+1+1+5"
        assert parse_composition("7") == comp(7)

    @pytest.mark.parametrize("bad", ["", "+1", "1+", "1++2", "1 + 2", "01", "a+b", "1+02"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_composition(bad)

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
    def test_roundtrip(self, parts):
        c = make_composition(parts)
        assert parse_composition(format_composition(c)) == c


class TestBitSeq:
    def test_worked_example(self):
        assert str(to_bitseq(comp(2, 4, 1, 1, 5))) == "010001110000"

    def test_single_part(self):
        assert str(to_bitseq(comp(4))) == "000"

    def test_all_ones(self):
        assert str(to_bitseq(comp(1, 1, 1, 1))) == "111"

    def test_from_worked_example(self):
        bits = BitSeq((0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0))
        assert from_bitseq(bits) == comp(2, 4, 1, 1, 5)

    def test_empty_is_one(self):
        assert from_bitseq(BitSeq(())) == comp(1)

    def test_two_zeros_is_three(self):
        assert from_bitseq(BitSeq((0, 0))) == comp(3)

    def test_length_matches_n(self):
        for n in range(1, 10):
            for c in all_compositions(n):
                assert len(to_bitseq(c).bits) == n - 1

    def test_rejects_nonbinary(self):
        for bits, bad in [((0, 2), "2"), ((True, 0), "True"), ((1.0, 0), "1.0")]:
            with pytest.raises(DomainError, match=rf"^bit value {bad} is not 0 or 1\Z"):
                BitSeq(bits)

    def test_roundtrip_exhaustive(self):
        # every composition of n <= 12, via every bitseq of length n-1
        for n in range(1, 13):
            for bits in itertools.product((0, 1), repeat=n - 1):
                b = BitSeq(bits)
                assert to_bitseq(from_bitseq(b)) == b

    def test_matches_independent_bitmask_oracle(self):
        for n in range(1, 13):
            assert {c.parts for c in all_compositions(n)} == compositions_bitmask(n)


class TestConjugate:
    def test_worked_example(self):
        assert conjugate(comp(2, 4, 1, 1, 5)) == parse_composition("1+2+1+1+4+1+1+1+1")

    def test_single_part(self):
        assert conjugate(comp(6)) == comp(*([1] * 6))

    def test_involution_exhaustive(self):
        for n in range(1, 13):
            for c in all_compositions(n):
                assert conjugate(conjugate(c)) == c

    def test_part_count_law(self):
        for n in range(1, 13):
            for c in all_compositions(n):
                assert conjugate(c).ell == n - c.ell + 1

    def test_preserves_n(self):
        for n in range(1, 13):
            for c in all_compositions(n):
                assert conjugate(c).n == n


def zero_runs(bits):
    runs = []
    run = 0
    for b in bits:
        if b == 0:
            run += 1
        else:
            if run:
                runs.append(run)
            run = 0
    if run:
        runs.append(run)
    return runs


class TestOddPartsCharacterization:
    def test_even_zero_runs(self):
        for n in range(1, 11):
            for c in all_compositions(n):
                odd = all(p % 2 == 1 for p in c.parts)
                runs_even = all(r % 2 == 0 for r in zero_runs(to_bitseq(c).bits))
                assert odd == runs_even

    def test_dual_even_index_parts_are_ones(self):
        # the even-index-ones condition alone is not sufficient (c = 2 has
        # conjugate 1+1); the part count must also be odd
        for n in range(1, 11):
            for c in all_compositions(n):
                odd = all(p % 2 == 1 for p in c.parts)
                conj = conjugate(c)
                dual = conj.ell % 2 == 1 and all(p == 1 for p in conj.parts[1::2])
                assert odd == dual


class TestRenderGraph:
    def test_worked_example(self):
        assert render_graph(comp(2, 4, 1, 1, 5)) == "−−·−−−−·−·−·−−−−−"

    def test_single_unit(self):
        assert render_graph(comp(1)) == "−"

    def test_two_units(self):
        assert render_graph(comp(1, 1)) == "−·−"

    def test_glyph_counts(self):
        for n in range(1, 9):
            for c in all_compositions(n):
                text = render_graph(c)
                assert text.count("−") == n
                assert text.count("·") == c.ell - 1


class TestPartition:
    def test_accepts_weakly_decreasing(self):
        p = Partition((5, 3, 3, 1))
        assert p.n == 12
        assert len(p.parts) == 4
        assert str(p) == "5+3+3+1"

    def test_empty_allowed(self):
        p = Partition(())
        assert p.n == 0
        assert str(p) == ""

    def test_rejects_increasing(self):
        with pytest.raises(DomainError, match=r"^partition parts must be weakly decreasing\Z"):
            Partition((1, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError, match=r"^part 0 at position 1 is not a positive integer\Z"):
            Partition((3, 0))
        # the parts are checked before the order
        with pytest.raises(DomainError, match=r"^part 0 at position 2 is not a positive integer\Z"):
            Partition((1, 3, 0))

    def test_never_equals_a_composition_with_the_same_parts(self):
        p, c = Partition((3, 1, 1)), comp(3, 1, 1)
        assert p != c and c != p
        assert str(p) == str(c) == format_composition(c) == "3+1+1"
        assert (repr(p), repr(c)) == ("Partition(parts=(3, 1, 1))", "Composition(parts=(3, 1, 1))")


# a bool is an int to isinstance, but no part: True+2 would be text that
# parse_composition refuses
@pytest.mark.parametrize("kind", [Composition, Partition])
@pytest.mark.parametrize("part", [True, 1.0, "1"])
def test_part_must_be_a_plain_int(kind, part):
    with pytest.raises(DomainError) as refused:
        kind((2, part))
    assert str(refused.value) == f"part {part!r} at position 1 is not a positive integer"


# True and 2.5 lie above the floor 0 and are refused for their type alone
@pytest.mark.parametrize("size", [True, 2.5, "3", -1])
def test_check_size_takes_plain_ints_at_or_above_the_floor(size):
    assert check_size(0, 0, "fibonacci needs n") is None
    with pytest.raises(DomainError) as refused:
        check_size(size, 0, "fibonacci needs n")
    assert str(refused.value) == f"fibonacci needs n >= 0, got {size!r}"


@given(st.lists(st.sampled_from((0, 1)), max_size=64).map(tuple))
def test_bitseq_roundtrip_property(bits):
    b = BitSeq(bits)
    assert to_bitseq(from_bitseq(b)) == b
    assert from_bitseq(b).n == len(bits) + 1


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10))
def test_conjugate_involution_property(parts):
    c = make_composition(parts)
    assert conjugate(conjugate(c)) == c
