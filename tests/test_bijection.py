import pytest
from hypothesis import given, strategies as st

from fibcomp.bijection import gt1_to_odd, odd_to_gt1, trace_forward
from fibcomp.core import DomainError, conjugate, make_composition, parse_composition
from fibcomp.counting import fibonacci
from fibcomp.enumeration import CompositionClass, gen_class


def comp(text):
    return parse_composition(text)


odd_comps = st.integers(min_value=0, max_value=14).flatmap(
    lambda k: st.lists(
        st.integers(min_value=0, max_value=7).map(lambda x: 2 * x + 1),
        min_size=1,
        max_size=k + 1,
    )
).map(make_composition)


class TestWorkedExample:
    def test_forward(self):
        assert odd_to_gt1(comp("1+1+1+9+1+1+5+3")) == comp("5+2+2+2+5+2+3+2")

    def test_trace_intermediates(self):
        trace = trace_forward(comp("1+1+1+9+1+1+5+3"))
        assert trace.a == comp("1+1+1+9+1+1+5+3")
        assert trace.a_conj == comp("4+1+1+1+1+1+1+1+4+1+1+1+2+1+1")
        assert trace.b == comp("5+2+2+2+5+2+3+1")
        assert trace.c == comp("5+2+2+2+5+2+3+2")

    def test_reverse(self):
        assert gt1_to_odd(comp("5+2+2+2+5+2+3+2")) == comp("1+1+1+9+1+1+5+3")


class TestSmallCases:
    def test_singleton(self):
        assert odd_to_gt1(comp("1")) == comp("2")
        trace = trace_forward(comp("1"))
        assert (trace.a_conj, trace.b, trace.c) == (comp("1"), comp("1"), comp("2"))

    def test_all_ones(self):
        assert odd_to_gt1(comp("1+1+1")) == comp("4")
        assert odd_to_gt1(comp("1+1+1+1+1")) == comp("6")

    def test_single_odd_part(self):
        assert odd_to_gt1(comp("3")) == comp("2+2")
        assert odd_to_gt1(comp("5")) == comp("2+2+2")

    def test_reverse_small(self):
        assert gt1_to_odd(comp("2")) == comp("1")
        assert gt1_to_odd(comp("2+2")) == comp("3")
        assert gt1_to_odd(comp("4")) == comp("1+1+1")

    def test_reduced_last_part_stays_unsplit(self):
        # inverse of 3 -> 2+2: last part 2 becomes 1 and is carried whole
        assert gt1_to_odd(comp("2+2")) == comp("3")
        # last part 3 reduces to 2 and still is not split
        assert gt1_to_odd(comp("2+3")) == comp("3+1")
        assert odd_to_gt1(comp("3+1")) == comp("2+3")


class TestErrors:
    def test_even_part_named(self):
        with pytest.raises(DomainError) as exc:
            odd_to_gt1(comp("1+4+1"))
        assert "part 4" in str(exc.value)

    def test_part_one_named(self):
        with pytest.raises(DomainError) as exc:
            gt1_to_odd(comp("3+1+2"))
        assert "part 1 at position 1" in str(exc.value)

    def test_trace_rejects_even(self):
        with pytest.raises(DomainError):
            trace_forward(comp("2+2"))


class TestExhaustive:
    def test_roundtrip_and_image(self):
        for n in range(1, 15):
            odd = list(gen_class(n, CompositionClass("odd-parts")))
            image = [odd_to_gt1(a) for a in odd]
            for a, c in zip(odd, image):
                assert c.n == n + 1
                assert all(p >= 2 for p in c.parts)
                assert gt1_to_odd(c) == a
            target = list(gen_class(n + 1, CompositionClass("min-part-2")))
            assert set(image) == set(target)
            assert len(image) == len(set(image))

    def test_cardinality_fibonacci(self):
        for n in range(1, 26):
            assert sum(1 for _ in gen_class(n, CompositionClass("odd-parts"))) == fibonacci(n)

    def test_parity_lemma(self):
        for n in range(1, 15):
            for a in gen_class(n, CompositionClass("odd-parts")):
                assert (a.n - a.ell) % 2 == 0


@given(odd_comps)
def test_trace_invariants(a):
    trace = trace_forward(a)
    assert trace.a_conj == conjugate(a)
    assert trace.a_conj.ell % 2 == 1
    assert trace.b.parts[-1] == trace.a_conj.parts[-1]
    assert all(p >= 2 for p in trace.b.parts[:-1])
    assert trace.c.parts[:-1] == trace.b.parts[:-1]
    assert trace.c.parts[-1] == trace.b.parts[-1] + 1
    assert trace.c == odd_to_gt1(a)
    assert gt1_to_odd(trace.c) == a
