import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from fibcomp import counting, enumeration, genfun
from fibcomp.core import DomainError
from fibcomp.enumeration import (
    CompositionClass,
    PartitionClass,
    gen_class,
    parse_class,
    tally_by_enumeration,
)

from _oracles import fib_list, partitions_ascending, compositions_bitmask


def comp_parts(n, kind):
    return [c.parts for c in gen_class(n, CompositionClass(kind))]


def part_parts(n, kind, ell=None):
    return [p.parts for p in gen_class(n, PartitionClass(kind, ell))]


def registry_examples():
    """One class per registry entry; classes indexed by ell take a few ell."""
    for name, spec in enumeration.CLASSES.items():
        for suffix in ("=0", "=2", "=3") if spec.takes_ell else ("",):
            yield parse_class(name + suffix)


class TestClassParsing:
    def test_composition_classes(self):
        assert parse_class("compositions:all") == CompositionClass("all")
        assert parse_class("compositions:odd-parts") == CompositionClass("odd-parts")
        assert parse_class("compositions:min-part-2") == CompositionClass("min-part-2")
        assert parse_class("compositions:distinct-parts") == CompositionClass("distinct-parts")

    def test_partition_classes(self):
        assert parse_class("partitions:all") == PartitionClass("all")
        assert parse_class("partitions:distinct-ell=3") == PartitionClass("distinct-ell", 3)

    def test_str_roundtrip(self):
        for text in (
            "compositions:all",
            "compositions:odd-parts",
            "partitions:distinct-parts",
            "partitions:distinct-ell=0",
            "partitions:distinct-ell=7",
        ):
            assert str(parse_class(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "compositions",
            "compositions:even-parts",
            "partitions:min-part-2",
            "partitions:distinct-ell",
            "partitions:distinct-ell=-1",
            "partitions:distinct-ell=x",
            "partitions:distinct-ell=\u00b2",
            "partitions:distinct-ell=\uff13",
            "widgets:all",
            "compositions:all:extra",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_class(bad)

    def test_ell_only_for_distinct_ell(self):
        with pytest.raises(DomainError):
            PartitionClass("all", 3)
        with pytest.raises(DomainError):
            PartitionClass("distinct-ell")

    @pytest.mark.parametrize(
        "kind", sorted({key.partition(":")[2] for key, s in enumeration.CLASSES.items() if not s.takes_ell})
    )
    @pytest.mark.parametrize("family", [CompositionClass, PartitionClass])
    def test_no_ell_for_a_class_without_one(self, family, kind):
        with pytest.raises(DomainError):
            family(kind, 2)

    @pytest.mark.parametrize("ell", [None, -1, True, 2.0, 3.5, "3"])
    def test_ell_must_be_a_non_negative_int(self, ell):
        with pytest.raises(DomainError, match="distinct-ell class needs ell >= 0"):
            PartitionClass("distinct-ell", ell)


class TestCompositionGolden:
    def test_eight_compositions_of_four(self):
        got = comp_parts(4, "all")
        assert got == [
            (1, 1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 3),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]
        assert set(got) == {
            (4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1),
        }

    def test_singleton(self):
        assert comp_parts(1, "all") == [(1,)]

    def test_odd_parts_of_five(self):
        got = comp_parts(5, "odd-parts")
        assert set(got) == {(5,), (3, 1, 1), (1, 3, 1), (1, 1, 3), (1, 1, 1, 1, 1)}
        assert len(got) == 5

    def test_min_part_two_of_six(self):
        got = comp_parts(6, "min-part-2")
        assert set(got) == {(6,), (4, 2), (2, 4), (3, 3), (2, 2, 2)}

    def test_distinct_of_six(self):
        got = comp_parts(6, "distinct-parts")
        assert len(got) == 11
        assert (1, 2, 3) in got and (3, 2, 1) in got and (2, 1, 3) in got
        assert set(got) >= {(6,), (1, 5), (5, 1), (2, 4), (4, 2)}


class TestPartitionGolden:
    def test_five_partitions_of_four(self):
        assert part_parts(4, "all") == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_distinct_of_eight(self):
        assert part_parts(8, "distinct-parts") == [
            (8,), (7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1),
        ]

    def test_odd_of_eight(self):
        assert part_parts(8, "odd-parts") == [
            (7, 1),
            (5, 3),
            (5, 1, 1, 1),
            (3, 3, 1, 1),
            (3, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1, 1, 1),
        ]

    def test_zero_yields_empty_partition(self):
        for kind in ("all", "odd-parts", "distinct-parts"):
            assert part_parts(0, kind) == [()]
        assert part_parts(0, "distinct-ell", 0) == [()]
        assert part_parts(0, "distinct-ell", 1) == []

    def test_distinct_ell(self):
        assert part_parts(8, "distinct-ell", 2) == [(7, 1), (6, 2), (5, 3)]
        assert part_parts(8, "distinct-ell", 3) == [(5, 2, 1), (4, 3, 1)]
        assert part_parts(8, "distinct-ell", 4) == []


class TestOrderContracts:
    @pytest.mark.parametrize("cls", list(registry_examples()), ids=str)
    def test_order_and_no_duplicates(self, cls):
        # compositions lexicographic, partitions largest-first
        largest_first = cls.family == "partitions"
        for n in range(enumeration.class_spec(cls).min_n, 13):
            got = [item.parts for item in gen_class(n, cls)]
            assert got == sorted(got, reverse=largest_first), n
            assert len(got) == len(set(got)), n


class TestTally:
    @pytest.mark.parametrize("cls", list(registry_examples()), ids=str)
    def test_one_walk_counts_every_stream(self, cls):
        # the walk from 14 reaches the members of each smaller size that the
        # stream of that size yields, and no other sequence
        tally = tally_by_enumeration(14, cls)
        assert len(tally) == 15
        for n in range(enumeration.class_spec(cls).min_n, 15):
            assert tally[n] == sum(1 for _ in gen_class(n, cls)), n

    # sha256 over one line "top ell rest parts" per item that _walk yields, for
    # top = 0..20 (and ell = 0..6 for distinct-ell): a change to a row's rule
    # that moves any member or prefix, or its order, shows here
    _PINNED_WALKS = {
        "partitions:all": "00e3807c705c399b469d2c20d64bbd414720c52c766e453a42ebd1be9d72ef06",
        "partitions:odd-parts": "51b1cfea1a50cdba028bbdc7b5525156018ca2bdbb68d781436253cdfd689847",
        "partitions:distinct-parts": "e45b06b1e7fd9ea21ae13109f7b2e139ac9064338266f12a05f870974336660e",
        "partitions:distinct-ell": "44cf64d2a21184a9ba764587af481ec2cc73da7141ff314b5d5f8191e7c974d5",
    }

    @pytest.mark.parametrize("key", list(_PINNED_WALKS))
    def test_partition_walks_are_pinned(self, key):
        spec = enumeration.CLASSES[key]
        digest = hashlib.sha256()
        for ell in range(7) if spec.takes_ell else (None,):
            for top in range(21):
                for rest, parts in enumeration._walk(top, spec.rule, ell):
                    digest.update(f"{top} {ell} {rest} {parts}\n".encode())
        assert digest.hexdigest() == self._PINNED_WALKS[key]

    def test_tally_checks_its_domain(self):
        with pytest.raises(DomainError):
            tally_by_enumeration(1, CompositionClass("min-part-2"))
        with pytest.raises(DomainError):
            tally_by_enumeration(-1, PartitionClass("all"))


class TestAgainstOracles:
    def test_compositions_match_bitmask_oracle(self):
        for n in range(1, 13):
            universe = compositions_bitmask(n)
            assert set(comp_parts(n, "all")) == universe
            assert set(comp_parts(n, "odd-parts")) == {
                t for t in universe if all(p % 2 for p in t)
            }
            assert set(comp_parts(n, "distinct-parts")) == {
                t for t in universe if len(set(t)) == len(t)
            }
            if n >= 2:
                assert set(comp_parts(n, "min-part-2")) == {
                    t for t in universe if min(t) >= 2
                }

    def test_partitions_match_recursive_oracle(self):
        for n in range(0, 13):
            universe = partitions_ascending(n)
            assert set(part_parts(n, "all")) == universe
            assert set(part_parts(n, "odd-parts")) == {
                t for t in universe if all(p % 2 for p in t)
            }
            distinct = {t for t in universe if len(set(t)) == len(t)}
            assert set(part_parts(n, "distinct-parts")) == distinct
            for ell in range(0, 6):
                assert set(part_parts(n, "distinct-ell", ell)) == {
                    t for t in distinct if len(t) == ell
                }


class TestCountingLaws:
    def test_universe_size(self):
        for n in range(1, 17):
            assert tally_by_enumeration(n, CompositionClass("all"))[n] == 2 ** (n - 1)

    def test_euler_at_desk_scale(self):
        for n in range(0, 41):
            assert tally_by_enumeration(n, PartitionClass("odd-parts"))[n] == tally_by_enumeration(
                n, PartitionClass("distinct-parts")
            )[n]

    def test_fibonacci_laws(self):
        fib = fib_list(26)
        for n in range(1, 26):
            assert tally_by_enumeration(n, CompositionClass("odd-parts"))[n] == fib[n]
            assert tally_by_enumeration(n + 1, CompositionClass("min-part-2"))[n + 1] == fib[n]

    def test_distinct_link(self):
        for n in range(1, 21):
            lhs = tally_by_enumeration(n, CompositionClass("distinct-parts"))[n]
            rhs = 0
            ell = 0
            while ell * (ell + 1) // 2 <= n:
                rhs += math.factorial(ell) * tally_by_enumeration(
                    n, PartitionClass("distinct-ell", ell)
                )[n]
                ell += 1
            assert lhs == rhs


class TestErrors:
    def test_compositions_reject_nonpositive(self):
        with pytest.raises(DomainError):
            list(gen_class(0, CompositionClass("all")))
        with pytest.raises(DomainError):
            list(gen_class(-3, CompositionClass("odd-parts")))

    def test_min_part_two_needs_two(self):
        with pytest.raises(DomainError):
            list(gen_class(1, CompositionClass("min-part-2")))

    def test_partitions_reject_negative(self):
        with pytest.raises(DomainError):
            list(gen_class(-1, PartitionClass("all")))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            CompositionClass("even-parts")
        with pytest.raises(DomainError):
            PartitionClass("min-part-2")


@given(st.integers(min_value=1, max_value=14))
def test_streams_stay_inside_their_class(n):
    for c in gen_class(n, CompositionClass("odd-parts")):
        assert all(p % 2 == 1 for p in c.parts)
        assert c.n == n
    for c in gen_class(n, CompositionClass("distinct-parts")):
        assert len(set(c.parts)) == c.ell
    if n >= 2:
        for c in gen_class(n, CompositionClass("min-part-2")):
            assert min(c.parts) >= 2
    for p in gen_class(n, PartitionClass("odd-parts")):
        assert all(x % 2 == 1 for x in p.parts)
        assert p.n == n


class TestClassRegistry:
    def test_kinds_and_series_derive_from_the_registry(self):
        assert list(enumeration.SERIES) == [
            "partitions", "compositions", "distinct-partitions", "distinct-compositions",
        ]

    @pytest.mark.parametrize("cls", list(registry_examples()), ids=str)
    def test_exact_count_matches_enumeration_and_series(self, cls):
        spec = enumeration.class_spec(cls)
        top = 12
        for n in range(spec.min_n, top + 1):
            want = tally_by_enumeration(n, cls)[n]
            assert enumeration.exact_count(n, cls) == want, n
            if spec.gf is not None:
                assert spec.gf(top, cls.ell).coefficient(n) == want, n

    @pytest.mark.parametrize("cls", list(registry_examples()), ids=str)
    def test_domain_errors_match_between_enumeration_and_count(self, cls):
        spec = enumeration.class_spec(cls)
        for n in range(spec.min_n - 3, spec.min_n):
            with pytest.raises(DomainError) as enumerated:
                enumeration.gen_class(n, cls)
            with pytest.raises(DomainError) as counted:
                enumeration.exact_count(n, cls)
            assert str(enumerated.value) == str(counted.value)

    def test_enumerators_do_not_use_counting_or_genfun(self, monkeypatch):
        # the generators are the oracles the fast paths are checked against
        def forbidden(*args, **kwargs):
            raise AssertionError("an enumerator called into counting or genfun")

        for module in (counting, genfun):
            for name, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", None) == module.__name__:
                    monkeypatch.setattr(module, name, forbidden)
        for cls in registry_examples():
            assert tally_by_enumeration(6, cls)[6] >= 0
