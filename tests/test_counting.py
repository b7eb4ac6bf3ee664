import errno
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fibcomp import counting
from fibcomp.core import DomainError
from fibcomp.counting import (
    MemoTable,
    Q_count,
    binet_first_failure,
    binet_float,
    build_table,
    c_count,
    cached_table,
    fibonacci,
    is_triangular,
    load_table,
    p_recurrence,
    q_recurrence,
    q_recurrence_residual,
    save_table,
)
from fibcomp.enumeration import CompositionClass, PartitionClass, count_by_enumeration

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
            assert c_count(n) == count_by_enumeration(n, CompositionClass("all"))

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
            assert Q_count(n) == count_by_enumeration(n, CompositionClass("odd-parts"))
            assert Q_count(n) == count_by_enumeration(n + 1, CompositionClass("min-part-2"))


class TestPartitionRecurrence:
    def test_examples(self):
        assert p_recurrence(0) == 1
        assert p_recurrence(4) == 5
        assert p_recurrence(20) == 627
        assert p_recurrence(100) == 190569292

    def test_matches_enumeration(self):
        for n in range(0, 41):
            assert p_recurrence(n) == count_by_enumeration(n, PartitionClass("all"))

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
            assert q == count_by_enumeration(n, PartitionClass("distinct-parts"))
            assert q == count_by_enumeration(n, PartitionClass("odd-parts"))

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
    assert build_table(kind, 1000).values == want


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
        assert literal[5] != count_by_enumeration(5, PartitionClass("distinct-parts"))
        assert q_recurrence(5) == count_by_enumeration(5, PartitionClass("distinct-parts"))


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


# every index load_table audits: index 0 and the sample it draws per (kind, max)
_AUDITED_TABLES = [(kind, max_n) for kind in ("p", "q") for max_n in (40, 300)]
_AUDITED = [
    (kind, max_n, index)
    for kind, max_n in _AUDITED_TABLES
    for index in sorted({0, *random.Random(f"{kind}:{max_n}").sample(range(max_n + 1), 16)})
]


class TestTables:
    def test_build_matches_functions(self):
        t = build_table("p", 50)
        assert list(t.values) == [p_recurrence(n) for n in range(51)]
        t.values[3] = 0  # a copy of the memo's prefix, so the memo keeps p(3)
        assert p_recurrence(3) == 3
        t = build_table("q", 50)
        assert list(t.values) == [q_recurrence(n) for n in range(51)]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "p.table"
        table = build_table("p", 64)
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.kind == "p"
        assert loaded.values == table.values

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit")
    def test_load_keeps_int_str_digit_limit(self, tmp_path):
        # a line past CPython's default 4300-digit limit is refused, not parsed;
        # p(n) first reaches 4300 digits near n = 1.5e7, so no real table has one
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            path = tmp_path / "p.table"
            path.write_text("fibcomp-table v1 kind=p max=1\n1\n" + "1" * 4301 + "\n", encoding="ascii")
            with pytest.raises(DomainError, match="non-integer table line"):
                load_table(path)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    def test_build_rejects_negative_max_n(self):
        with pytest.raises(DomainError):
            build_table("p", -1)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "p.table"
        path.write_bytes(b"")
        with pytest.raises(DomainError, match="empty table file"):
            load_table(path)

    def test_load_refuses_fib_table(self, tmp_path):
        # F_n comes from fast doubling; a fib table from an older version is unknown
        path = tmp_path / "fib.table"
        path.write_text("fibcomp-table v1 kind=fib max=5\n0\n1\n1\n2\n3\n5\n", encoding="ascii")
        with pytest.raises(DomainError, match="bad table header"):
            load_table(path)

    def test_load_rejects_non_ascii_byte(self, tmp_path):
        path = tmp_path / "p.table"
        path.write_bytes(b"fibcomp-table v1 kind=p max=2\n1\n1\n\xff\n")
        with pytest.raises(DomainError, match="p.table"):
            load_table(path)

    def test_header_format(self, tmp_path):
        path = tmp_path / "p.table"
        save_table(build_table("p", 5), path)
        lines = path.read_text("ascii").splitlines()
        assert lines[0] == "fibcomp-table v1 kind=p max=5"
        assert lines[1:] == ["1", "1", "2", "3", "5", "7"]

    @pytest.mark.parametrize("kind,max_n", _AUDITED_TABLES)
    def test_untouched_table_loads(self, tmp_path, kind, max_n):
        path = tmp_path / f"{kind}.table"
        save_table(build_table(kind, max_n), path)
        assert load_table(path).values == build_table(kind, max_n).values

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("kind,max_n,index", _AUDITED)
    def test_load_rejects_corrupt_value(self, tmp_path, kind, max_n, index, delta):
        path = tmp_path / f"{kind}.table"
        save_table(build_table(kind, max_n), path)
        lines = path.read_text("ascii").splitlines()
        lines[index + 1] = str(int(lines[index + 1]) + delta)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DomainError, match=rf"table fails its recurrence at index {index}\Z"):
            load_table(path)

    def test_load_rejects_wholesale_corruption(self, tmp_path):
        path = tmp_path / "p.table"
        save_table(build_table("p", 40), path)
        lines = path.read_text("ascii").splitlines()
        shifted = [lines[0]] + [str(int(v) + 1) for v in lines[1:]]
        path.write_text("\n".join(shifted) + "\n", encoding="ascii")
        with pytest.raises(DomainError):
            load_table(path)

    def test_load_rejects_tampered_header(self, tmp_path):
        path = tmp_path / "p.table"
        save_table(build_table("p", 10), path)
        text = path.read_text("ascii").replace("max=10", "max=11")
        path.write_text(text, encoding="ascii")
        with pytest.raises(DomainError):
            load_table(path)

    def test_load_rejects_truncation(self, tmp_path):
        path = tmp_path / "p.table"
        save_table(build_table("p", 10), path)
        lines = path.read_text("ascii").splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n", encoding="ascii")
        with pytest.raises(DomainError):
            load_table(path)

    @pytest.mark.parametrize("kind,upto", [("p", 300), ("q", 300)])
    def test_load_rejects_wrong_seed(self, tmp_path, kind, upto):
        # the recurrence grown from the wrong seed 2 (for p, every entry
        # doubled); past the seed each table satisfies its recurrence, so a
        # sample that skips index 0 passes it
        values = [2]
        for n in range(1, upto + 1):
            values.append(counting._next(kind, values, n))
        path = tmp_path / f"{kind}.table"
        save_table(MemoTable(kind, values), path)
        with pytest.raises(DomainError):
            load_table(path)

    def test_failed_write_leaves_old_table(self, tmp_path, monkeypatch):
        path = tmp_path / "p.table"
        save_table(build_table("p", 50), path)
        before = path.read_bytes()

        def write_half_then_fail(self, data, encoding=None, errors=None, newline=None):
            with open(self, "w", encoding=encoding) as handle:
                handle.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError) as failed:
            save_table(build_table("p", 400), path)
        monkeypatch.undo()
        assert (failed.value.errno, failed.value.filename) == (28, str(path))  # not the temporary's
        assert str(failed.value) == f"cannot write {path}: No space left on device"
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.table"]

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "path-through-a-file"])
    def test_cache_dir_naming_a_file_says_so(self, tmp_path, below):
        path = tmp_path / "not-a-directory"
        path.write_bytes(b"")
        cache = path / below if below else path
        with pytest.raises(NotADirectoryError, match=f"^{re.escape(str(cache))}: cache path is not a directory$"):
            cached_table("p", 5, cache)
        assert path.read_bytes() == b""

    def test_a_failed_cached_write_is_one_fixed_error_line(self, tmp_path, monkeypatch):
        # the temporary file's name is random; the error names the table
        def fail(self, data, encoding=None, errors=None, newline=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fail)
        messages = []
        for _ in range(2):
            with pytest.raises(OSError) as failed:
                cached_table("p", 5, tmp_path)
            messages.append(str(failed.value))
        assert messages[0] == messages[1]
        assert "\n" not in messages[0]
        assert "p.table" in messages[0] and ".tmp" not in messages[0]

    @pytest.mark.parametrize("owner,step", [(Path, "write_text"), (os, "replace")], ids=["write_text", "replace"])
    def test_a_failed_cached_write_says_the_table_could_not_be_written(self, tmp_path, monkeypatch, owner, step):
        def fail(*args, **kwargs):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT))

        monkeypatch.setattr(owner, step, fail)
        want = f"cannot write {tmp_path / 'p.table'}: {os.strerror(errno.ENOENT)}"
        for _ in range(2):
            with pytest.raises(OSError) as failed:
                cached_table("p", 5, tmp_path)
            assert str(failed.value) == want

    def test_concurrent_writers_and_readers(self, tmp_path):
        # two processes take turns extending one p table, each loading the
        # file between its own writes; a torn or interleaved write fails a load
        worker = textwrap.dedent(
            """
            import sys, time
            from pathlib import Path
            from fibcomp.counting import cached_table, load_table
            directory, first = Path(sys.argv[1]), int(sys.argv[2])
            (directory / f"ready-{first}").touch()
            deadline = time.monotonic() + 30
            while len(list(directory.glob("ready-*"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            for m in range(first, 1200, 2):
                cached_table("p", m, directory)
                load_table(directory / "p.table")
            """
        )
        src = str(Path(counting.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", worker, str(tmp_path), str(first)],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for first in (100, 101)
        ]
        for proc in workers:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        table = load_table(tmp_path / "p.table")
        assert table.max_n >= 1198
        assert table.values == build_table("p", table.max_n).values
        assert sorted(p.name for p in tmp_path.glob("*table*")) == ["p.table"]

    def test_cached_table_builds_then_reuses(self, tmp_path):
        t1 = cached_table("p", 30, tmp_path)
        assert (tmp_path / "p.table").exists()
        t2 = cached_table("p", 20, tmp_path)
        assert t2.values[:21] == t1.values[:21]

    def test_cached_table_extends(self, tmp_path):
        cached_table("q", 10, tmp_path)
        t = cached_table("q", 80, tmp_path)
        assert t.max_n >= 80
        assert t.values[80] == q_recurrence(80)
        reloaded = load_table(tmp_path / "q.table")
        assert reloaded.max_n >= 80

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_cached_table_never_grows_a_file(self, tmp_path, kind):
        # entry 300 raised by 1: no sampled index is 300 and no sampled entry's
        # recurrence reads it, so the file loads; the read at 300 checks that
        # entry, and a read past it rebuilds the whole table from the memo
        path = tmp_path / f"{kind}.table"
        table = build_table(kind, 300)
        table.values[300] += 1
        save_table(table, path)
        assert load_table(path).values == table.values
        with pytest.raises(DomainError, match=rf"{kind}\.table: table fails its recurrence at index 300\Z"):
            cached_table(kind, 300, tmp_path)
        assert load_table(path).values == table.values
        assert cached_table(kind, 400, tmp_path).values[400] == counting._memo_value(kind, 400)
        assert load_table(path).values == build_table(kind, 400).values
        assert cached_table(kind, 300, tmp_path).values[300] == counting._memo_value(kind, 300)

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_a_short_file_is_replaced_unparsed(self, tmp_path, kind):
        # a body line that is no integer is never read from a file shorter than n
        path = tmp_path / f"{kind}.table"
        save_table(build_table(kind, 300), path)
        lines = path.read_text("ascii").splitlines()
        lines[151] = "x"  # entry 150
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        assert cached_table(kind, 400, tmp_path).values[400] == counting._memo_value(kind, 400)
        assert load_table(path) == build_table(kind, 400)

    @pytest.mark.parametrize("kind,other", [("p", "q"), ("q", "p")])
    def test_a_short_file_of_another_kind_is_replaced(self, tmp_path, kind, other):
        path = tmp_path / f"{kind}.table"
        save_table(build_table(other, 300), path)
        assert cached_table(kind, 400, tmp_path) == build_table(kind, 400)
        assert load_table(path) == build_table(kind, 400)

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_load_audits_the_entry_it_covers(self, tmp_path, kind):
        # entry 300 raised by 1 is outside the sample and read by no sampled entry
        path = tmp_path / f"{kind}.table"
        table = build_table(kind, 300)
        table.values[300] += 1
        save_table(table, path)
        with pytest.raises(DomainError, match=rf"{kind}\.table: table fails its recurrence at index 300\Z"):
            load_table(path, 300)
        assert load_table(path) == table
        assert load_table(path, 301) is None
        # one loop: with a sampled entry wrong too, the smaller index is reported
        sampled = min(i for k, max_n, i in _AUDITED if (k, max_n) == (kind, 300) and i > 0)
        table.values[sampled] += 1
        save_table(table, path)
        with pytest.raises(DomainError, match=rf"at index {sampled}\Z"):
            load_table(path, 300)

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_a_short_file_costs_no_recurrence_step(self, tmp_path, kind, monkeypatch):
        # with the memo warm, replacing a shorter file audits none of its entries
        build_table(kind, 400)
        save_table(build_table(kind, 300), tmp_path / f"{kind}.table")
        steps = []
        real = counting._next
        monkeypatch.setattr(counting, "_next", lambda *args: steps.append(args[2]) or real(*args))
        assert cached_table(kind, 400, tmp_path) == build_table(kind, 400)
        assert steps == []

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_a_short_file_is_read_to_its_header_only(self, tmp_path, kind, monkeypatch):
        # a non-ASCII byte in the body of a file shorter than n is never read;
        # the same file read where it covers is refused at the byte's offset
        path = tmp_path / f"{kind}.table"
        save_table(build_table(kind, 300), path)
        data = path.read_bytes()
        header = data[: data.index(b"\n") + 1]
        offset = data.index(b"\n", len(header) + 1000) - 1
        path.write_bytes(data[:offset] + b"\xff" + data[offset + 1 :])
        chunks = []
        real_open = Path.open

        class Spy:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def readline(self, *args):
                chunks.append(self.handle.readline(*args))
                return chunks[-1]

            def read(self, *args):
                chunks.append(self.handle.read(*args))
                return chunks[-1]

        monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: Spy(real_open(self, *args, **kwargs)))
        assert load_table(path, 301) is None
        monkeypatch.undo()
        assert chunks == [header]
        with pytest.raises(DomainError, match=rf"{kind}\.table: non-ASCII byte in table file at offset {offset}\Z"):
            load_table(path, 300)
        assert cached_table(kind, 400, tmp_path) == build_table(kind, 400)
        assert load_table(path) == build_table(kind, 400)

    def test_load_needs_a_plain_covers(self, tmp_path):
        path = tmp_path / "p.table"
        save_table(build_table("p", 5), path)
        for covers in (-1, True, 2.5):
            with pytest.raises(DomainError, match="load_table needs covers >= 0"):
                load_table(path, covers)

    def test_cached_table_kind_mismatch(self, tmp_path):
        save_table(build_table("p", 10), tmp_path / "q.table")
        with pytest.raises(DomainError):
            cached_table("q", 10, tmp_path)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_table("r", 10)


@given(st.integers(min_value=0, max_value=600))
def test_residual_and_triangular_agree(n):
    assert q_recurrence_residual(n) == (1 if is_triangular(n) else 0)
    assert is_triangular(n) == (math.isqrt(8 * n + 1) ** 2 == 8 * n + 1)
