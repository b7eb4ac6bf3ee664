import contextlib
import importlib
import io
import json
import math
import os
import random
import select
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fibcomp import cli, counting, enumeration, verify
from fibcomp.core import BitSeq, Composition, ImaginaryResidueError, NonCertifiedError
from fibcomp.counting import fibonacci, p_recurrence, q_recurrence
from fibcomp.genfun import TruncatedSeries

from _oracles import p_table_coin_change


def _nudged(real):
    """real, moved by 2^-90: far below what the series need, far above the 2^-100 checks.
    An integer kernel's value is at the scale its last argument names."""
    def wrong(*args):
        value = real(*args)
        if isinstance(value, int):
            return value + (1 << max(args[-1] - 90, 0))
        from mpmath import mp

        with mp.workprec(256):
            return value + mp.mpf(2) ** -90
    return wrong


def _one_more_at(at):
    """real, one too high at n = at."""
    return lambda real: lambda n: real(n) + (n == at)


def _coefficient_one_more_at(at):
    """real, a series builder whose coefficient of x^at is one too high."""
    def wrong(real):
        def build(*args):
            coeffs = list(real(*args).coeffs)
            coeffs[at] += 1
            return TruncatedSeries(tuple(coeffs))
        return build
    return wrong


def _even_composition_at(at):
    """real, a composition stream whose odd-parts class also yields 2+2 at n = at."""
    def wrong(real):
        def stream(n, cls):
            yield from real(n, cls)
            if (n, cls.kind) == (at, "odd-parts"):
                yield Composition((2, 2))
        return stream
    return wrong


def _residue_at(k, n):
    """real, an exponential sum whose imaginary part fails to cancel at (k, n)."""
    def wrong(real):
        def direct_sum(rational, kk, nn, bits):
            if (kk, nn) == (k, n):
                raise ImaginaryResidueError("injected residue")
            return real(rational, kk, nn, bits)
        return direct_sum
    return wrong


def _uncertified_at(at):
    """real, a series evaluator that cannot certify n = at."""
    def wrong(real):
        def evaluate(n, *args, **kwargs):
            report = real(n, *args, **kwargs)
            if n == at:
                raise NonCertifiedError(real.__name__, report)
            return report
        return evaluate
    return wrong


# stdout of verify --suite analytic --max-n 4, plain and --json, byte for byte;
# no golden record covers the analytic suite
_ANALYTIC_PLAIN = (
    "[OK] analytic: dedekind sum vs sawtooth definition, reciprocity and integrality k<=30 (277 cases)\n"
    "[OK] analytic: hagis sum vs sawtooth definition and negation symmetry k<30 (182 cases)\n"
    "[OK] analytic: exponential sum direct vs selberg k<=4 (4 cases)\n"
    "[OK] analytic: hagis exponential sum direct vs angle classes odd k<=3 (2 cases)\n"
    "[OK] analytic: bessel I1 cross-precision consistency (cross-precision drift below 2^-120)\n"
    "[OK] analytic: certified rounding vs recurrences n<=4 (4 cases)\n"
    "[OK] analytic: residual stays small above certified budget (n=4) (5 cases)\n"
    "passed 7/7 checks\n"
)
_ANALYTIC_JSON = (
    '{"suites": {"analytic": ['
    '{"name": "dedekind sum vs sawtooth definition, reciprocity and integrality k<=30", '
    '"passed": true, "detail": "277 cases"}, '
    '{"name": "hagis sum vs sawtooth definition and negation symmetry k<30", "passed": true, "detail": "182 cases"}, '
    '{"name": "exponential sum direct vs selberg k<=4", "passed": true, "detail": "4 cases"}, '
    '{"name": "hagis exponential sum direct vs angle classes odd k<=3", "passed": true, "detail": "2 cases"}, '
    '{"name": "bessel I1 cross-precision consistency", "passed": true, '
    '"detail": "cross-precision drift below 2^-120"}, '
    '{"name": "certified rounding vs recurrences n<=4", "passed": true, "detail": "4 cases"}, '
    '{"name": "residual stays small above certified budget (n=4)", "passed": true, "detail": "5 cases"}'
    ']}, "passed": true}\n'
)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMap:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--odd-to-gt1", "1+1+1+9+1+1+5+3")
        assert code == 0
        assert out == "5+2+2+2+5+2+3+2\n"

    def test_trace(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--trace", "1+1+1+9+1+1+5+3")
        assert code == 0
        assert out.splitlines() == [
            "a=1+1+1+9+1+1+5+3",
            "a_conj=4+1+1+1+1+1+1+1+4+1+1+1+2+1+1",
            "b=5+2+2+2+5+2+3+1",
            "c=5+2+2+2+5+2+3+2",
        ]

    def test_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--gt1-to-odd", "5+2+2+2+5+2+3+2")
        assert code == 0
        assert out == "1+1+1+9+1+1+5+3\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--json", "--trace", "3")
        assert code == 0
        assert json.loads(out) == {"a": "3", "a_conj": "1+1+1", "b": "2+1", "c": "2+2"}

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "map", "--odd-to-gt1", "2+2")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_malformed_composition_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "map", "--odd-to-gt1", "1 + 2")
        assert code == 1
        assert "error" in err

    def test_direction_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "map", "--odd-to-gt1", "--gt1-to-odd", "3")
        assert code == 1
        assert "usage" in err

    def test_random_roundtrips(self, capsys):
        rng = random.Random(20260819)
        for _ in range(1000):
            n = rng.randint(1, 60)
            parts = []
            remaining = n
            while remaining:
                p = rng.choice([p for p in range(1, min(remaining, 9) + 1, 2)])
                parts.append(p)
                remaining -= p
            text = "+".join(map(str, parts))
            code, out, _ = run_cli(capsys, "map", "--odd-to-gt1", text)
            assert code == 0
            code, out, _ = run_cli(capsys, "map", "--gt1-to-odd", out.strip())
            assert code == 0
            assert out.strip() == text


class TestCount:
    def test_compositions_all(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "compositions:all", "4")
        assert code == 0
        assert out == "8\n"

    def test_partitions_all(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "partitions:all", "100")
        assert code == 0
        assert out == "190569292\n"

    def test_odd_compositions_fibonacci(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "compositions:odd-parts", "25")
        assert (code, out) == (0, "75025\n")

    def test_min_part_2(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "compositions:min-part-2", "26")
        assert (code, out) == (0, f"{fibonacci(25)}\n")

    def test_distinct_compositions(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "compositions:distinct-parts", "6")
        assert (code, out) == (0, "11\n")

    def test_distinct_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "partitions:distinct-parts", "8")
        assert (code, out) == (0, "6\n")

    def test_distinct_ell(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--class", "partitions:distinct-ell=2", "8")
        assert (code, out) == (0, "3\n")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--json", "--class", "partitions:odd-parts", "8")
        assert code == 0
        assert json.loads(out) == {"n": 8, "class": "partitions:odd-parts", "count": 6}

    def test_min_part_2_rejects_n1(self, capsys):
        code, _, err = run_cli(capsys, "count", "--class", "compositions:min-part-2", "1")
        assert code == 1
        assert "error" in err

    def test_unknown_class_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "count", "--class", "compositions:even", "4")
        assert code == 1
        assert "error" in err

    def test_count_past_int_str_digit_limit(self, capsys):
        # 2^14299 has 4305 digits, past CPython's default 4300-digit limit; the
        # test process keeps that limit, so the JSON document is cut, not loaded
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["count", "--class", "compositions:all", "14300"]
        prefix = '{"n": 14300, "class": "compositions:all", "count": '
        for flags, head, tail in (([], "", "\n"), (["--json"], prefix, "}\n")):
            code, out, err = run_cli(capsys, *argv, *flags)
            assert (code, err) == (0, "")
            assert out.startswith(head) and out.endswith(tail)
            digits = out[len(head):-len(tail)]
            assert len(digits) == math.floor(14299 * math.log10(2)) + 1
            assert digits[-12:] == str(pow(2, 14299, 10**12)).zfill(12)
            assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before


class TestEnumerate:
    def test_all_of_four(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--class", "compositions:all", "4")
        assert code == 0
        assert out.splitlines() == [
            "1+1+1+1", "1+1+2", "1+2+1", "1+3", "2+1+1", "2+2", "3+1", "4",
        ]

    def test_partitions_revlex(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--class", "partitions:all", "4")
        assert out.splitlines() == ["4", "3+1", "2+2", "2+1+1", "1+1+1+1"]
        assert code == 0

    def test_limit(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--class", "compositions:all", "6", "--limit", "3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_negative_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--class", "compositions:all", "--limit", "-1", "5")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument --limit: must be >= 0")

    def test_count_mode(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--class", "compositions:odd-parts", "20", "--count")
        assert (code, out) == (0, f"{fibonacci(20)}\n")

    @pytest.mark.parametrize(
        "cls", [name + ("=2" if spec.takes_ell else "") for name, spec in enumeration.CLASSES.items()]
    )
    def test_count_mode_counts_the_stream(self, capsys, cls):
        code, listed, _ = run_cli(capsys, "enumerate", "--class", cls, "8")
        assert code == 0
        want = f"{len(listed.splitlines())}\n"
        assert run_cli(capsys, "enumerate", "--count", "--class", cls, "8") == (0, want, "")

    def test_count_with_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--count", "--limit", "2", "--class", "compositions:all", "5")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument --limit: not allowed with argument --count")

    def test_guardrail_without_force(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--class", "compositions:all", "31")
        assert code == 1
        assert "--force" in err

    def test_guardrail_with_force_and_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--class", "compositions:all", "31", "--force", "--limit", "2"
        )
        assert code == 0
        assert out.splitlines() == ["1" + "+1" * 30, "1" + "+1" * 28 + "+2"]

    def test_count_mode_respects_guardrail(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--class", "partitions:all", "45", "--count")
        assert code == 1
        assert "--force" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--json", "--class", "partitions:distinct-parts", "8")
        assert code == 0
        document = json.loads(out)
        assert document["items"] == ["8", "7+1", "6+2", "5+3", "5+2+1", "4+3+1"]

    @pytest.mark.parametrize(
        "cls", [name + ("=2" if spec.takes_ell else "") for name, spec in enumeration.CLASSES.items()]
    )
    def test_deep_stream_starts(self, capsys, cls):
        # the first items of compositions:all and odd-parts at n = 2000 have
        # 2000 parts, and of min-part-2 1000: far deeper than Python recursion
        code, out, err = run_cli(capsys, "enumerate", "--force", "--limit", "3", "--class", cls, "2000")
        assert (code, err) == (0, "")
        items = out.splitlines()
        assert len(items) == 3
        assert all(sum(map(int, item.split("+"))) == 2000 for item in items)


class TestSeries:
    def test_partitions_lines(self, capsys):
        code, out, _ = run_cli(capsys, "series", "partitions", "--order", "8")
        assert code == 0
        assert out.splitlines() == [
            "0\t1", "1\t1", "2\t2", "3\t3", "4\t5", "5\t7", "6\t11", "7\t15", "8\t22",
        ]
        # the series reads p's pentagonal table; coin change counts the parts themselves
        code, out, _ = run_cli(capsys, "series", "partitions", "--order", "1000")
        assert out.splitlines() == [f"{n}\t{v}" for n, v in enumerate(p_table_coin_change(1000))]

    def test_compositions(self, capsys):
        code, out, _ = run_cli(capsys, "series", "compositions", "--order", "4")
        assert out.splitlines() == ["0\t0", "1\t1", "2\t2", "3\t4", "4\t8"]
        assert code == 0

    def test_distinct_partitions_needs_ell(self, capsys):
        code, _, err = run_cli(capsys, "series", "distinct-partitions", "--order", "8")
        assert code == 1
        assert "--ell" in err

    def test_distinct_partitions_with_ell(self, capsys):
        code, out, _ = run_cli(capsys, "series", "distinct-partitions", "--order", "8", "--ell", "2")
        assert code == 0
        assert out.splitlines()[-1] == "8\t3"

    def test_ell_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(capsys, "series", "partitions", "--order", "8", "--ell", "2")
        assert code == 1
        assert "--ell" in err

    def test_distinct_compositions_json(self, capsys):
        code, out, _ = run_cli(capsys, "series", "distinct-compositions", "--order", "6", "--json")
        assert code == 0
        assert json.loads(out) == {
            "name": "distinct-compositions",
            "order": 6,
            "coefficients": [1, 1, 1, 3, 3, 5, 11],
        }

    def test_bad_order_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "series", "compositions", "--order", "0")
        assert code == 1
        assert "error" in err


class TestAnalytic:
    def test_plain_report(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "p", "4")
        assert code == 0
        lines = out.splitlines()
        assert "series=p" in lines
        assert "n=4" in lines
        assert "rounded=5" in lines
        assert "certified=true" in lines

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "q", "8", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["rounded"] == 6
        assert document["certified"] is True
        assert document["series"] == "q"
        assert int(document["k_terms"]) >= 1
        assert float(document["residual"]) < 0.25

    def test_budget_flags(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "p", "30", "--kmax", "70", "--bits", "160")
        assert code == 0
        lines = out.splitlines()
        assert "k_terms=70" in lines
        assert "precision_bits=160" in lines
        assert f"rounded={p_recurrence(30)}" in lines

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "analytic", "p", "90")
        second = run_cli(capsys, "analytic", "p", "90")
        assert first == second
        third = run_cli(capsys, "analytic", "q", "90", "--json")
        fourth = run_cli(capsys, "analytic", "q", "90", "--json")
        assert third == fourth

    def test_q_single_term_budget_certifies_true_value(self, capsys):
        # at --kmax 1 the doubled budget used to sum the same single term
        code, out, _ = run_cli(capsys, "analytic", "q", "45", "--kmax", "1")
        assert code == 0
        assert "rounded=2048" in out.splitlines()
        assert "certified=true" in out.splitlines()

    def test_q_matches_recurrence(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "q", "64")
        assert code == 0
        assert f"rounded={q_recurrence(64)}" in out.splitlines()

    def test_non_certification_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analytic", "p", "10000", "--kmax", "1", "--bits", "64")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bad_n_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "p", "0")
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "codec", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("[OK]") for line in lines[:-1])
        assert lines[-1].startswith("passed ")
        assert lines[-1].endswith("checks")

    def test_bijection_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "bijection", "--max-n", "10")
        assert code == 0
        assert "[FAIL]" not in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json", "--suite", "counts", "--max-n", "10")
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        assert all(c["passed"] for c in document["suites"]["counts"])

    def test_unknown_suite_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "quantum")
        assert code == 1
        assert "usage" in err

    def test_failure_maps_to_exit_2(self, capsys, monkeypatch):
        from fibcomp import verify as verify_module

        def broken(n):
            return 0

        monkeypatch.setattr(verify_module.counting, "c_count", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "counts", "--max-n", "8")
        assert code == 2
        assert "[FAIL]" in out

    def test_uncertifiable_series_fails_rows(self, capsys, monkeypatch):
        # a tail bound that never falls below 1/2 leaves p uncertifiable; each
        # row that evaluates it reports the n instead of ending the suite
        from fibcomp import analytic

        # the bounds are in units of 2^-bits: a tail of 1
        monkeypatch.setattr(analytic, "_p_bounds", lambda n, k_terms, bits: (1 << bits, 0))
        code, out, err = run_cli(capsys, "verify", "--suite", "analytic", "--max-n", "2")
        lines = out.splitlines()
        assert code == 2
        assert err == ""
        assert len(lines) == 8
        assert lines[-1] == "passed 5/7 checks"
        assert lines[5].startswith(
            "[FAIL] analytic: certified rounding vs recurrences n<=2 (smallest counterexample: n=1: "
        )
        assert lines[6].startswith(
            "[FAIL] analytic: residual stays small above certified budget (n=2) (smallest counterexample: n=2: "
        )

    @pytest.mark.parametrize(
        "module, attribute, wrong, row",
        [
            # off by 2 at one pair: e^{pi i s} and e^{pi i t} are unchanged, so
            # the exponential-sum rows cannot see it and only the exact row can
            ("reference", "dedekind_s", lambda real: lambda h, k: real(h, k) + 2 * ((h, k) == (1, 3)), "dedekind sum"),
            ("reference", "hagis_t", lambda real: lambda h, k: real(h, k) + 2 * ((h, k) == (1, 3)), "hagis sum"),
            ("analytic", "_A_real", _nudged, "exponential sum direct vs selberg"),
            ("analytic", "_inner_real", _nudged, "hagis exponential sum direct vs angle classes"),
            ("reference", "bessel_I1", _nudged, "bessel I1 cross-precision consistency"),
        ],
        ids=["dedekind", "hagis", "selberg", "angle-classes", "bessel"],
    )
    def test_each_analytic_row_fails_alone(self, capsys, monkeypatch, module, attribute, wrong, row):
        target = importlib.import_module(f"fibcomp.{module}")
        monkeypatch.setattr(target, attribute, wrong(getattr(target, attribute)))
        code, out, _ = run_cli(capsys, "verify", "--suite", "analytic", "--max-n", "4")
        lines = out.splitlines()
        assert code == 2
        assert lines[-1] == "passed 6/7 checks"
        failed = [line for line in lines[:-1] if not line.startswith("[OK] analytic: ")]
        assert len(failed) == 1
        assert failed[0].startswith(f"[FAIL] analytic: {row}")

    @pytest.mark.parametrize(
        "flags, want", [((), _ANALYTIC_PLAIN), (("--json",), _ANALYTIC_JSON)], ids=["plain", "json"]
    )
    def test_analytic_suite_output_is_pinned(self, capsys, flags, want):
        assert run_cli(capsys, "verify", *flags, "--suite", "analytic", "--max-n", "4") == (0, want, "")

    @pytest.mark.parametrize(
        "module, attribute, wrong, suite, max_n, want",
        [
            (
                "verify", "from_bitseq", lambda real: lambda bits: Composition(real(bits).parts[::-1]), "codec", 6,
                [
                    "[FAIL] codec: codec roundtrip n<=6 (smallest counterexample: 1+2)",
                    "passed 4/5 checks",
                ],
            ),
            (
                "verify", "conjugate", lambda real: lambda c: Composition((3,)) if c.parts == (1, 2) else real(c),
                "codec", 6,
                [
                    "[FAIL] codec: conjugation involution n<=6 (smallest counterexample: 1+2)",
                    "[FAIL] codec: conjugate part-count law n<=6 (smallest counterexample: 1+2)",
                    "[FAIL] codec: odd parts iff conjugate odd length with even-index ones n<=6 "
                    "(smallest counterexample: 1+2)",
                    "passed 2/5 checks",
                ],
            ),
            (
                "verify", "to_bitseq", lambda real: lambda c: BitSeq(tuple(1 - b for b in real(c).bits)), "codec", 6,
                [
                    "[FAIL] codec: codec roundtrip n<=6 (smallest counterexample: 1+1)",
                    "[FAIL] codec: odd parts iff even zero-runs n<=6 (smallest counterexample: 1+1)",
                    "passed 3/5 checks",
                ],
            ),
            (
                "bijection", "gt1_to_odd", lambda real: lambda c: Composition(real(c).parts[::-1]), "bijection", 6,
                [
                    "[FAIL] bijection: roundtrip inverse(forward) n<=6 (smallest counterexample: 1+3)",
                    "passed 3/4 checks",
                ],
            ),
            (
                "bijection", "odd_to_gt1",
                lambda real: lambda a: real(Composition((3,)) if a.parts == (1, 1, 1) else a), "bijection", 6,
                [
                    "[FAIL] bijection: roundtrip inverse(forward) n<=6 (smallest counterexample: 1+1+1)",
                    "[FAIL] bijection: image equals min-part-2 target n<=6 (smallest counterexample: n=3, 4)",
                    "passed 2/4 checks",
                ],
            ),
            (
                "enumeration", "gen_class", _even_composition_at(4), "bijection", 6,
                [
                    "[FAIL] bijection: roundtrip inverse(forward) n<=6 (smallest counterexample: 2+2)",
                    "[FAIL] bijection: image equals min-part-2 target n<=6 (smallest counterexample: n=4, 2+2)",
                    "[FAIL] bijection: both classes count F_n n<=6 (smallest counterexample: n=4: 4, 3, F=3)",
                    "passed 1/4 checks",
                ],
            ),
            (
                # a member yielded twice: the image and target rows see sets,
                # and only the count row, which counts every yield, fails
                "enumeration", "gen_class",
                lambda real: lambda n, cls: [*real(n, cls), *real(n, cls)] if (n, cls.kind) == (3, "odd-parts")
                else real(n, cls),
                "bijection", 6,
                [
                    "[FAIL] bijection: both classes count F_n n<=6 (smallest counterexample: n=3: 4, 2, F=2)",
                    "passed 3/4 checks",
                ],
            ),
            (
                "counting", "fibonacci", _one_more_at(5), "bijection", 6,
                [
                    "[FAIL] bijection: both classes count F_n n<=6 (smallest counterexample: n=5: 5, 5, F=6)",
                    "passed 3/4 checks",
                ],
            ),
            (
                "counting", "Q_count", _one_more_at(4), "counts", 6,
                [
                    "[FAIL] counts: Q_count vs both enumerations n<=6 (smallest counterexample: n=4 odd-parts)",
                    "passed 5/6 checks",
                ],
            ),
            (
                "counting", "p_recurrence", _one_more_at(12), "counts", 6,
                [
                    "[FAIL] counts: p_recurrence vs enumeration n<=40 (smallest counterexample: n=12)",
                    "passed 5/6 checks",
                ],
            ),
            (
                "counting", "q_recurrence", _one_more_at(12), "counts", 6,
                [
                    "[FAIL] counts: q_recurrence vs both enumerations n<=40 (smallest counterexample: n=12 odd-parts)",
                    "[FAIL] counts: q recurrence residual 0/1 pattern n<=2000 (smallest counterexample: n=12)",
                    "passed 4/6 checks",
                ],
            ),
            (
                "counting", "q_recurrence", _one_more_at(77), "counts", 6,
                [
                    "[FAIL] counts: q recurrence residual 0/1 pattern n<=2000 (smallest counterexample: n=77)",
                    "passed 5/6 checks",
                ],
            ),
            (
                "counting", "binet_first_failure", lambda real: lambda limit: None, "counts", 6,
                [
                    "[FAIL] counts: binet failure threshold (first failure None, all correct below 31: True)",
                    "passed 5/6 checks",
                ],
            ),
            (
                "genfun", "partition_gf", _coefficient_one_more_at(9), "genfun", 10,
                [
                    "[FAIL] genfun: partition series vs recurrence order 40 (smallest counterexample: n=9)",
                    "[FAIL] genfun: partition series vs enumeration n<=10 (smallest counterexample: n=9)",
                    "[FAIL] genfun: partition series times euler product order 40 (smallest counterexample: n=9)",
                    "passed 2/5 checks",
                ],
            ),
            (
                "genfun", "distinct_compositions_gf", _coefficient_one_more_at(6), "genfun", 10,
                [
                    "[FAIL] genfun: distinct compositions series vs enumeration n<=10 (smallest counterexample: n=6)",
                    "passed 4/5 checks",
                ],
            ),
            (
                "genfun", "series_inverse", _coefficient_one_more_at(11), "genfun", 10,
                [
                    "[FAIL] genfun: odd/distinct product identity order 40 (smallest counterexample: n=11)",
                    "passed 4/5 checks",
                ],
            ),
            (
                "reference", "_direct_sum", _residue_at(3, 7), "analytic", 8,
                [
                    "[FAIL] analytic: exponential sum direct vs selberg k<=8 "
                    "(smallest counterexample: (k=3, n=7): injected residue)",
                    "[FAIL] analytic: hagis exponential sum direct vs angle classes odd k<=7 "
                    "(smallest counterexample: (k=3, n=7): injected residue)",
                    "passed 5/7 checks",
                ],
            ),
            (
                "analytic", "hagis_q", _uncertified_at(3), "analytic", 8,
                [
                    "[FAIL] analytic: certified rounding vs recurrences n<=8 (smallest counterexample: "
                    "n=3: hagis_q series for n=3 not certified at k_terms=30, precision_bits=128)",
                    "passed 6/7 checks",
                ],
            ),
        ],
        ids=[
            "from_bitseq", "conjugate", "to_bitseq", "gt1_to_odd", "odd_to_gt1", "even-part", "repeated-member",
            "fibonacci", "Q_count",
            "p_recurrence", "q_recurrence", "residual", "binet", "partition_gf", "distinct_compositions_gf",
            "series_inverse", "imaginary-residue", "uncertified-q",
        ],
    )
    def test_first_failure_lines(self, capsys, monkeypatch, module, attribute, wrong, suite, max_n, want):
        # a broken function fails exactly the rows that use it, each at its
        # smallest counterexample, and the suite still runs to its last row
        target = importlib.import_module(f"fibcomp.{module}")
        monkeypatch.setattr(target, attribute, wrong(getattr(target, attribute)))
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", str(max_n))
        assert (code, err) == (2, "")
        assert [line for line in out.splitlines() if not line.startswith("[OK] ")] == want


def _edit_lines(edit):
    """A corruption that rewrites a saved table's lines: edit(kind, lines) -> lines."""
    def corrupt(kind, data):
        return b"".join(line + b"\n" for line in edit(kind, data.splitlines()))
    return corrupt


def _seeded_two(kind, lines):
    # the kind's recurrence grown from the seed 2 instead of 1
    values = [2]
    for n in range(1, len(lines) - 1):
        values.append(counting._next(kind, values, n))
    return lines[:1] + [str(v).encode() for v in values]


def _other_kind(kind, lines):
    other = "q" if kind == "p" else "p"
    return [lines[0].replace(f"kind={kind}".encode(), f"kind={other}".encode())] + [
        str(v).encode() for v in counting.build_table(other, len(lines) - 2)
    ]


def _table_file(kind, max_n):
    """The bytes of a table file as earlier versions wrote it: a header line,
    then entries 0..max_n, one a line."""
    lines = [f"fibcomp-table v1 kind={kind} max={max_n}", *map(str, counting.build_table(kind, max_n))]
    return "".join(line + "\n" for line in lines).encode("ascii")


# each corruption of a saved table, as (kind, file bytes) -> file bytes
_CORRUPTIONS = {
    "non-integer line": _edit_lines(lambda kind, lines: lines[:151] + [b"x"] + lines[152:]),
    "wrong seed": _edit_lines(_seeded_two),
    "wrong line count": _edit_lines(lambda kind, lines: lines[:-1]),
    "other kind": _edit_lines(_other_kind),
    "raised last entry": _edit_lines(lambda kind, lines: lines[:-1] + [str(int(lines[-1]) + 1).encode()]),
    "bad header": _edit_lines(lambda kind, lines: [lines[0].replace(b" v1 ", b" v9 ")] + lines[1:]),
    "empty": lambda kind, data: b"",
    "non-ASCII byte": _edit_lines(lambda kind, lines: lines[:151] + [lines[151] + b"\xff"] + lines[152:]),
}


def _tree(root):
    """Every path under root with its regular file's bytes or its file type;
    a FIFO is not opened."""
    found = {}
    for path in sorted(root.rglob("*")):
        mode = path.lstat().st_mode
        found[path.relative_to(root).as_posix()] = path.read_bytes() if stat.S_ISREG(mode) else stat.S_IFMT(mode)
    return found


# every class, by the name count takes
_COUNT_CLASSES = [name + ("=3" if spec.takes_ell else "") for name, spec in enumeration.CLASSES.items()]


class TestCacheDir:
    def test_env_var_is_not_read(self, capsys, tmp_path, monkeypatch):
        # only --cache-dir names a cache: a corrupt table in a directory the
        # argv does not name is neither read nor rewritten
        path = tmp_path / "p.table"
        path.write_text("fibcomp-table v1 kind=p max=2\n1\n1\n3\n", encoding="ascii")
        before = {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()}
        monkeypatch.setenv("FIBCOMP_CACHE_DIR", str(tmp_path))
        code, out, err = run_cli(capsys, "count", "--class", "partitions:all", "30")
        assert (code, out, err) == (0, "5604\n", "")
        assert {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()} == before

    def test_fibonacci_classes_write_no_table(self, capsys, tmp_path):
        # F_n comes from fast doubling, p and q from their recurrences in
        # process; no class writes a table
        for cls, n, want in (
            ("partitions:all", 64, p_recurrence(64)),
            ("partitions:odd-parts", 64, q_recurrence(64)),
            ("compositions:odd-parts", 40, fibonacci(40)),
            ("compositions:min-part-2", 41, fibonacci(40)),
        ):
            code, out, _ = run_cli(capsys, "count", "--class", cls, str(n), "--cache-dir", str(tmp_path))
            assert (code, out) == (0, f"{want}\n")
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_naming_a_file_exit_0(self, capsys, tmp_path):
        # a file where a directory is expected is not refused: the flag is ignored
        path = tmp_path / "not-a-directory"
        path.write_text("", encoding="ascii")
        code, out, err = run_cli(capsys, "count", "--class", "partitions:all", "--cache-dir", str(path), "10")
        assert (code, out, err) == (0, f"{p_recurrence(10)}\n", "")
        assert path.read_bytes() == b""

    def test_fibonacci_classes_ignore_the_cache_dir(self, capsys, tmp_path):
        # every class ignores --cache-dir, whatever it names: the call prints
        # what it prints without the flag and leaves the path as it was
        plain_file = tmp_path / "file"
        plain_file.write_bytes(b"")
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / "p.table").write_bytes(b"fibcomp-table v1 kind=p max=2\n1\n1\n3\n")
        (corrupt / "q.table").write_bytes(b"fibcomp-table v9 kind=q\n\xff\n")
        fifos = tmp_path / "fifos"
        fifos.mkdir()
        for name in ("p.table", "q.table"):
            os.mkfifo(fifos / name)
        before = _tree(tmp_path)
        for cache in (tmp_path / "missing" / "nested", plain_file, plain_file / "sub", corrupt):
            for cls in _COUNT_CLASSES:
                for n in ("0", "5", "40"):
                    want = run_cli(capsys, "count", "--class", cls, n)
                    assert run_cli(capsys, "count", "--class", cls, n, "--cache-dir", str(cache)) == want, (cache, cls)
        # a call that opened a FIFO would wait for a writer, so it runs in a
        # process of its own
        for cls in _COUNT_CLASSES:
            argv = ["count", "--class", cls, "40"]
            want = run_cli(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "fibcomp", *argv, "--cache-dir", str(fifos)],
                env=_subprocess_env(), capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == want, cls
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("covers", [True, False], ids=["covers-n", "shorter-than-n"])
    @pytest.mark.parametrize("corruption", list(_CORRUPTIONS))
    @pytest.mark.parametrize("cls,kind", [("partitions:all", "p"), ("partitions:distinct-parts", "q")])
    def test_corruption_behaviour(self, capsys, tmp_path, cls, kind, corruption, covers):
        # a corrupt 300-entry file, read at 200 (covered) or at 400 (shorter),
        # is neither read nor rewritten: the count comes from the recurrence
        path = tmp_path / f"{kind}.table"
        path.write_bytes(_CORRUPTIONS[corruption](kind, _table_file(kind, 300)))
        before = path.read_bytes()
        n = 200 if covers else 400
        want = p_recurrence if kind == "p" else q_recurrence
        code, out, err = run_cli(capsys, "count", "--class", cls, str(n), "--cache-dir", str(tmp_path))
        assert (code, out, err) == (0, f"{want(n)}\n", "")
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before

    def test_old_fib_table_is_ignored(self, capsys, tmp_path):
        (tmp_path / "fib.table").write_text("fibcomp-table v1 kind=fib max=2\n0\n1\n1\n", encoding="ascii")
        for cls, want in (("compositions:odd-parts", 55), ("partitions:all", 42)):
            code, out, _ = run_cli(capsys, "count", "--class", cls, "10", "--cache-dir", str(tmp_path))
            assert (code, out) == (0, f"{want}\n")

    @pytest.mark.parametrize(
        "argv",
        [["series", "partitions", "--order", "3"], ["enumerate", "--class", "partitions:all", "3"]],
    )
    def test_flag_only_on_count(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "count", "--class", "compositions:all", "--frob", "4")
        assert code == 1
        assert "usage" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "count" in out and "verify" in out

    def test_no_trailing_whitespace(self, capsys):
        for argv in (
            ("count", "--class", "compositions:all", "9"),
            ("enumerate", "--class", "partitions:odd-parts", "7"),
            ("series", "partitions", "--order", "5"),
            ("analytic", "q", "12"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            for line in out.splitlines():
                assert line == line.rstrip()


def _subprocess_env() -> dict:
    src = str(Path(__import__("fibcomp").__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("module", ["fibcomp", "fibcomp.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "count", "--class", "compositions:odd-parts", "10"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "55\n", "")


def test_closed_stdout_ends_quietly():
    # a reader that stops early (`| head -1`): exit 1, nothing on stderr,
    # and no "Exception ignored" from the flush at interpreter shutdown
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibcomp", "enumerate", "--class", "compositions:all", "18"],
        env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize("argv, status", [(["count", "--class", "compositions:odd-parts", "10"], 0), (["frob"], 1)])
def test_main_freezes_the_heap_before_it_exits(capsys, monkeypatch, argv, status):
    # the interpreter's full collection at exit leaves a frozen heap alone
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["fibcomp", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert (exit_info.value.code, calls) == (status, ["freeze"])


def _address_space_cap():
    """A preexec_fn that caps the child's address space at 1 GiB."""
    resource = pytest.importorskip("resource")
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_enumerate_streams_under_a_memory_cap():
    # 2**29 compositions: a writer that held the stream before its first line
    # would use up the 1 GiB of address space before printing anything
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibcomp", "enumerate", "--class", "compositions:all", "30"],
        env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_address_space_cap(),
    )
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no output within 60 s"
        lines = [proc.stdout.readline() for _ in range(3)]
        assert lines == [b"+".join([b"1"] * 30) + b"\n", b"1+" * 28 + b"2\n", b"1+" * 27 + b"2+1\n"]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "partitions", "--order", "100000000000"],  # a list of 10^11 coefficients
        ["count", "--class", "compositions:all", "100000000000000"],  # 2^(10^14 - 1)
        ["count", "--class", "partitions:all", "100000000000"],  # p's table, sized before it is filled
        ["count", "--class", "partitions:distinct-parts", "100000000000"],  # likewise q's
    ],
    ids=["series", "count", "count-p", "count-q"],
)
def test_exhausted_memory_is_an_error_line(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fibcomp", *argv],
        env=_subprocess_env(), capture_output=True, preexec_fn=_address_space_cap(), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"error: out of memory\n"


@pytest.mark.parametrize("series", ["p", "q"])
def test_term_budget_past_the_error_analysis_is_an_error_line(series):
    # four doublings of this budget would pass k = 2^40, where p's error analysis
    # stops; it is refused before any term is summed, so the call ends at once
    proc = subprocess.run(
        [sys.executable, "-m", "fibcomp", "analytic", series, "5", "--kmax", "99999999999999999999"],
        env=_subprocess_env(), capture_output=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: k_max must be below 2**36, got 99999999999999999999\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "partitions", "--order", "99999999999999999999999"],
        ["series", "compositions", "--order", "99999999999999999999"],
        ["count", "--class", "partitions:distinct-ell=3", "99999999999999999999"],
        ["count", "--class", "compositions:distinct-parts", "9223372036854775808"],
        ["count", "--class", "partitions:all", "99999999999999999999"],
        ["enumerate", "--count", "--force", "--class", "partitions:all", "99999999999999999999"],
        ["map", "--odd-to-gt1", "1000000000000000000000000000001"],
        ["count", "--class", "compositions:all", str(10**400)],  # 2^(10^400 - 1)
        ["analytic", "p", str(10**400)],  # n past float range
    ],
    ids=["series-partitions", "series-compositions", "distinct-ell", "distinct-compositions", "partitions",
         "enumerate-count", "map", "compositions", "analytic"],
)
def test_size_past_the_platform_is_an_error_line(capsys, argv):
    # each size overflows an index, a digit count or a float before any list is allocated
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_limit_past_sys_maxsize_is_no_limit(capsys):
    argv = ["enumerate", "--class", "partitions:all", "5"]
    whole = run_cli(capsys, *argv)
    assert whole[0] == 0 and whole[1].count("\n") == 7  # p(5)
    assert run_cli(capsys, *argv, "--limit", str(sys.maxsize + 1)) == whole


# one argv per subcommand and mode; "{cache}" stands for an empty directory
_HANDLER_ARGV = [
    ["count", "--class", "partitions:all", "40", "--cache-dir", "{cache}"],
    ["enumerate", "--class", "compositions:odd-parts", "6"],
    ["enumerate", "--class", "partitions:all", "6", "--count"],
    ["map", "--odd-to-gt1", "1+1+1+9+1+1+5+3"],
    ["map", "--gt1-to-odd", "5+2+2+2+5+2+3+2"],
    ["map", "--trace", "1+1+1+9+1+1+5+3"],
    ["series", "distinct-partitions", "--ell", "2", "--order", "8"],
    ["analytic", "p", "100"],
    ["analytic", "q", "100"],
    ["verify", "--suite", "codec", "--max-n", "6"],
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("argv", _HANDLER_ARGV, ids=" ".join)
def test_handlers_return_what_run_alone_writes(capsys, tmp_path, argv, flags):
    argv = [arg.replace("{cache}", str(tmp_path)) for arg in argv] + flags
    args = cli._build_parser().parse_args(argv)
    status, document, lines = args.handler(args)
    assert capsys.readouterr() == ("", "")
    if flags:
        want = json.dumps(document, default=list) + "\n"  # default lists enumerate's stream
    else:
        want = "".join(line + "\n" for line in lines)
    assert want.strip()
    assert run_cli(capsys, *argv) == (status, want, "")


# Bounded argv for every subcommand, valid and malformed.  enumerate stays at
# n <= 12 unless its size guard (n > 30 without --force) stops it, so no draw
# streams millions of items; verify runs one suite at a small --max-n.
_CLASS_TEXT = st.sampled_from(
    [
        *enumeration.CLASSES, "partitions:distinct-ell=3", "partitions:distinct-ell=x",
        "partitions:distinct-ell=\u00b2", "partitions:distinct-ell=\uff13",
        "partitions:all=2", "compositions:even-parts", "compositions", "graphs:all", "",
    ]
)
_N = st.integers(-3, 44).map(lambda n: str(n) if n <= 40 else ["x", "1.5", "", "--"][n - 41])
_COMPOSITION = (
    st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=8).map(lambda parts: "+".join(map(str, parts)))
    | st.lists(st.integers(2, 9), min_size=1, max_size=8).map(lambda parts: "+".join(map(str, parts)))
    | st.text(alphabet="0123456789+- x", max_size=8)
)
_FLAG_TEXT = st.sampled_from(["--frob", "-", "--json=1", "--order", "--class=", "7x", "=", "--limit"])


@st.composite
def _argv(draw, command: str, cache_dirs: list[str]) -> list[str]:
    argv = [command]
    if command == "count":
        argv += ["--class", draw(_CLASS_TEXT), draw(_N)]
        if draw(st.booleans()):
            argv += ["--cache-dir", draw(st.sampled_from(cache_dirs))]
    elif command == "enumerate":
        argv += ["--class", draw(_CLASS_TEXT)]
        small = draw(st.booleans())
        argv.append(str(draw(st.integers(-3, 12) if small else st.integers(31, 40))))
        if small and draw(st.booleans()):
            argv.append("--force")
        if draw(st.booleans()):
            argv.append("--count")
        if draw(st.booleans()):
            argv += ["--limit", draw(st.integers(-2, 5).map(str) | st.just("x"))]
    elif command == "map":
        directions = ["--odd-to-gt1", "--gt1-to-odd", "--trace"]
        argv += draw(st.lists(st.sampled_from(directions), min_size=1, max_size=2, unique=True))
        argv.append(draw(_COMPOSITION))
    elif command == "series":
        argv += [draw(st.sampled_from([*enumeration.SERIES, "fibonacci"]))]
        argv += ["--order", str(draw(st.integers(-3, 60)))]
        if draw(st.booleans()):
            argv += ["--ell", str(draw(st.integers(-2, 8)))]
    elif command == "analytic":
        argv += [draw(st.sampled_from(["p", "q", "r"])), str(draw(st.integers(-3, 60)))]
        if draw(st.booleans()):
            argv += ["--kmax", str(draw(st.integers(0, 60)))]
        if draw(st.booleans()):
            argv += ["--bits", str(draw(st.integers(60, 256)))]
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from([*verify.suite_names(), "quantum"]))]
        argv += ["--max-n", str(draw(st.integers(-1, 6)))]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_FLAG_TEXT))
    return argv


@pytest.mark.parametrize("command", ["count", "enumerate", "map", "series", "analytic", "verify"])
def test_fuzzed_argv_ends_in_an_exit_code(command, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("fuzz-cache")
    not_a_directory = cache_dir / "file"
    not_a_directory.write_text("", encoding="ascii")

    # a verify draw runs a whole suite, up to a second, so it gets fewer draws
    @settings(max_examples=12) if command == "verify" else settings()
    @given(_argv(command, [str(cache_dir), str(not_a_directory)]))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        text = out.getvalue()
        # an `error:` line (exit 1, or 2 from a failed certification) comes with no stdout
        if code == 1 or err.getvalue().startswith("error:"):
            assert text == "", argv
        elif "--json" in argv:
            assert text.endswith("\n") and text.count("\n") == 1, argv
            json.loads(text)
        else:
            assert all(line == line.rstrip() for line in text.splitlines()), argv

    check()
