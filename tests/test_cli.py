import contextlib
import importlib
import io
import json
import math
import os
import random
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fibcomp import cli, counting, enumeration, verify
from fibcomp.core import BitSeq, Composition, ImaginaryResidueError, NonCertifiedError
from fibcomp.counting import fibonacci, p_recurrence, q_recurrence
from fibcomp.genfun import TruncatedSeries


def _nudged(real):
    """real, moved by 2^-90: far below what the series need, far above the 2^-100 checks."""
    def wrong(*args):
        from mpmath import mp

        with mp.workprec(256):
            return real(*args) + mp.mpf(2) ** -90
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
    "[OK] analytic: bessel series self-consistency (cross-precision drift 6.99077510589062e-39)\n"
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
    '{"name": "bessel series self-consistency", "passed": true, '
    '"detail": "cross-precision drift 6.99077510589062e-39"}, '
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
        # 2^14299 has 4305 digits, past CPython's default 4300-digit limit
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "count", "--class", "compositions:all", "14300")
        assert (code, err) == (0, "")
        digits = out.strip()
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
        # a broken exponential sum leaves the series uncertifiable; each row
        # that evaluates it reports the n instead of ending the suite
        from fibcomp import analytic

        real = analytic._A_real
        monkeypatch.setattr(analytic, "_A_real", lambda k, n, bits: real(k, n, bits) + (k > 1))
        code, out, err = run_cli(capsys, "verify", "--suite", "analytic", "--max-n", "2")
        lines = out.splitlines()
        assert code == 2
        assert err == ""
        assert len(lines) == 8
        assert lines[-1] == "passed 4/7 checks"
        assert lines[5].startswith(
            "[FAIL] analytic: certified rounding vs recurrences n<=2 (smallest counterexample: n=2: "
        )
        assert lines[6].startswith(
            "[FAIL] analytic: residual stays small above certified budget (n=2) (smallest counterexample: n=2: "
        )

    @pytest.mark.parametrize(
        "attribute, wrong, row",
        [
            # off by 2 at one pair: e^{pi i s} and e^{pi i t} are unchanged, so
            # the exponential-sum rows cannot see it and only the exact row can
            ("dedekind_s", lambda real: lambda h, k: real(h, k) + 2 * ((h, k) == (1, 3)), "dedekind sum"),
            ("hagis_t", lambda real: lambda h, k: real(h, k) + 2 * ((h, k) == (1, 3)), "hagis sum"),
            ("_A_real", _nudged, "exponential sum direct vs selberg"),
            ("_inner_real", _nudged, "hagis exponential sum direct vs angle classes"),
            ("bessel_I1", _nudged, "bessel series self-consistency"),
        ],
        ids=["dedekind", "hagis", "selberg", "angle-classes", "bessel"],
    )
    def test_each_analytic_row_fails_alone(self, capsys, monkeypatch, attribute, wrong, row):
        from fibcomp import analytic

        monkeypatch.setattr(analytic, attribute, wrong(getattr(analytic, attribute)))
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
                "enumeration", "gen_compositions", _even_composition_at(4), "bijection", 6,
                [
                    "[FAIL] bijection: roundtrip inverse(forward) n<=6 (smallest counterexample: 2+2)",
                    "[FAIL] bijection: image equals min-part-2 target n<=6 (smallest counterexample: n=4, 2+2)",
                    "[FAIL] bijection: both classes count F_n n<=6 (smallest counterexample: n=4: 4, 3, F=3)",
                    "passed 1/4 checks",
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
                    "passed 5/6 checks",
                ],
            ),
            (
                "counting", "q_recurrence_residual", _one_more_at(77), "counts", 6,
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
                    "[FAIL] genfun: partition series times euler product order 40 "
                    "(smallest counterexample: product != 1)",
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
                "analytic", "_direct_sum", _residue_at(3, 7), "analytic", 8,
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
            "from_bitseq", "conjugate", "to_bitseq", "gt1_to_odd", "odd_to_gt1", "even-part", "fibonacci", "Q_count",
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


class TestCacheDir:
    def test_flag_creates_and_reuses_table(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "count", "--class", "partitions:all", "64", "--cache-dir", str(tmp_path)
        )
        assert (code, out) == (0, f"{p_recurrence(64)}\n")
        table = tmp_path / "p.table"
        assert table.exists()
        header = table.read_text("ascii").splitlines()[0]
        assert header == "fibcomp-table v1 kind=p max=64"
        code, out, _ = run_cli(
            capsys, "count", "--class", "partitions:all", "30", "--cache-dir", str(tmp_path)
        )
        assert (code, out) == (0, f"{p_recurrence(30)}\n")

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FIBCOMP_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "count", "--class", "partitions:all", "40")
        assert (code, out) == (0, f"{p_recurrence(40)}\n")
        assert (tmp_path / "p.table").exists()

    def test_fibonacci_classes_write_no_table(self, capsys, tmp_path):
        # F_n comes from fast doubling; only the p and q tables are cached
        for cls, n, want in (
            ("partitions:all", 64, p_recurrence(64)),
            ("partitions:odd-parts", 64, q_recurrence(64)),
            ("compositions:odd-parts", 40, fibonacci(40)),
            ("compositions:min-part-2", 41, fibonacci(40)),
        ):
            code, out, _ = run_cli(capsys, "count", "--class", cls, str(n), "--cache-dir", str(tmp_path))
            assert (code, out) == (0, f"{want}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.table", "q.table"]
        headers = [(tmp_path / f"{kind}.table").read_text("ascii").splitlines()[0] for kind in "pq"]
        assert headers == ["fibcomp-table v1 kind=p max=64", "fibcomp-table v1 kind=q max=64"]

    def test_corrupt_cache_exit_1(self, capsys, tmp_path):
        run_cli(capsys, "count", "--class", "partitions:distinct-parts", "40", "--cache-dir", str(tmp_path))
        path = tmp_path / "q.table"
        lines = path.read_text("ascii").splitlines()
        body = [str(int(v) + 3) for v in lines[1:]]
        path.write_text("\n".join([lines[0]] + body) + "\n", encoding="ascii")
        code, _, err = run_cli(
            capsys, "count", "--class", "partitions:distinct-parts", "40", "--cache-dir", str(tmp_path)
        )
        assert code == 1
        assert "error" in err


    def test_cache_dir_naming_a_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("", encoding="ascii")
        code, out, err = run_cli(capsys, "count", "--class", "partitions:all", "--cache-dir", str(path), "10")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_fibonacci_classes_ignore_the_cache_dir(self, capsys, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("", encoding="ascii")
        code, out, _ = run_cli(capsys, "count", "--class", "compositions:odd-parts", "--cache-dir", str(path), "10")
        assert (code, out) == (0, "55\n")

    @pytest.mark.parametrize("cls,kind", [("partitions:all", "p"), ("partitions:distinct-parts", "q")])
    def test_wrongly_seeded_cache_exit_1(self, capsys, tmp_path, cls, kind):
        # grown from the seed 2 instead of 1; for p that is every entry doubled
        values = [2]
        counting._EXTENDERS[kind](values, 300)
        counting.save_table(counting.MemoTable(kind, values), tmp_path / f"{kind}.table")
        code, out, err = run_cli(capsys, "count", "--class", cls, "300", "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_non_ascii_cache_exit_1(self, capsys, tmp_path):
        path = tmp_path / "p.table"
        path.write_bytes(b"fibcomp-table v1 kind=p max=2\n1\n1\n\xff\n")
        code, out, err = run_cli(capsys, "count", "--class", "partitions:all", "2", "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

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


def test_enumerate_streams_under_a_memory_cap():
    # 2**29 compositions: a writer that held the stream before its first line
    # would use up the 1 GiB of address space before printing anything
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.Popen(
        [sys.executable, "-m", "fibcomp", "enumerate", "--class", "compositions:all", "30"],
        env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=cap,
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

    check()
