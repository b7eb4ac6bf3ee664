import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from fibcomp import analytic, reference
from fibcomp.analytic import NonCertifiedError, hagis_q, rademacher_p
from fibcomp.core import DomainError, ImaginaryResidueError
from fibcomp.reference import bessel_I1, dedekind_s, hagis_t, kloosterman_A, sawtooth
from fibcomp.counting import p_recurrence, q_recurrence

from _oracles import (
    bessel_i1_series,
    dedekind_def,
    dedekind_loop,
    hagis_complex,
    hagis_def,
    hagis_loop,
    kloosterman_complex,
    ramanujan_moduli,
)

# Every k the evaluators reach for n <= 500 (the doubled budget there is 390).
LOOP_REFERENCE_K = 400


class TestSawtooth:
    def test_integers_map_to_zero(self):
        assert sawtooth(Fraction(3)) == 0
        assert sawtooth(Fraction(0)) == 0
        assert sawtooth(Fraction(-7)) == 0

    def test_quarter(self):
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
        assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)

    def test_half_is_zero(self):
        assert sawtooth(Fraction(1, 2)) == 0

    @given(st.fractions(min_value=-50, max_value=50))
    def test_odd_symmetry_and_period(self, x):
        assert sawtooth(x) + sawtooth(-x) == 0
        assert sawtooth(x + 1) == sawtooth(x)
        assert abs(sawtooth(x)) < Fraction(1, 2)


class TestDedekindSum:
    def test_examples(self):
        assert dedekind_s(0, 1) == 0
        assert dedekind_s(1, 2) == 0
        assert dedekind_s(1, 3) == Fraction(1, 18)

    def test_matches_definition_oracle(self):
        assert dedekind_s(0, 1) == dedekind_def(0, 1) == 0
        for k in range(2, 31):
            for h in range(1, k):
                if math.gcd(h, k) == 1:
                    assert dedekind_s(h, k) == dedekind_def(h, k)

    def test_matches_loop_form_to_k400(self):
        for k in range(1, LOOP_REFERENCE_K + 1):
            for h in range(k):
                if math.gcd(h, k) == 1:
                    assert dedekind_s(h, k) == dedekind_loop(h, k), (h, k)

    def test_reciprocity(self):
        # s is periodic in its first argument, so s(k, h) = s(k mod h, h)
        for k in range(2, 31):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                lhs = dedekind_s(h, k) + dedekind_s(k % h, h)
                rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
                assert lhs == rhs

    def test_denominator_divides_12k(self):
        for k in range(1, 31):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                value = dedekind_s(h, k) * 12 * k
                assert value.denominator == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            dedekind_s(2, 4)
        with pytest.raises(DomainError):
            dedekind_s(3, 3)
        with pytest.raises(DomainError):
            dedekind_s(5, 3)
        with pytest.raises(DomainError):
            dedekind_s(0, 2)
        with pytest.raises(DomainError):
            dedekind_s(-1, 3)
        with pytest.raises(DomainError):
            dedekind_s(1, 0)


class TestHagisSum:
    def test_examples(self):
        assert hagis_t(0, 1) == 0
        assert hagis_t(1, 3) == Fraction(1, 9)
        assert hagis_t(2, 3) == Fraction(-1, 9)

    def test_matches_definition_oracle(self):
        assert hagis_t(0, 1) == hagis_def(0, 1) == 0
        for k in range(3, 30, 2):
            for h in range(1, k):
                if math.gcd(h, k) == 1:
                    assert hagis_t(h, k) == hagis_def(h, k)

    def test_matches_loop_form_to_k400(self):
        for k in range(1, LOOP_REFERENCE_K + 1, 2):
            for h in range(k):
                if math.gcd(h, k) == 1:
                    assert hagis_t(h, k) == hagis_loop(h, k), (h, k)

    def test_negation_symmetry(self):
        for k in range(3, 30, 2):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                assert hagis_t(k - h, k) == -hagis_t(h, k)

    def test_rejects_even_k(self):
        with pytest.raises(DomainError):
            hagis_t(1, 4)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            hagis_t(3, 9)
        with pytest.raises(DomainError):
            hagis_t(0, 3)


class TestKloosterman:
    def test_k1_is_one(self):
        for n in (0, 1, 5, 77):
            assert float(kloosterman_A(1, n, 128)) == 1.0

    def test_k2_alternates(self):
        for n in range(8):
            assert float(kloosterman_A(2, n, 128)) == (-1.0) ** n

    def test_a3_of_5_matches_complex_oracle(self):
        got = kloosterman_A(3, 5, 256)
        want = kloosterman_complex(3, 5, 256)
        with mp.workprec(300):
            assert abs(got - want.real) < mp.mpf(2) ** -200
            assert abs(want.imag) < mp.mpf(2) ** -200

    def test_matches_complex_oracle_sampled(self):
        for k in (4, 5, 7, 9, 12, 25):
            for n in (0, 3, 11):
                got = kloosterman_A(k, n, 192)
                want = kloosterman_complex(k, n, 256)
                with mp.workprec(300):
                    assert abs(got - want.real) < mp.mpf(2) ** -150

    def test_imaginary_part_vanishes_k50_n50(self):
        # full grid; the sum must come out real every time
        for k in range(1, 51):
            for n in range(51):
                kloosterman_A(k, n, 128)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            kloosterman_A(0, 1, 128)
        with pytest.raises(DomainError):
            kloosterman_A(3, -1, 128)
        with pytest.raises(DomainError):
            kloosterman_A(3, 1, 63)


class TestExponentialSums:
    # the evaluators' sums against literal complex sums over every coprime h
    NS = (0, 1, 7, 45, 331, 2000)

    def test_selberg_A_matches_complex_oracle(self):
        for k in range(1, 121):
            for n in self.NS:
                want = kloosterman_complex(k, n, 256)
                with mp.workprec(300):
                    # _A_real is Selberg's sum C_k = A_k sqrt(3/k) at scale 256
                    got = mp.sqrt(mp.mpf(k) / 3) * mp.ldexp(analytic._A_real(k, n, 256), -256)
                    assert abs(got - want.real) < mp.mpf(2) ** -200, (k, n)

    def test_paired_inner_sum_matches_complex_oracle(self):
        for k in range(1, 121, 2):
            for n in self.NS:
                want = hagis_complex(k, n, 256)
                with mp.workprec(300):
                    got = mp.ldexp(analytic._inner_real(k, n, 256), -256)
                    assert abs(got - want.real) < mp.mpf(2) ** -200, (k, n)
                    assert abs(want.imag) < mp.mpf(2) ** -200, (k, n)

    # 301 = 7*43 and 389 (prime) sum cosines of 2pi j/k by Clenshaw's
    # recurrence from cos(2pi/k); 333 = 9*37 and 399 = 3*7*19, divisible by 3,
    # from cos(2pi/(3k)).  n up to 10^6 makes 24nh wrap many times around 24k.
    def test_inner_sum_at_large_k_and_n_matches_complex_oracle(self):
        for k in (301, 333, 389, 399):
            for n in (0, 2, 331, 999_983, 10**6):
                want = hagis_complex(k, n, 576).real
                for bits in (128, 512):
                    with mp.workprec(600):
                        got = mp.ldexp(analytic._inner_real(k, n, bits), -bits)
                        assert abs(got - want) < mp.mpf(2) ** -(bits - 8), (k, n, bits)

    def test_inner_sum_takes_no_dedekind_sum(self, monkeypatch):
        # the series path must not share the Dedekind sums of the references
        # it is checked against
        cases = [(k, n) for k in range(1, 122, 2) for n in self.NS]
        before = [analytic._inner_real(k, n, 128) for k, n in cases], hagis_q(100)

        def refuse(h, k):
            raise AssertionError("a Dedekind sum on the series path")

        monkeypatch.setattr(reference, "_dedekind12", refuse)
        assert ([analytic._inner_real(k, n, 128) for k, n in cases], hagis_q(100)) == before

    def test_inner_sum_has_period_k_in_n(self):
        for k in (3, 15, 97, 333):
            for n in (0, 5, 1000):
                assert analytic._inner_real(k, n + k, 192) == analytic._inner_real(k, n, 192)
                assert analytic._inner_real(k, n + 7 * k, 192) == analytic._inner_real(k, n, 192)


def _run_child(code: str) -> list[str]:
    """stdout lines of code run by a fresh interpreter that imports this checkout, within 60 s."""
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestBessel:
    def test_zero(self):
        assert bessel_I1(0, 128) == 0

    def test_at_two(self):
        got = bessel_I1(2, 192)
        assert isinstance(got, mp.mpf)
        assert abs(float(got) - 1.5906368546373291) < 1e-15

    def test_matches_power_series_oracle(self):
        # each z is a double, so both sides read it exactly; 574 is about the
        # largest argument the q series passes at n = 10^5
        zs = (0.01, 0.385, 1, 2, 12.2, 38.5, 100, 300, 574)
        cases = [(z, bits) for bits in (64, 128, 181, 256, 400) for z in zs] + [(65536, 64)]
        for z, bits in cases:
            got = bessel_I1(z, bits)
            want = bessel_i1_series(z, bits)
            with mp.workprec(4 * bits + 64):
                assert abs(got - want) <= mp.ldexp(want, -bits), (z, bits)

    def test_monotonic(self):
        assert bessel_I1(3, 128) > bessel_I1(2, 128)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            bessel_I1(-1, 128)

    def test_rejects_low_precision(self):
        with pytest.raises(DomainError):
            bessel_I1(2, 32)

    def test_rejects_non_finite_without_hanging(self):
        # in a child with a timeout: nan and inf must be refused up front, and
        # a regression must fail the test rather than stall the suite
        code = textwrap.dedent(
            """
            from fibcomp.reference import bessel_I1
            from fibcomp.core import DomainError

            for z in (float("nan"), float("inf"), float("-inf"), "nan", "+inf"):
                try:
                    bessel_I1(z, 64)
                except DomainError as exc:
                    print(exc)
            """
        )
        assert _run_child(code) == [
            "bessel_I1 needs a finite z, got nan",
            "bessel_I1 needs a finite z, got +inf",
            "bessel_I1 needs a finite z, got -inf",
            "bessel_I1 needs a finite z, got nan",
            "bessel_I1 needs a finite z, got +inf",
        ]

    def test_rejects_large_z_at_once(self):
        # in a child with a timeout: I_1's cost grows with the size of z, so
        # a z past the bound must be refused at once; 2^16 still returns
        code = textwrap.dedent(
            """
            from fibcomp.reference import bessel_I1
            from fibcomp.core import DomainError

            try:
                bessel_I1("1e12", 64)
            except DomainError as exc:
                print(exc)
            print(bessel_I1(2**16, 64) > 0)
            """
        )
        assert _run_child(code) == ["bessel_I1 is only evaluated at z <= 2^16, got 1000000000000.0", "True"]


class TestRademacherP:
    def test_examples(self):
        assert rademacher_p(4).rounded == 5
        assert rademacher_p(1).rounded == 1
        assert rademacher_p(100).rounded == 190569292

    def test_report_fields(self):
        report = rademacher_p(60)
        assert report.n == 60
        assert report.certified
        assert float(report.residual) < 0.25
        assert report.rounded == p_recurrence(60)
        assert report.k_terms_used >= 1
        assert report.precision_bits >= 128

    def test_matches_recurrence_sampled(self):
        for n in (2, 3, 7, 19, 33, 64, 97, 128, 200, 333):
            assert rademacher_p(n).rounded == p_recurrence(n)

    def test_explicit_budget_is_respected(self):
        report = rademacher_p(30, k_max=80, precision_bits=192)
        assert report.certified
        assert report.k_terms_used == 80
        assert report.precision_bits == 192

    def test_residual_stays_small_at_larger_budgets(self):
        base = rademacher_p(30)
        for extra in (6, 18, 30, 60, 90):
            report = rademacher_p(30, k_max=base.k_terms_used + extra)
            assert float(report.residual) < 0.25
            assert report.rounded == base.rounded

    def test_non_certification_raises(self):
        # value magnitude ~2^3679; even four doublings from 64 bits cannot
        # resolve the fractional part, so certification must refuse
        with pytest.raises(NonCertifiedError) as exc:
            rademacher_p(10**6, k_max=1, precision_bits=64)
        report = exc.value.report
        assert not report.certified
        assert report.n == 10**6

    def test_starved_term_budget_is_refused(self):
        # plenty of bits, so the failure comes from the tail bound, not the
        # evaluation error: at 16 terms it is about 10^6
        with pytest.raises(NonCertifiedError) as exc:
            rademacher_p(10000, k_max=1, precision_bits=512)
        assert not exc.value.report.certified

    def test_bound_dominates_the_error_at_the_default_budget(self):
        # every n <= 200 and a stride to 2000; the bounds are integers in units
        # of 2^-bits, and raw is at the scale V <= bits
        for n in [*range(1, 201), *range(229, 2001, 59), 2000]:
            report = rademacher_p(n)
            bits = report.precision_bits
            tail, error = analytic._p_bounds(n, report.k_terms_used, bits)
            V = analytic._scale(n, bits, analytic.P_C)
            assert report.raw_value.exp == report.residual.exp == -V, n
            assert abs(report.raw_value.man - (p_recurrence(n) << V)) << bits - V <= tail + error, n
            assert report.certified and tail + error + (report.residual.man << bits - V) < 1 << (bits - 1), n

    def test_bound_dominates_the_error_at_small_budgets(self):
        # the uncertified partial sum through N = 1, 2, 4, ... at the default
        # bits, up to the default budget; at n = 4, N = 8 the bound is about
        # 33 times the distance
        for n in [*range(1, 201), *range(229, 2001, 59), 2000]:
            bits, budget = analytic.default_bits(n, analytic.P_C), analytic.default_k_terms(n)
            V = analytic._scale(n, bits, analytic.P_C)
            value, term, _, _ = analytic._p_series(n, budget, bits)
            total, N = 0, 1
            for k in range(1, budget + 1):
                total += term(k)
                if k == N:
                    tail, error = analytic._p_bounds(n, N, bits)
                    assert abs(value(total).man - (p_recurrence(n) << V)) << bits - V <= tail + error, (n, N)
                    N *= 2

    def test_bound_is_evaluated_at_a_small_scale(self, monkeypatch):
        # the tail is O(1), so its kernels run at about 128 bits past the
        # integer part of cosh(x/N), not at the working precision (37 070 bits)
        scales = []
        pi, exp = analytic._pi, analytic._exp
        monkeypatch.setattr(analytic, "_pi", lambda V: scales.append(V) or pi(V))
        monkeypatch.setattr(analytic, "_exp", lambda t, shift, V: scales.extend((shift, V)) or exp(t, shift, V))
        n = 99_999_999
        analytic._p_bounds(n, 7293, analytic.default_bits(n, analytic.P_C))
        assert scales and max(scales) <= 1000, scales

    @pytest.mark.parametrize(
        "n, bits", [(1, None), (2, None), (7, None), (45, None), (100, None), (100, 64), (333, None), (333, 80)]
    )
    def test_error_bound_covers_the_partial_sum(self, n, bits):
        # raw against the partial sum through the same N in mpmath at four
        # times the working bits, from Rademacher's D_k and Selberg's A_k
        report = rademacher_p(n, precision_bits=bits)
        N, bits = report.k_terms_used, report.precision_bits
        _, error = analytic._p_bounds(n, N, bits)
        with mp.workprec(4 * bits):
            m = mp.mpf(24 * n - 1) / 24
            c0 = mp.pi * mp.sqrt(mp.mpf(2) / 3)
            partial = 0
            for k in range(1, N + 1):
                ls = [l for l in range(2 * k) if ((3 * l * l + l) // 2 + n) % k == 0]
                A = mp.sqrt(mp.mpf(k) / 3) * sum((-1) ** l * mp.cospi(mp.mpf(6 * l + 1) / (6 * k)) for l in ls)
                y = c0 * mp.sqrt(m) / k
                partial += mp.sqrt(k) * A * (c0 / k) * (mp.cosh(y) - mp.sinh(y) / y) / (2 * m)
            partial /= mp.pi * mp.sqrt(2)
            distance = abs(mp.mpf(report.raw_value) - partial) * 2**bits
        assert distance <= error, (n, bits, distance, error)

    def test_small_term_budgets_never_certify_a_wrong_integer(self):
        # from k_max = 1 the tail bound refuses n >= 42: four doublings reach
        # only 16 terms, where the bound is above 1/2.  Each escalation keeps
        # the bits and adds only the terms past the old budget; n above 60 is
        # sampled to keep the test short.
        for k_max in (1, 2, 5, 10, 20):
            for n in [*range(1, 61), *range(61, 201, 7)]:
                try:
                    report = rademacher_p(n, k_max=k_max)
                except NonCertifiedError:
                    report = None
                assert (report is None) == (k_max == 1 and n >= 42), (n, k_max)
                assert report is None or report.rounded == p_recurrence(n), (n, k_max)

    def test_escalation_doubles_only_what_fell_short(self):
        # from 2 terms only the tail bound blocks, so the precision stays;
        # at 64 bits and the default budget only the error bound blocks
        report = rademacher_p(200, k_max=2)
        assert (report.k_terms_used, report.precision_bits) == (32, analytic.default_bits(200, analytic.P_C))
        report = rademacher_p(300, precision_bits=64)
        assert (report.k_terms_used, report.precision_bits) == (analytic.default_k_terms(300), 128)
        assert report.rounded == p_recurrence(300)

    def test_term_only_escalation_keeps_its_partial_sum(self, monkeypatch):
        # 2, 4, 8, 16 and then 32 terms at unchanged bits: each attempt adds
        # only the terms past the last budget, so every k runs once, in order
        calls = []
        A_real = analytic._A_real
        monkeypatch.setattr(analytic, "_A_real", lambda k, n, bits: calls.append(k) or A_real(k, n, bits))
        report = rademacher_p(200, k_max=2)
        assert calls == list(range(1, 33))
        assert (report.k_terms_used, report.precision_bits, report.certified) == (32, 128, True)
        assert report.rounded == p_recurrence(200)

    # n near 10^6 at 1016 terms, the least budget p's certificate proves there
    @pytest.mark.parametrize(
        "n, ell, k_max",
        [(9999, 5, None), (10001, 7, None), (10005, 11, None), (999999, 5, 1016), (999997, 7, 1016), (999994, 11, 1016)],
        ids=["9999-5", "10001-7", "10005-11", "999999-5", "999997-7", "999994-11"],
    )
    def test_ramanujan_congruence_past_the_recurrence_checks(self, n, ell, k_max):
        assert ell in ramanujan_moduli(n)
        report = rademacher_p(n, k_max=k_max)
        assert report.certified
        assert report.rounded % ell == 0

    def test_low_bits_still_certify_small_n(self):
        report = rademacher_p(100, precision_bits=64)
        assert report.certified
        assert report.rounded == p_recurrence(100)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            rademacher_p(0)
        with pytest.raises(DomainError):
            rademacher_p(5, k_max=0)
        with pytest.raises(DomainError):
            rademacher_p(5, precision_bits=32)

    def test_deterministic(self):
        a = rademacher_p(50)
        b = rademacher_p(50)
        assert mp.nstr(a.raw_value, 30) == mp.nstr(b.raw_value, 30)
        assert a.k_terms_used == b.k_terms_used


class TestHagisQ:
    def test_examples(self):
        assert hagis_q(8).rounded == 6
        assert hagis_q(1).rounded == 1
        assert hagis_q(100).rounded == q_recurrence(100)

    def test_matches_recurrence_sampled(self):
        for n in (2, 3, 7, 19, 33, 64, 97, 128, 200, 333):
            assert hagis_q(n).rounded == q_recurrence(n)

    def test_report_certified(self):
        report = hagis_q(42)
        assert report.certified
        assert float(report.residual) < 0.25
        assert report.rounded == q_recurrence(42)

    def test_non_certification_raises(self):
        with pytest.raises(NonCertifiedError):
            hagis_q(10**6, k_max=1, precision_bits=64)

    def test_small_term_budgets_never_certify_a_wrong_integer(self):
        # k_max = 1 once certified q(45) as 2047: its doubled budget held no
        # odd k beyond the first, so the drift test compared a sum with itself
        for k_max in (1, 2):
            for n in range(1, 120):
                report = hagis_q(n, k_max=k_max)
                assert report.certified
                assert report.rounded == q_recurrence(n), (n, k_max)

    def test_escalation_doubles_both_budgets(self):
        # the drift test cannot tell which budget fell short
        report = hagis_q(40, k_max=1)
        assert (report.k_terms_used, report.precision_bits) == (8, 8 * analytic.default_bits(40, analytic.Q_C))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            hagis_q(0)
        with pytest.raises(DomainError):
            hagis_q(3, k_max=-2)


@pytest.mark.parametrize("evaluate", [rademacher_p, hagis_q], ids=["p", "q"])
@pytest.mark.parametrize("arg", ["n", "k_max", "precision_bits"])
@pytest.mark.parametrize("value", [True, 10.0, "10"], ids=["bool", "float", "str"])
def test_series_arguments_are_plain_ints(evaluate, arg, value):
    # True once ran as 1 and a float or a str ended in a bare TypeError; each
    # argument is refused by core.check_size, with its floor
    args = {"n": 10, "k_max": None, "precision_bits": None, arg: value}
    floor = {
        "n": f"{evaluate.__name__} needs n >= 1",
        "k_max": "k_max must be >= 1",
        "precision_bits": "precision_bits must be >= 64",
    }
    with pytest.raises(DomainError) as refused:
        evaluate(**args)
    assert str(refused.value) == f"{floor[arg]}, got {value!r}"


@pytest.mark.parametrize("evaluate", [rademacher_p, hagis_q], ids=["p", "q"])
def test_non_certification_message_names_the_series(evaluate):
    with pytest.raises(NonCertifiedError) as exc:
        evaluate(10**6, k_max=1, precision_bits=64)
    report = exc.value.report
    assert str(exc.value) == (
        f"{evaluate.__name__} series for n=1000000 not certified at "
        f"k_terms={report.k_terms_used}, precision_bits={report.precision_bits}"
    )


class TestDefaults:
    def test_k_budget_grows_like_sqrt(self):
        assert analytic.default_k_terms(1) == 8 + 16
        assert analytic.default_k_terms(100) == 80 + 16
        assert analytic.default_k_terms(500) >= int(8 * math.sqrt(500)) + 16

    def test_bits_floor(self):
        assert analytic.default_bits(1, analytic.P_C) == 128
        assert analytic.default_bits(1, analytic.Q_C) == 128
        assert analytic.default_bits(500, analytic.P_C) > 128
