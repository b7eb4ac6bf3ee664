import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from fibcomp import analytic
from fibcomp.analytic import (
    ImaginaryResidueError,
    NonCertifiedError,
    bessel_I1,
    dedekind_s,
    hagis_q,
    hagis_t,
    kloosterman_A,
    rademacher_p,
    sawtooth,
)
from fibcomp.core import DomainError
from fibcomp.counting import p_recurrence, q_recurrence

from _oracles import (
    dedekind_def,
    dedekind_loop,
    hagis_complex,
    hagis_def,
    hagis_loop,
    kloosterman_complex,
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

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            kloosterman_A(0, 1, 128)


class TestExponentialSums:
    # the evaluators' sums against literal complex sums over every coprime h
    NS = (0, 1, 7, 45, 331, 2000)

    def test_selberg_A_matches_complex_oracle(self):
        for k in range(1, 121):
            for n in self.NS:
                got = analytic._A_real(k, n, 256)
                want = kloosterman_complex(k, n, 256)
                with mp.workprec(300):
                    assert abs(got - want.real) < mp.mpf(2) ** -200, (k, n)

    def test_paired_inner_sum_matches_complex_oracle(self):
        for k in range(1, 121, 2):
            for n in self.NS:
                got = analytic._inner_real(k, n, 256)
                want = hagis_complex(k, n, 256)
                with mp.workprec(300):
                    assert abs(got - want.real) < mp.mpf(2) ** -200, (k, n)
                    assert abs(want.imag) < mp.mpf(2) ** -200, (k, n)

    # 301 = 7*43 and 389 (prime) step the rotation by pi/k; 333 = 9*37 and
    # 399 = 3*7*19, divisible by 3, by pi/(3k).  n up to 10^6 makes 24nh wrap
    # many times around 24k.
    def test_inner_sum_at_large_k_and_n_matches_complex_oracle(self):
        for k in (301, 333, 389, 399):
            for n in (0, 2, 331, 999_983, 10**6):
                want = hagis_complex(k, n, 576).real
                for bits in (128, 512):
                    got = analytic._inner_real(k, n, bits)
                    with mp.workprec(600):
                        assert abs(got - want) < mp.mpf(2) ** -(bits - 8), (k, n, bits)

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

    def test_matches_mpmath(self):
        for z in ("0.5", "1", "2", "3.7", "10", "25"):
            for bits in (128, 256):
                # the literal is read at the target precision, not at the ambient 53 bits
                got = bessel_I1(z, bits)
                with mp.workprec(bits + 16):
                    want = mpmath.besseli(1, mp.mpf(z))
                    assert abs(got / want - 1) < mp.mpf(2) ** (-bits + 12)

    def test_monotonic(self):
        assert bessel_I1(3, 128) > bessel_I1(2, 128)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            bessel_I1(-1, 128)

    def test_rejects_low_precision(self):
        with pytest.raises(DomainError):
            bessel_I1(2, 32)

    def test_rejects_non_finite_without_hanging(self):
        # in a child with a timeout: the series loop never ends on nan or inf,
        # so a regression must fail the test rather than stall the suite
        code = textwrap.dedent(
            """
            from fibcomp.analytic import bessel_I1
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
        # in a child with a timeout: the series takes time linear in z, so
        # without the bound 1e12 would stall the suite; 2^16 still returns
        code = textwrap.dedent(
            """
            from fibcomp.analytic import bessel_I1
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
        # plenty of bits, so the failure comes from tail drift, not resolution
        with pytest.raises(NonCertifiedError) as exc:
            rademacher_p(10000, k_max=1, precision_bits=512)
        assert not exc.value.report.certified

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

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            hagis_q(0)
        with pytest.raises(DomainError):
            hagis_q(3, k_max=-2)


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
        assert analytic.default_bits_p(1) == 128
        assert analytic.default_bits_q(1) == 128
        assert analytic.default_bits_p(500) > 128
