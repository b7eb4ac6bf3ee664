import pytest

from fibcomp import verify
from fibcomp.core import DomainError, NonCertifiedError


def run(name, max_n):
    results = verify.verify_suite(name, max_n)
    assert results, f"suite {name} produced no checks"
    return results


@pytest.mark.parametrize(
    "name,max_n",
    [("codec", 9), ("bijection", 10), ("counts", 14), ("genfun", 14), ("analytic", 8)],
)
def test_suites_pass_at_small_bounds(name, max_n):
    for result in run(name, max_n):
        assert result.passed, f"{name}:{result.name}: {result.detail}"
        assert result.name
        assert result.detail


def test_suite_names_cover_all_suites():
    assert set(verify.suite_names()) == {"codec", "bijection", "counts", "genfun", "analytic"}


def test_cli_suite_choices_match_verify():
    from fibcomp import cli

    assert cli.SUITE_NAMES == verify.suite_names()


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        verify.verify_suite("quantum", 5)


@pytest.mark.parametrize("max_n", [True, 2.5, "3"])
def test_max_n_must_be_an_int(max_n):
    # a bool would name its rows n<=True; a float or a str would fail inside a suite
    with pytest.raises(DomainError) as refused:
        verify.verify_suite("codec", max_n)
    assert str(refused.value) == f"max_n must be >= 1, got {max_n!r}"


def test_failure_reports_counterexample(monkeypatch):
    # break one counter and confirm the suite pinpoints the smallest witness
    from fibcomp import counting

    real = counting.c_count

    def wrong(n):
        return real(n) + (1 if n == 7 else 0)

    monkeypatch.setattr(verify.counting, "c_count", wrong)
    results = verify.verify_suite("counts", 12)
    failed = [r for r in results if not r.passed]
    assert failed
    assert any("7" in r.detail for r in failed)


def test_first_failure_without_label_lets_evaluation_errors_through():
    # only a row with a label reports an evaluation error as its counterexample
    from fibcomp.analytic import rademacher_p

    def fails(n):
        if n == 2:
            raise NonCertifiedError("rademacher_p", rademacher_p(n))
        return None

    with pytest.raises(NonCertifiedError, match="n=2"):
        verify._first_failure("row", [(1,), (2,), (3,)], fails)
