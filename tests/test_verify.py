import pytest

from fibcomp import verify
from fibcomp.core import Composition, DomainError, NonCertifiedError


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


@pytest.mark.parametrize("name, walks, maps", [("codec", 9, 0), ("bijection", 18, 88)])
def test_each_stream_is_walked_once_and_each_member_mapped_once(monkeypatch, name, walks, maps):
    # every row of a suite is fed from one walk per stream per n: codec walks
    # the compositions of each n, bijection the odd-parts stream of n and the
    # min-part-2 stream of n + 1, mapping each of the F_1 + ... + F_9 = F_11 - 1
    # odd-parts members once
    calls = {"gen_compositions": 0, "odd_to_gt1": 0}

    def counted(module, attribute):
        real = getattr(module, attribute)

        def call(*args):
            calls[attribute] += 1
            return real(*args)

        monkeypatch.setattr(module, attribute, call)

    counted(verify.enumeration, "gen_compositions")
    counted(verify.bijection, "odd_to_gt1")
    assert all(result.passed for result in run(name, 9))
    assert calls == {"gen_compositions": walks, "odd_to_gt1": maps}


def test_a_shared_codec_walk_feeds_the_rows_still_open(monkeypatch):
    # three rows fail at 1+2 (n = 3); the walk goes on, so the roundtrip row
    # still finds 2+2+1 (n = 5) and the zero-runs row still sees every case
    real_decode, real_conjugate = verify.from_bitseq, verify.conjugate

    def decode(bits):
        c = real_decode(bits)
        return Composition(c.parts[::-1]) if c.parts == (2, 2, 1) else c

    monkeypatch.setattr(verify, "from_bitseq", decode)
    monkeypatch.setattr(verify, "conjugate", lambda c: Composition((3,)) if c.parts == (1, 2) else real_conjugate(c))
    assert run("codec", 6) == [
        verify.CheckResult("codec roundtrip n<=6", False, "smallest counterexample: 2+2+1"),
        verify.CheckResult("conjugation involution n<=6", False, "smallest counterexample: 1+2"),
        verify.CheckResult("conjugate part-count law n<=6", False, "smallest counterexample: 1+2"),
        verify.CheckResult("odd parts iff even zero-runs n<=6", True, "63 cases"),
        verify.CheckResult(
            "odd parts iff conjugate odd length with even-index ones n<=6", False, "smallest counterexample: 1+2"
        ),
    ]


def test_a_shared_bijection_walk_feeds_the_rows_still_open(monkeypatch):
    # 1+1+1+1+1 mapped as 5 fails the roundtrip and image rows at n = 5, while
    # the parity and count rows, fed from the same walks, take every case
    real = verify.bijection.odd_to_gt1
    monkeypatch.setattr(
        verify.bijection, "odd_to_gt1", lambda a: real(Composition((5,)) if a.parts == (1,) * 5 else a)
    )
    assert run("bijection", 7) == [
        verify.CheckResult("roundtrip inverse(forward) n<=7", False, "smallest counterexample: 1+1+1+1+1"),
        verify.CheckResult("image equals min-part-2 target n<=7", False, "smallest counterexample: n=5, 6"),
        verify.CheckResult("odd-part parity n == ell (mod 2) n<=7", True, "33 cases"),
        verify.CheckResult("both classes count F_n n<=7", True, "7 cases"),
    ]
