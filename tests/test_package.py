"""The package surface is lazy: names resolve on first lookup, a CLI call
loads the analytic layer only when it evaluates a series, and mpmath only
with fibcomp.reference, for the analytic verify suite.
No CLI call loads dataclasses, and the value types keep one contract:
equal by exact class and fields, shown as Type(field=value), read only.
A size argument is a plain int: a bool, a float or a string is refused."""

import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fibcomp

# every name the package exports, by home module
EXPORTED = {
    "analytic": ("NonCertifiedError", "SeriesEvalReport", "hagis_q", "rademacher_p"),
    "bijection": ("BijectionTrace", "gt1_to_odd", "odd_to_gt1", "trace_forward"),
    "core": (
        "BitSeq", "Composition", "DomainError", "Partition", "conjugate", "format_composition",
        "from_bitseq", "make_composition", "parse_composition", "render_graph", "to_bitseq",
    ),
    "counting": (
        "BinetReport", "MemoTable", "Q_count", "binet_first_failure", "binet_float", "c_count",
        "fibonacci", "p_recurrence", "q_recurrence", "q_recurrence_residual",
    ),
    "enumeration": (
        "CompositionClass", "PartitionClass", "count_by_enumeration", "gen_compositions",
        "gen_partitions", "parse_class",
    ),
    "genfun": (
        "TruncatedSeries", "compositions_gf", "distinct_compositions_gf",
        "distinct_partitions_ell_gf", "partition_gf", "series_inverse", "series_mul",
    ),
    "reference": ("bessel_I1", "dedekind_s", "hagis_t", "kloosterman_A", "sawtooth"),
    "verify": ("CheckResult", "verify_suite"),
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]
SRC = str(Path(fibcomp.__file__).resolve().parents[1])


def _run_python(code: str, *options: str) -> subprocess.CompletedProcess:
    # a fresh interpreter: pytest's own process has loaded every module already
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *options, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module, name", PAIRS, ids=[f"{m}.{n}" for m, n in PAIRS])
def test_exported_name_is_its_home_modules_object(module, name):
    assert getattr(fibcomp, name) is getattr(importlib.import_module(f"fibcomp.{module}"), name)


def test_errors_have_one_home():
    from fibcomp import analytic, core, reference

    assert fibcomp.NonCertifiedError is analytic.NonCertifiedError is core.NonCertifiedError
    assert reference.ImaginaryResidueError is core.ImaginaryResidueError


def test_star_import_binds_all():
    assert sorted(fibcomp.__all__) == sorted([*EXPORTED, *(name for _, name in PAIRS)])
    assert set(fibcomp.__all__) <= set(dir(fibcomp))
    namespace = {}
    exec("from fibcomp import *", namespace)
    missing = [name for name in fibcomp.__all__ if name not in namespace]
    assert missing == []
    assert namespace["rademacher_p"] is fibcomp.analytic.rademacher_p


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fibcomp.no_such_name
    assert not hasattr(fibcomp, "mp")
    with pytest.raises(ImportError):
        exec("from fibcomp import no_such_name", {})


def test_import_loads_no_submodule():
    proc = _run_python(
        textwrap.dedent(
            """
            import sys, fibcomp

            def loaded():
                return sorted(m for m in sys.modules if m.startswith("fibcomp."))

            print(fibcomp.__version__, loaded())
            print(fibcomp.counting.fibonacci(10), loaded())
            print(fibcomp.parse_class("partitions:all"), loaded())
            """
        )
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0.1.0 []",
        "55 ['fibcomp.core', 'fibcomp.counting']",
        "partitions:all ['fibcomp.core', 'fibcomp.counting', 'fibcomp.enumeration', 'fibcomp.genfun']",
    ]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["count", "--class", "compositions:all", "3"], {"fibcomp.enumeration", "fibcomp.counting"}),
        (["analytic", "q", "100"], {"fibcomp.analytic"}),
        (["verify", "--suite", "analytic", "--max-n", "2"], {"fibcomp.analytic", "fibcomp.reference"}),
    ],
    ids=["count", "analytic", "verify-analytic"],
)
def test_importtime_log_names_each_submodule(argv, modules):
    # a submodule the log does not name hides its load time in its importer's
    proc = _run_python(f"from fibcomp import cli; cli.run({argv!r})", "-X", "importtime")
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "fibcomp.cli" in logged and modules <= logged, sorted(m for m in logged if m.startswith("fibcomp"))


def test_only_the_analytic_verify_suite_loads_mpmath():
    proc = _run_python(
        textwrap.dedent(
            """
            import contextlib, io, sys
            from fibcomp import cli

            for argv in (
                ["count", "--class", "compositions:odd-parts", "30"],
                ["count", "--class", "partitions:all", "30"],
                ["enumerate", "--class", "compositions:min-part-2", "7"],
                ["series", "partitions", "--order", "10"],
                ["map", "--trace", "1+1+1+9+1+1+5+3"],
                *(["verify", "--suite", s, "--max-n", "6"] for s in ("codec", "bijection", "counts", "genfun")),
                ["analytic", "p", "45"],
                ["analytic", "q", "45"],
                ["verify", "--suite", "analytic", "--max-n", "2"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(argv)
                loaded = [m for m in ("mpmath", "fibcomp.analytic", "fibcomp.reference") if m in sys.modules]
                print(argv[0], argv[2] if argv[0] == "verify" else "", code, loaded)
            """
        )
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "count  0 []",
        "count  0 []",
        "enumerate  0 []",
        "series  0 []",
        "map  0 []",
        "verify codec 0 []",
        "verify bijection 0 []",
        "verify counts 0 []",
        "verify genfun 0 []",
        "analytic  0 ['fibcomp.analytic']",
        "analytic  0 ['fibcomp.analytic']",
        "verify analytic 0 ['mpmath', 'fibcomp.analytic', 'fibcomp.reference']",
    ]


def test_only_verify_calls_load_verify():
    proc = _run_python(
        textwrap.dedent(
            """
            import contextlib, io, sys
            from fibcomp import cli

            for argv in (
                ["count", "--class", "partitions:all", "30"],
                ["enumerate", "--class", "compositions:min-part-2", "7"],
                ["series", "partitions", "--order", "10"],
                ["map", "--trace", "1+1+1+9+1+1+5+3"],
                ["analytic", "p", "10"],
                ["verify", "--suite", "codec", "--max-n", "6"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(argv)
                print(argv[0], code, "fibcomp.verify" in sys.modules)
            """
        )
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "count 0 False",
        "enumerate 0 False",
        "series 0 False",
        "map 0 False",
        "analytic 0 False",
        "verify 0 True",
    ]


def test_cli_calls_load_no_class_builder_and_analytic_no_rationals():
    # dataclasses brings in inspect and execs generated code for each class
    # at import; the series never build a Fraction, so analytic needs neither
    # fractions nor decimal; only --json output needs json
    proc = _run_python(
        textwrap.dedent(
            """
            import contextlib, io, sys
            from fibcomp import cli

            for argv in (
                ["analytic", "p", "100"],
                ["analytic", "q", "100"],
                ["count", "--class", "compositions:all", "1"],
                ["enumerate", "--class", "partitions:distinct-ell=2", "7"],
                ["series", "distinct-partitions", "--ell", "2", "--order", "8"],
                ["map", "--trace", "1+1+1+9+1+1+5+3"],
                ["verify", "--suite", "codec", "--max-n", "6"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(argv)
                loaded = [m for m in ("dataclasses", "fractions", "decimal", "json") if m in sys.modules]
                print(argv[0], code, loaded)
            """
        )
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "analytic 0 []",
        "analytic 0 []",
        "count 0 []",
        "enumerate 0 []",
        "series 0 []",
        "map 0 []",
        "verify 0 []",
    ]


VALUE_TYPES = [
    (fibcomp.Composition, ((1, 2),), "Composition(parts=(1, 2))"),
    (fibcomp.Partition, ((2, 1),), "Partition(parts=(2, 1))"),
    (fibcomp.BitSeq, ((0, 1),), "BitSeq(bits=(0, 1))"),
    (fibcomp.TruncatedSeries, ((1, -2),), "TruncatedSeries(coeffs=(1, -2))"),
    (fibcomp.CompositionClass, ("odd-parts",), "CompositionClass(kind='odd-parts', ell=None)"),
    (fibcomp.PartitionClass, ("distinct-ell", 3), "PartitionClass(kind='distinct-ell', ell=3)"),
    (fibcomp.analytic.Dyadic, (5, -2), "Dyadic(man=5, exp=-2)"),
]


@pytest.mark.parametrize("value_type, args, text", VALUE_TYPES, ids=[t.__name__ for t, _, _ in VALUE_TYPES])
def test_value_type_contract(value_type, args, text):
    a, b = value_type(*args), value_type(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == text

    class Same(value_type):  # same fields, another exact class
        pass

    assert a != Same(*args) and Same(*args) != a
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def _cached_table(size, tmp):
    # with a table on file, cached_table would otherwise return it unread
    fibcomp.counting.save_table(fibcomp.counting.build_table("p", 5), tmp / "p.table")
    return fibcomp.counting.cached_table("p", size, tmp)


# every size-taking public function of counting, genfun and enumeration, one
# size argument at a time, as (size, scratch directory) -> call
SIZE_TAKERS = {
    "c_count": lambda size, tmp: fibcomp.c_count(size),
    "fibonacci": lambda size, tmp: fibcomp.fibonacci(size),
    "Q_count": lambda size, tmp: fibcomp.Q_count(size),
    "p_recurrence": lambda size, tmp: fibcomp.p_recurrence(size),
    "q_recurrence": lambda size, tmp: fibcomp.q_recurrence(size),
    "q_recurrence_residual": lambda size, tmp: fibcomp.q_recurrence_residual(size),
    "binet_float": lambda size, tmp: fibcomp.binet_float(size),
    "build_table": lambda size, tmp: fibcomp.counting.build_table("q", size),
    "cached_table": _cached_table,
    "from_list": lambda size, tmp: fibcomp.TruncatedSeries.from_list([1, 2], size),
    "one": lambda size, tmp: fibcomp.TruncatedSeries.one(size),
    "monomial-power": lambda size, tmp: fibcomp.TruncatedSeries.monomial(size, 3),
    "monomial-order": lambda size, tmp: fibcomp.TruncatedSeries.monomial(1, size),
    "partition_gf": lambda size, tmp: fibcomp.partition_gf(size),
    "compositions_gf": lambda size, tmp: fibcomp.compositions_gf(size),
    "distinct_partitions_ell_gf-ell": lambda size, tmp: fibcomp.distinct_partitions_ell_gf(size, 5),
    "distinct_partitions_ell_gf-order": lambda size, tmp: fibcomp.distinct_partitions_ell_gf(2, size),
    "distinct_compositions_gf": lambda size, tmp: fibcomp.distinct_compositions_gf(size),
    "PartitionClass-ell": lambda size, tmp: fibcomp.PartitionClass("distinct-ell", size),
    "exact_count": lambda size, tmp: fibcomp.enumeration.exact_count(size, fibcomp.CompositionClass("all")),
    "gen_class": lambda size, tmp: fibcomp.enumeration.gen_class(size, fibcomp.PartitionClass("all")),
    "gen_compositions": lambda size, tmp: fibcomp.gen_compositions(size, fibcomp.CompositionClass("odd-parts")),
    "gen_partitions": lambda size, tmp: fibcomp.gen_partitions(size, fibcomp.PartitionClass("distinct-parts")),
    "tally_by_enumeration": lambda size, tmp: fibcomp.enumeration.tally_by_enumeration(
        size, fibcomp.CompositionClass("min-part-2")
    ),
    "count_by_enumeration": lambda size, tmp: fibcomp.count_by_enumeration(size, fibcomp.PartitionClass("odd-parts")),
}


# a bool is an int to isinstance and 2.5 compares with ints, but neither is a size
@pytest.mark.parametrize("size", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("call", SIZE_TAKERS.values(), ids=SIZE_TAKERS)
def test_a_size_must_be_a_plain_int(call, size, tmp_path):
    with pytest.raises(fibcomp.DomainError):
        call(size, tmp_path)


def test_version_matches_pyproject():
    # read by regex rather than tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == fibcomp.__version__
