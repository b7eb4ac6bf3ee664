"""The package surface is lazy: names resolve on first lookup, a CLI call
loads the analytic layer only when it evaluates a series, and mpmath only
with fibcomp.reference, for the analytic verify suite.
No CLI call loads dataclasses, and the value types keep one contract:
equal by exact class and fields, shown as Type(field=value), read only.
A size argument is a plain int: a bool, a float or a string is refused,
and core.check_size writes each refusal of a size below its floor (a
class's ell and bessel_I1's z aside)."""

import ast
import importlib
import os
import pkgutil
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
        "BinetReport", "Q_count", "binet_first_failure", "binet_float", "c_count", "fibonacci",
        "p_recurrence", "q_recurrence", "q_recurrence_residual",
    ),
    "enumeration": (
        "CompositionClass", "PartitionClass", "gen_class", "parse_class", "tally_by_enumeration",
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


def test_only_the_counting_subcommands_load_the_counters():
    # analytic and map call no counter, so their cold start loads neither
    # enumeration nor, through it, counting and genfun
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        from fibcomp import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        print(code, *(f"fibcomp.{m}" in sys.modules for m in ("enumeration", "counting", "genfun")))
        """
    )
    for argv, want in (
        (["analytic", "p", "10"], "0 False False False"),
        (["analytic", "q", "10"], "0 False False False"),
        (["map", "--trace", "1+1+1+9+1+1+5+3"], "0 False False False"),
        (["count", "--class", "partitions:all", "30"], "0 True True True"),
        (["enumerate", "--class", "compositions:min-part-2", "7"], "0 True True True"),
        (["series", "partitions", "--order", "10"], "0 True True True"),
        (["verify", "--suite", "codec", "--max-n", "6"], "0 True True True"),
    ):
        proc = _run_python(f"argv = {argv!r}" + code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", ""), argv


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


# the value types whose one field is a sequence: any iterable is taken and
# stored as a tuple
SEQUENCE_TYPES = [row for row in VALUE_TYPES if isinstance(row[1][0], tuple)]


@pytest.mark.parametrize("value_type, args, text", SEQUENCE_TYPES, ids=[t.__name__ for t, _, _ in SEQUENCE_TYPES])
def test_sequence_field_is_stored_as_a_tuple(value_type, args, text):
    want = value_type(*args)
    for items in (list(args[0]), iter(args[0])):
        got = value_type(items)
        assert got == want and hash(got) == hash(want)
        assert repr(got) == text


# Frozen bases that are never built themselves; their subclasses are
ABSTRACT_VALUE_TYPES = {"core._Parts", "enumeration.EnumClass"}


def test_every_value_type_is_held_to_the_contract():
    found = set()
    for info in pkgutil.iter_modules(fibcomp.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"fibcomp.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, fibcomp.core.Frozen)
                and value.__module__ == module.__name__
                and value is not fibcomp.core.Frozen
            ):
                found.add(f"{info.name}.{value.__qualname__}")
    listed = {f"{t.__module__.rpartition('.')[2]}.{t.__qualname__}" for t, _, _ in VALUE_TYPES}
    assert ABSTRACT_VALUE_TYPES <= found
    assert found - ABSTRACT_VALUE_TYPES <= listed, "a Frozen subclass is missing from VALUE_TYPES"


# every size-taking public function of the package, one size argument at a
# time, as size -> call
SIZE_TAKERS = {
    "c_count": lambda size: fibcomp.c_count(size),
    "fibonacci": lambda size: fibcomp.fibonacci(size),
    "Q_count": lambda size: fibcomp.Q_count(size),
    "p_recurrence": lambda size: fibcomp.p_recurrence(size),
    "q_recurrence": lambda size: fibcomp.q_recurrence(size),
    "q_recurrence_residual": lambda size: fibcomp.q_recurrence_residual(size),
    "binet_float": lambda size: fibcomp.binet_float(size),
    "build_table": lambda size: fibcomp.counting.build_table("q", size),
    "monomial-power": lambda size: fibcomp.TruncatedSeries.monomial(size, 3),
    "monomial-order": lambda size: fibcomp.TruncatedSeries.monomial(1, size),
    "partition_gf": lambda size: fibcomp.partition_gf(size),
    "compositions_gf": lambda size: fibcomp.compositions_gf(size),
    "distinct_partitions_ell_gf-ell": lambda size: fibcomp.distinct_partitions_ell_gf(size, 5),
    "distinct_partitions_ell_gf-order": lambda size: fibcomp.distinct_partitions_ell_gf(2, size),
    "distinct_compositions_gf": lambda size: fibcomp.distinct_compositions_gf(size),
    "PartitionClass-ell": lambda size: fibcomp.PartitionClass("distinct-ell", size),
    "exact_count": lambda size: fibcomp.enumeration.exact_count(size, fibcomp.CompositionClass("all")),
    "gen_class": lambda size: fibcomp.gen_class(size, fibcomp.PartitionClass("all")),
    "gen_class-compositions": lambda size: fibcomp.gen_class(size, fibcomp.CompositionClass("odd-parts")),
    "tally_by_enumeration": lambda size: fibcomp.tally_by_enumeration(
        size, fibcomp.CompositionClass("min-part-2")
    ),
    "binet_first_failure": lambda size: fibcomp.binet_first_failure(size),
    "is_triangular": lambda size: fibcomp.counting.is_triangular(size),
    "coefficient": lambda size: fibcomp.TruncatedSeries((5, 7, 9)).coefficient(size),
    "nstr": lambda size: fibcomp.analytic.nstr(fibcomp.analytic.Dyadic(5, -2), size),
    "rademacher_p-n": lambda size: fibcomp.rademacher_p(size),
    "rademacher_p-k_max": lambda size: fibcomp.rademacher_p(10, k_max=size),
    "rademacher_p-precision_bits": lambda size: fibcomp.rademacher_p(10, precision_bits=size),
    "hagis_q-n": lambda size: fibcomp.hagis_q(size),
    "hagis_q-k_max": lambda size: fibcomp.hagis_q(10, k_max=size),
    "hagis_q-precision_bits": lambda size: fibcomp.hagis_q(10, precision_bits=size),
    "verify_suite": lambda size: fibcomp.verify_suite("codec", size),
    "dedekind_s-h": lambda size: fibcomp.dedekind_s(size, 5),
    "dedekind_s-k": lambda size: fibcomp.dedekind_s(1, size),
    "hagis_t": lambda size: fibcomp.hagis_t(1, size),
    "kloosterman_A-k": lambda size: fibcomp.kloosterman_A(size, 5, 64),
    "kloosterman_A-n": lambda size: fibcomp.kloosterman_A(3, size, 64),
    "kloosterman_A-precision_bits": lambda size: fibcomp.kloosterman_A(3, 5, size),
    "bessel_I1": lambda size: fibcomp.bessel_I1("1", size),
}


# a bool is an int to isinstance and 2.5 compares with ints, but neither is a size
@pytest.mark.parametrize("size", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("call", SIZE_TAKERS.values(), ids=SIZE_TAKERS)
def test_a_size_must_be_a_plain_int(call, size):
    with pytest.raises(fibcomp.DomainError):
        call(size)


# a size below its floor, in check_size's words; binet_first_failure(-1) once
# returned None and nstr(x, 0) printed ".0e+3"
@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: fibcomp.binet_first_failure(-1), "binet_first_failure needs limit >= 0, got -1"),
        (lambda: fibcomp.analytic.nstr(fibcomp.analytic.Dyadic(1000, 0), 0), "nstr needs dps >= 1, got 0"),
        (lambda: fibcomp.rademacher_p(10, k_max=0), "k_max must be >= 1, got 0"),
        (lambda: fibcomp.hagis_q(10, precision_bits=32), "precision_bits must be >= 64, got 32"),
        (lambda: fibcomp.counting.build_table("p", -1), "table for 'p' needs max_n >= 0, got -1"),
        (lambda: fibcomp.kloosterman_A(3, 5, 63), "precision_bits must be >= 64, got 63"),
    ],
    ids=["binet_first_failure", "nstr", "k_max", "precision_bits", "build_table", "kloosterman_A"],
)
def test_a_size_below_its_floor_is_refused(call, text):
    with pytest.raises(fibcomp.DomainError) as refused:
        call()
    assert str(refused.value) == text


def _floor_refusals(node, file, scope=""):
    # (file, enclosing def, constant text) of each `raise DomainError(...)`
    # whose message holds ">= "
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) and child.exc.args:
            message = child.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            text = "".join(p.value for p in parts if isinstance(p, ast.Constant))
            if getattr(child.exc.func, "id", None) == "DomainError" and ">= " in text:
                yield file, scope, text
        yield from _floor_refusals(child, file, inner)


def test_every_size_refusal_goes_through_check_size():
    # a hand-written floor test is a size check of its own; only two stay: the
    # golden corpus pins the ell text, and bessel_I1's z is a real, not a size
    found = {
        refusal
        for path in Path(fibcomp.__file__).parent.glob("*.py")
        for refusal in _floor_refusals(ast.parse(path.read_text(encoding="utf-8")), path.name)
    }
    assert found == {
        ("core.py", "check_size", " >= , got "),
        ("enumeration.py", "EnumClass.__init__", " class needs ell >= 0"),
        ("reference.py", "bessel_I1", "bessel_I1 is only evaluated at z >= 0"),
    }


def test_version_matches_pyproject():
    # read by regex rather than tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == fibcomp.__version__
