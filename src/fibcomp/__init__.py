"""Exact combinatorics of integer compositions and partitions.

Composition/partition value types and the gap bit-sequence codec live in
core; enumeration holds the exhaustive oracle generators; counting the
exact counters and recurrences; genfun the truncated integer power series;
bijection the odd-parts correspondence; analytic the certified
series for p(n) and q(n), summed on integers; reference the independent
Dedekind, Hagis, exponential-sum and I_1 references the series are held
to; verify the cross-check suites.

Every CLI call is a fresh process, so the package imports a module only
when one of its names is first looked up (PEP 562): `import fibcomp`
loads no submodule, and mpmath loads only with reference, which the
analytic verify suite calls.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "analytic": ("SeriesEvalReport", "hagis_q", "rademacher_p"),
    "bijection": ("BijectionTrace", "gt1_to_odd", "odd_to_gt1", "trace_forward"),
    "core": (
        "BitSeq",
        "Composition",
        "DomainError",
        "NonCertifiedError",
        "Partition",
        "conjugate",
        "format_composition",
        "from_bitseq",
        "make_composition",
        "parse_composition",
        "render_graph",
        "to_bitseq",
    ),
    "counting": (
        "BinetReport",
        "MemoTable",
        "Q_count",
        "binet_first_failure",
        "binet_float",
        "c_count",
        "fibonacci",
        "p_recurrence",
        "q_recurrence",
        "q_recurrence_residual",
    ),
    "enumeration": (
        "CompositionClass",
        "PartitionClass",
        "count_by_enumeration",
        "gen_compositions",
        "gen_partitions",
        "parse_class",
    ),
    "genfun": (
        "TruncatedSeries",
        "compositions_gf",
        "distinct_compositions_gf",
        "distinct_partitions_ell_gf",
        "partition_gf",
        "series_inverse",
        "series_mul",
    ),
    "reference": ("bessel_I1", "dedekind_s", "hagis_t", "kloosterman_A", "sawtooth"),
    "verify": ("CheckResult", "verify_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name not in _EXPORTS and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not importlib.import_module, so that `-X importtime` logs each submodule
    module = __import__(f"{__name__}.{_HOME.get(name, name)}", fromlist=["_"])
    # a name is looked up in its home module each time, so a rebinding there shows here
    return module if name in _EXPORTS else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
