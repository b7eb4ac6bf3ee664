"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each fibcomp module and rebinds
every name under which the package refers to them, so calls between the
modules go through the wrappers as well.  Each wrapper records a span:
its time counts toward its metric as self time, that is, minus the time
of the wrapped calls it made.  A `*.calls` or `bijection.maps` count is
the number of calls that enter the layer from outside it, so a public
function calling another of its own layer counts once.
"""

from __future__ import annotations

import os
import sys
import time
import types

# name -> unit of every per-layer metric, in reporting order
PER_LAYER = {
    "cli.import_s": "s",
    "cli.run_s": "s",
    "analytic.dedekind_s.calls": "count",
    "analytic.dedekind_s.s": "s",
    "analytic.hagis_t.calls": "count",
    "analytic.hagis_t.s": "s",
    "analytic.cospi.calls": "count",
    "analytic.cospi.s": "s",
    "analytic.hyperbolic.calls": "count",
    "analytic.hyperbolic.s": "s",
    "analytic.terms": "count",
    "analytic.escalations": "count",
    "analytic.rademacher_p.s": "s",
    "analytic.hagis_q.s": "s",
    "counting.recurrence.s": "s",
    "counting.table.write_s": "s",
    "counting.table.read_s": "s",
    "counting.table.bytes_written": "bytes",
    "counting.table.bytes_read": "bytes",
    "genfun.s": "s",
    "enumeration.items": "count",
    "enumeration.s": "s",
    "core.codec.calls": "count",
    "core.codec.s": "s",
    "bijection.maps": "count",
    "bijection.s": "s",
    "verify.codec.s": "s",
    "verify.bijection.s": "s",
    "verify.counts.s": "s",
    "verify.genfun.s": "s",
    "trace.overhead_s": "s",
}

# (module, function names, layer, time metric, entry-count metric or None)
_SPANS = [
    ("cli", ("main", "run"), "cli", "cli.run_s", None),
    ("analytic", ("dedekind_s",), "dedekind_s", "analytic.dedekind_s.s", "analytic.dedekind_s.calls"),
    ("analytic", ("hagis_t",), "hagis_t", "analytic.hagis_t.s", "analytic.hagis_t.calls"),
    ("analytic", ("cospi",), "cospi", "analytic.cospi.s", "analytic.cospi.calls"),
    ("analytic", ("cosh", "sinh", "sqrt"), "hyperbolic", "analytic.hyperbolic.s", "analytic.hyperbolic.calls"),
    ("analytic", ("rademacher_p",), "evaluator", "analytic.rademacher_p.s", None),
    ("analytic", ("hagis_q",), "evaluator", "analytic.hagis_q.s", None),
    ("counting", ("save_table",), "counting", "counting.table.write_s", None),
    ("counting", ("load_table",), "counting", "counting.table.read_s", None),
    (
        "counting",
        (
            "c_count", "is_triangular", "fibonacci", "Q_count", "p_recurrence", "q_recurrence",
            "q_recurrence_residual", "binet_float", "binet_first_failure", "build_table",
            "cached_table",
        ),
        "counting",
        "counting.recurrence.s",
        None,
    ),
    (
        "genfun",
        (
            "series_mul", "series_inverse", "partition_gf", "compositions_gf",
            "distinct_partitions_ell_gf", "distinct_compositions_gf",
        ),
        "genfun",
        "genfun.s",
        None,
    ),
    (
        "enumeration",
        ("parse_class", "gen_compositions", "gen_partitions", "count_by_enumeration"),
        "enumeration",
        "enumeration.s",
        None,
    ),
    (
        "core",
        (
            "make_composition", "parse_composition", "format_composition", "to_bitseq",
            "from_bitseq", "conjugate", "render_graph",
        ),
        "core",
        "core.codec.s",
        "core.codec.calls",
    ),
    ("bijection", ("trace_forward", "odd_to_gt1", "gt1_to_odd"), "bijection", "bijection.s", "bijection.maps"),
    ("verify", ("verify_suite",), "verify", None, None),
]


class Tracer:
    """Self time and counts per metric, kept in memory for one process."""

    def __init__(self):
        self.metrics = {name: 0 for name in PER_LAYER}
        # open spans, innermost last: [layer, start, seconds of wrapped children]
        self._stack: list[list] = []

    def _enter(self, layer: str, count_metric: str | None) -> list:
        if count_metric and (not self._stack or self._stack[-1][0] != layer):
            self.metrics[count_metric] += 1
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame: list, time_metric: str) -> None:
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        self.metrics[time_metric] = self.metrics.get(time_metric, 0) + elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, fn, layer: str, time_metric: str | None, count_metric: str | None):
        tracer = self

        def traced(*args, **kwargs):
            metric = time_metric or f"verify.{args[0]}.s"
            before = _file_size(args[0]) if fn.__name__ == "load_table" else 0
            frame = tracer._enter(layer, count_metric)
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError as exc:
                tracer._note_report(fn, args, kwargs, getattr(exc, "report", None))
                raise
            finally:
                tracer._leave(frame, metric)
            tracer._note_report(fn, args, kwargs, result)
            if fn.__name__ == "load_table":
                tracer.metrics["counting.table.bytes_read"] += before
            elif fn.__name__ == "save_table":
                tracer.metrics["counting.table.bytes_written"] += _file_size(args[1])
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(result, layer, metric)
            return result

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, stream, layer: str, time_metric: str):
        # a generator does its work when it is advanced, so each step is a span
        while True:
            frame = self._enter(layer, None)
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                self._leave(frame, time_metric)
            self.metrics["enumeration.items"] += 1
            yield item

    def _note_report(self, fn, args, kwargs, report) -> None:
        if fn.__name__ not in ("rademacher_p", "hagis_q") or report is None:
            return
        from fibcomp import analytic

        start = kwargs.get("k_max", args[1] if len(args) > 1 else None)
        if start is None:
            start = analytic.default_k_terms(args[0])
        self.metrics["analytic.terms"] += report.k_terms_used
        self.metrics["analytic.escalations"] += (report.k_terms_used // start).bit_length() - 1

    def install(self) -> None:
        """Wrap the traced functions and rebind them across the loaded package."""
        wrappers = {}
        for module_name, names, layer, time_metric, count_metric in _SPANS:
            module = sys.modules.get(f"fibcomp.{module_name}")
            if module is None:
                continue
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self.wrap(original, layer, time_metric, count_metric))
        for module_name, module in list(sys.modules.items()):
            if module_name != "fibcomp" and not module_name.startswith("fibcomp."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def add_into(total: dict, part: dict) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value
