"""Command line front end.

Exit codes: 0 success, 1 domain error or bad usage, 2 verification or
certification failure.  Plain output is line-oriented with no trailing
whitespace; --json emits exactly one JSON document.  Identical argv yields
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from contextlib import contextmanager
from typing import Iterable

from . import bijection, enumeration
from .core import (
    DomainError,
    ImaginaryResidueError,
    NonCertifiedError,
    format_composition,
    parse_composition,
)


# verify.suite_names(), spelled out so that only the verify subcommand loads
# verify (a test keeps the two equal)
SUITE_NAMES = ("codec", "bijection", "counts", "genfun", "analytic")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; domain errors own exit 1 here
    def error(self, message):
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")

    parser = _Parser(prog="fibcomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common], help="closed-form and recurrence counts")
    p_count.add_argument("--class", dest="cls", required=True, help="family:kind, e.g. compositions:all")
    p_count.add_argument("n", type=int)
    p_count.add_argument(
        "--cache-dir",
        default=None,
        help="directory for recurrence table files (FIBCOMP_CACHE_DIR as fallback)",
    )

    p_enum = sub.add_parser("enumerate", parents=[common], help="stream a class exhaustively")
    p_enum.add_argument("--class", dest="cls", required=True)
    shown = p_enum.add_mutually_exclusive_group()
    shown.add_argument("--limit", type=_non_negative_int, default=None, help="emit at most this many items")
    shown.add_argument("--count", action="store_true", help="print only the stream length")
    p_enum.add_argument("--force", action="store_true", help="allow n above 30")
    p_enum.add_argument("n", type=int)

    p_map = sub.add_parser("map", parents=[common], help="odd-parts bijection and inverse")
    direction = p_map.add_mutually_exclusive_group(required=True)
    direction.add_argument("--odd-to-gt1", action="store_true")
    direction.add_argument("--gt1-to-odd", action="store_true")
    direction.add_argument("--trace", action="store_true", help="forward map with intermediates")
    p_map.add_argument("composition", help='composition in "a1+a2+..." form')

    p_series = sub.add_parser("series", parents=[common], help="generating function coefficients")
    p_series.add_argument("name", choices=list(enumeration.SERIES))
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--ell", type=int, default=None, help="part count for distinct-partitions")

    p_analytic = sub.add_parser("analytic", parents=[common], help="certified series evaluation")
    p_analytic.add_argument("series", choices=["p", "q"])
    p_analytic.add_argument("n", type=int)
    p_analytic.add_argument("--kmax", type=int, default=None, help="starting term budget")
    p_analytic.add_argument("--bits", type=int, default=None, help="starting working precision")

    p_verify = sub.add_parser("verify", parents=[common], help="run oracle cross-check suites")
    p_verify.add_argument("--suite", choices=list(SUITE_NAMES), default=None)
    p_verify.add_argument("--max-n", type=int, default=None)

    return parser


def _emit(lines: Iterable[str]) -> None:
    for line in lines:
        sys.stdout.write(line + "\n")


def _emit_json(document) -> None:
    import json  # only --json output needs it

    sys.stdout.write(json.dumps(document) + "\n")


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("FIBCOMP_CACHE_DIR") or None


def _emit_count(args, cls, value: int) -> int:
    if args.json:
        _emit_json({"n": args.n, "class": str(cls), "count": value})
    else:
        _emit([str(value)])
    return 0


def _cmd_count(args) -> int:
    cls = enumeration.parse_class(args.cls)
    return _emit_count(args, cls, enumeration.exact_count(args.n, cls, _cache_dir(args)))


def _cmd_enumerate(args) -> int:
    if args.n > 30 and not args.force:
        raise DomainError(f"enumerate for n={args.n} may be huge; pass --force to proceed")
    cls = enumeration.parse_class(args.cls)
    if args.count:
        return _emit_count(args, cls, enumeration.count_by_enumeration(args.n, cls))
    # plain lines go out as the stream yields them, so `| head` needs no
    # more of a huge class than it reads
    items = map(str, itertools.islice(enumeration.gen_class(args.n, cls), args.limit))
    if args.json:
        _emit_json({"n": args.n, "class": str(cls), "items": list(items)})
    else:
        _emit(items)
    return 0


def _cmd_map(args) -> int:
    comp = parse_composition(args.composition)
    if args.trace:
        trace = bijection.trace_forward(comp)
        fields = [
            ("a", trace.a),
            ("a_conj", trace.a_conj),
            ("b", trace.b),
            ("c", trace.c),
        ]
        if args.json:
            _emit_json({key: format_composition(value) for key, value in fields})
        else:
            _emit([f"{key}={format_composition(value)}" for key, value in fields])
        return 0
    if args.odd_to_gt1:
        result = bijection.odd_to_gt1(comp)
    else:
        result = bijection.gt1_to_odd(comp)
    if args.json:
        _emit_json({"input": format_composition(comp), "output": format_composition(result)})
    else:
        _emit([format_composition(result)])
    return 0


def _cmd_series(args) -> int:
    spec = enumeration.SERIES[args.name]
    if args.ell is not None and not spec.takes_ell:
        takers = ", ".join(name for name, s in enumeration.SERIES.items() if s.takes_ell)
        raise DomainError(f"--ell only applies to {takers}")
    if spec.takes_ell and args.ell is None:
        raise DomainError(f"{args.name} needs --ell")
    series = spec.gf(args.order, args.ell)
    if args.json:
        document = {"name": args.name, "order": series.order}
        if args.ell is not None:
            document["ell"] = args.ell
        document["coefficients"] = list(series.coeffs)
        _emit_json(document)
    else:
        _emit([f"{i}\t{c}" for i, c in enumerate(series.coeffs)])
    return 0


def _cmd_analytic(args) -> int:
    from . import analytic  # loads mpmath; no other subcommand needs it

    evaluate = analytic.rademacher_p if args.series == "p" else analytic.hagis_q
    report = evaluate(args.n, k_max=args.kmax, precision_bits=args.bits)
    document = {
        "series": args.series,
        "n": report.n,
        "rounded": report.rounded,
        "certified": report.certified,
        "k_terms": report.k_terms_used,
        "precision_bits": report.precision_bits,
        "raw": analytic.mp.nstr(report.raw_value, 30),
        "residual": analytic.mp.nstr(report.residual, 3),
    }
    if args.json:
        _emit_json(document)
    else:
        plain = dict(document, certified="true" if report.certified else "false")
        _emit([f"{key}={value}" for key, value in plain.items()])
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    names = [args.suite] if args.suite else list(SUITE_NAMES)
    all_checks: dict[str, list[verify.CheckResult]] = {}
    for name in names:
        all_checks[name] = verify.verify_suite(name, args.max_n)
    failed = sum(1 for checks in all_checks.values() for c in checks if not c.passed)
    total = sum(len(checks) for checks in all_checks.values())
    if args.json:
        _emit_json(
            {
                "suites": {
                    name: [
                        {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
                    ]
                    for name, checks in all_checks.items()
                },
                "passed": failed == 0,
            }
        )
    else:
        lines = []
        for name, checks in all_checks.items():
            for c in checks:
                tag = "[OK]" if c.passed else "[FAIL]"
                lines.append(f"{tag} {name}: {c.name} ({c.detail})")
        lines.append(f"passed {total - failed}/{total} checks")
        _emit(lines)
    return 0 if failed == 0 else 2


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "map": _cmd_map,
    "series": _cmd_series,
    "analytic": _cmd_analytic,
    "verify": _cmd_verify,
}


@contextmanager
def _unlimited_int_digits():
    """Lift CPython's int <-> str digit limit (3.11+, some 3.10 builds): exact
    counts and table entries run to tens of thousands of digits."""
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)


@_unlimited_int_digits()
def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help path
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        raise  # main() ends quietly when the reader of stdout goes away
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (NonCertifiedError, ImaginaryResidueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()  # output that fit the buffer meets a closed pipe here
    except BrokenPipeError:  # reader gone (`| head -1`); devnull keeps the exit flush from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
