"""Command line front end.

Exit codes: 0 success, 1 domain error or bad usage, 2 verification or
certification failure.  Plain output is line-oriented with no trailing
whitespace; --json emits exactly one JSON document.  Identical argv yields
byte-identical stdout: no environment variable changes a call, and no
call reads or writes a file.

Each subcommand's handler computes and writes nothing: it returns its exit
status, its JSON document and its plain lines, and `run` alone writes one of
the two.  The document holds only values the handler computed anyway, and
the lines are lazy where their text grows with the output (count, series,
enumerate), so neither form pays for the other.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from contextlib import contextmanager

from . import bijection
from .core import (
    DomainError,
    ImaginaryResidueError,
    NonCertifiedError,
    format_composition,
    parse_composition,
)


# verify.suite_names() and enumeration.SERIES's keys, spelled out so that
# only the subcommands that use them load verify and enumeration (tests keep
# each pair equal)
SUITE_NAMES = ("codec", "bijection", "counts", "genfun", "analytic")
SERIES_NAMES = ("partitions", "compositions", "distinct-partitions", "distinct-compositions")


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
    p_count.set_defaults(handler=_cmd_count)
    p_count.add_argument("--class", dest="cls", required=True, help="family:kind, e.g. compositions:all")
    p_count.add_argument("n", type=int)
    p_count.add_argument(
        "--cache-dir",
        default=None,
        help="accepted and ignored: no count reads or writes a file",
    )

    p_enum = sub.add_parser("enumerate", parents=[common], help="stream a class exhaustively")
    p_enum.set_defaults(handler=_cmd_enumerate)
    p_enum.add_argument("--class", dest="cls", required=True)
    shown = p_enum.add_mutually_exclusive_group()
    shown.add_argument("--limit", type=_non_negative_int, default=None, help="emit at most this many items")
    shown.add_argument("--count", action="store_true", help="print only the stream length")
    p_enum.add_argument("--force", action="store_true", help="allow n above 30")
    p_enum.add_argument("n", type=int)

    p_map = sub.add_parser("map", parents=[common], help="odd-parts bijection and inverse")
    p_map.set_defaults(handler=_cmd_map)
    direction = p_map.add_mutually_exclusive_group(required=True)
    direction.add_argument("--odd-to-gt1", action="store_true")
    direction.add_argument("--gt1-to-odd", action="store_true")
    direction.add_argument("--trace", action="store_true", help="forward map with intermediates")
    p_map.add_argument("composition", help='composition in "a1+a2+..." form')

    p_series = sub.add_parser("series", parents=[common], help="generating function coefficients")
    p_series.set_defaults(handler=_cmd_series)
    p_series.add_argument("name", choices=list(SERIES_NAMES))
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--ell", type=int, default=None, help="part count for distinct-partitions")

    p_analytic = sub.add_parser("analytic", parents=[common], help="certified series evaluation")
    p_analytic.set_defaults(handler=_cmd_analytic)
    p_analytic.add_argument("series", choices=["p", "q"])
    p_analytic.add_argument("n", type=int)
    p_analytic.add_argument("--kmax", type=int, default=None, help="starting term budget")
    p_analytic.add_argument("--bits", type=int, default=None, help="starting working precision")

    p_verify = sub.add_parser("verify", parents=[common], help="run oracle cross-check suites")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--suite", choices=list(SUITE_NAMES), default=None)
    p_verify.add_argument("--max-n", type=int, default=None)

    return parser


def _count(args, cls, value: int):
    return 0, {"n": args.n, "class": str(cls), "count": value}, map(str, (value,))


def _cmd_count(args):
    from . import enumeration  # not at the top: analytic and map need no counter

    cls = enumeration.parse_class(args.cls)
    return _count(args, cls, enumeration.exact_count(args.n, cls))


def _cmd_enumerate(args):
    if args.n > 30 and not args.force:
        raise DomainError(f"enumerate for n={args.n} may be huge; pass --force to proceed")
    from . import enumeration

    cls = enumeration.parse_class(args.cls)
    if args.count:
        return _count(args, cls, enumeration.tally_by_enumeration(args.n, cls)[args.n])
    # islice refuses a limit past sys.maxsize, and no stream is read that
    # far, so such a limit is none
    limit = None if args.limit is not None and args.limit > sys.maxsize else args.limit
    items = map(str, itertools.islice(enumeration.gen_class(args.n, cls), limit))
    return 0, {"n": args.n, "class": str(cls), "items": items}, items


def _cmd_map(args):
    comp = parse_composition(args.composition)
    if args.trace:
        trace = bijection.trace_forward(comp)
        stages = {key: format_composition(value) for key, value in trace._asdict().items()}
        return 0, stages, (f"{key}={text}" for key, text in stages.items())
    if args.odd_to_gt1:
        result = bijection.odd_to_gt1(comp)
    else:
        result = bijection.gt1_to_odd(comp)
    output = format_composition(result)
    # parse_composition takes canonical text only, so the argument is the input's text
    return 0, {"input": args.composition, "output": output}, (output,)


def _cmd_series(args):
    from . import enumeration

    spec = enumeration.SERIES[args.name]
    if args.ell is not None and not spec.takes_ell:
        takers = ", ".join(name for name, s in enumeration.SERIES.items() if s.takes_ell)
        raise DomainError(f"--ell only applies to {takers}")
    if spec.takes_ell and args.ell is None:
        raise DomainError(f"{args.name} needs --ell")
    series = spec.gf(args.order, args.ell)
    document = {"name": args.name, "order": series.order}
    if args.ell is not None:
        document["ell"] = args.ell
    document["coefficients"] = series.coeffs  # json writes a tuple as an array
    return 0, document, (f"{i}\t{c}" for i, c in enumerate(series.coeffs))


def _cmd_analytic(args):
    from . import analytic  # no other subcommand needs the series

    evaluate = analytic.rademacher_p if args.series == "p" else analytic.hagis_q
    report = evaluate(args.n, k_max=args.kmax, precision_bits=args.bits)
    document = {
        "series": args.series,
        "n": report.n,
        "rounded": report.rounded,
        "certified": report.certified,
        "k_terms": report.k_terms_used,
        "precision_bits": report.precision_bits,
        "raw": analytic.nstr(report.raw_value, 30),
        "residual": analytic.nstr(report.residual, 3),
    }
    plain = dict(document, certified="true" if report.certified else "false")
    return 0, document, [f"{key}={value}" for key, value in plain.items()]


def _cmd_verify(args):
    from . import verify

    names = [args.suite] if args.suite else list(SUITE_NAMES)
    all_checks: dict[str, list[verify.CheckResult]] = {}
    for name in names:
        all_checks[name] = verify.verify_suite(name, args.max_n)
    failed = sum(1 for checks in all_checks.values() for c in checks if not c.passed)
    total = sum(len(checks) for checks in all_checks.values())
    document = {
        "suites": {name: [c._asdict() for c in checks] for name, checks in all_checks.items()},
        "passed": failed == 0,
    }
    lines = []
    for name, checks in all_checks.items():
        for c in checks:
            tag = "[OK]" if c.passed else "[FAIL]"
            lines.append(f"{tag} {name}: {c.name} ({c.detail})")
    lines.append(f"passed {total - failed}/{total} checks")
    return (0 if failed == 0 else 2), document, lines


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
        status, document, lines = args.handler(args)
        if args.json:
            import json  # only --json output needs it

            sys.stdout.write(json.dumps(document, default=list) + "\n")  # default lists a stream
        else:
            # each line goes out as it is made, so `| head` needs no more of a
            # huge enumerate than it reads
            for line in lines:
                sys.stdout.write(line + "\n")
        return status
    except BrokenPipeError:
        raise  # main() ends quietly when the reader of stdout goes away
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:  # the request's numbers or lists outgrow the address space
        sys.stderr.write("error: out of memory\n")
        return 1
    except OverflowError as exc:  # a size past the platform's int, index or float range
        sys.stderr.write(f"error: too large for this platform: {exc}\n")
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
    # At exit CPython runs a full collection over every tracked object, some
    # 12 000 after `analytic p 250`.  A frozen heap is left out of it; no
    # object here needs a finalizer then.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
