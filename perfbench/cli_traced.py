"""Run one fibcomp CLI call with the tracer installed.

Usage: python3 perfbench/cli_traced.py STATS_JSON ARG...

Behaves as `fibcomp ARG...` (same stdout, stderr and exit code) and writes
the call's per-layer metrics to STATS_JSON.  `cli.import_s` is the time
to import fibcomp.cli, taken before the tracer is installed.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import fibcomp.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.metrics["cli.import_s"] = import_s
    sys.argv = ["fibcomp", *argv]
    code = 0
    try:
        fibcomp.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="ascii") as out:
            json.dump(tracer.metrics, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
