"""Fixed-work benchmark of the fibcomp CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the package from `src/`.
Every run does a fixed amount of work: one round of operations made from
the seed, repeated a number of times that follows from --seconds (see
workloads.py).  Operations run one at a time with at most one child
process alive, and every output is checked against references computed
apart from the program before the timed phase.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (tracer.py) with --trace 1.  A traced run does the
workload's work twice, untraced and traced, to measure the tracing
overhead, then traces a fixed probe of small calls into every layer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import PER_LAYER, add_into

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

# What the `fibcomp` console script runs.
CLI_ENTRY = "import sys; from fibcomp.cli import main; sys.exit(main())"
SETUP_STARTS_PER_ROUND = 3
# Everything must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float  # user plus system CPU of the operation's own process
    passed: bool
    known_fault: bool


class OutOfTime(Exception):
    pass


class ProgramFailed(Exception):
    pass


def program_env() -> dict:
    """Environment of every program process: the checkout's sources, no cache fallback."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("FIBCOMP_CACHE_DIR", None)
    return env


class Runner:
    def __init__(self, work_dir: Path, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = program_env()
        self.layers: dict = {}
        self._calls = 0

    def _spawn(self, cmd: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise OutOfTime
        try:
            return subprocess.run(
                cmd, input=stdin, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired as exc:
            raise OutOfTime from exc

    def cli(self, argv: list[str], traced: bool) -> tuple[float, float, subprocess.CompletedProcess]:
        """One fresh-process fibcomp call; returns its wall and CPU time and result."""
        if traced:
            self._calls += 1
            stats = self.work_dir / f"trace-{self._calls}.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(stats), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        cpu_before = _children_cpu_s()
        start = time.perf_counter()
        proc = self._spawn(cmd)
        wall = time.perf_counter() - start
        if traced and stats.exists():
            add_into(self.layers, json.loads(stats.read_text(encoding="ascii")))
        return wall, _children_cpu_s() - cpu_before, proc

    def cli_round(self, ops: list[workloads.CliOp], traced: bool) -> list[Outcome]:
        """Run one round of fresh-process calls in a new empty cache dir."""
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        outcomes = []
        previous = ""
        try:
            for op in ops:
                argv = [str(cache) if a == workloads.CACHE_DIR else a for a in op.argv]
                if op.chained:
                    argv.append(previous)
                wall, cpu, proc = self.cli(argv, traced)
                previous = proc.stdout.strip()
                outcomes.append(Outcome(wall, cpu, op.check(proc.returncode, proc.stdout), op.known_fault))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return outcomes

    def setup(self) -> float:
        """Time for the program to become ready: one start of the CLI."""
        start = time.perf_counter()
        proc = self._spawn([sys.executable, "-c", CLI_ENTRY, "count", "--class", "compositions:all", "1"])
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise ProgramFailed(proc.stderr)
        return wall

    def work(self, plan: workloads.Plan, traced: bool) -> list[list[Outcome]]:
        """All rounds of the plan, one list of outcomes per round."""
        return [self.cli_round(plan.round, traced) for _ in range(plan.rounds)]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(runner: Runner, plan: workloads.Plan) -> tuple[list[Outcome], dict, bool]:
    # The set-up starts are spread over the run, a few before each round, so
    # that their median does not rest on the machine's speed in one moment.
    setups, rounds = [], []
    for _ in range(plan.rounds):
        setups += [runner.setup() for _ in range(SETUP_STARTS_PER_ROUND)]
        rounds.append(runner.cli_round(plan.round, traced=False))
    # Each operation's median over the rounds: its typical cost, with the
    # stalls and slow spells that a shared machine puts on single rounds left
    # out.  The timing metrics are taken over these, one value per operation.
    per_op = list(zip(*rounds))
    wall = [statistics.median(o.wall_s for o in op) for op in per_op]
    cpu = [statistics.median(o.cpu_s for o in op) for op in per_op]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(wall) / sum(wall),
        "op_p50_s": statistics.median(wall),
        "cpu_s_per_op": statistics.mean(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return (
        [o for r in rounds for o in r],
        {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
        True,
    )


def measure_traced(runner: Runner, plan: workloads.Plan) -> tuple[list[Outcome], dict, bool]:
    """Per-layer metrics; attempted and failed count the workload's own operations."""
    plain = runner.work(plan, traced=False)
    traced = runner.work(plan, traced=True)
    probe = runner.cli_round(workloads.layer_probe(), traced=True)
    runner.layers["trace.overhead_s"] = sum(o.wall_s for r in traced for o in r) - sum(
        o.wall_s for r in plain for o in r
    )
    metrics = {name: {"value": runner.layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    return [o for r in plain + traced for o in r], metrics, all(o.passed for o in probe)


def _tally(outcomes: list[Outcome]) -> tuple[int, int, bool]:
    failed = sum(1 for o in outcomes if not o.passed)
    correct = all(o.passed or o.known_fault for o in outcomes)
    return len(outcomes), failed, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fibcomp" / "cli.py").is_file():
        sys.stderr.write(f"no fibcomp sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.perf_counter() + RUN_BUDGET_S
    sys.set_int_max_str_digits(0)
    plan = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    runner = Runner(work_dir, deadline)
    try:
        outcomes, metrics, probe_ok = (measure_traced if args.trace else measure)(runner, plan)
    except OutOfTime:
        sys.stderr.write(f"run did not finish within {RUN_BUDGET_S:.0f} s\n")
        return 1
    except ProgramFailed as exc:
        sys.stderr.write(f"the program failed:\n{exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed, correct = _tally(outcomes)
    correct = correct and probe_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
