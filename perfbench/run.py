"""Repository benchmark: one command, three workloads, correctness checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0

Workloads (sizes in ``gen.py``, world options in ``workloads.CONFIGS``):

* ``steady`` — fault-free, write-heavy calendar traffic on the
  single-node directory, program tracing off.
* ``lookup`` — read-only remote slot reads, free-slot queries and
  directory lookups over a sharded, cached directory.
* ``faults`` — chaos episodes: fresh 6-user worlds, crash / partition /
  drop / reply-loss / duplicate / slow / stall / coordinator-crash
  windows, health, retries, recovery and program tracing on.

Every workload is fixed by op count, not by duration: one *repetition*
runs all of its generated input. ``--seconds`` bounds how many
repetitions a run makes (at least three). Repetitions replay identical
input, so every virtual-time and count metric must come out identical
in each — that is checked, along with every op's output against the
program's own state and the invariant checkers after every episode.
Wall times are scaled by the host speed measured next to them
(``workloads.HostSpeed``) and taken per op as the median over
repetitions; the unscaled rate of each repetition is printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
plain repetition, one with per-layer timing wrappers installed (see
``layers.py``) and, when the workload runs with program tracing off, one
with it on to split virtual time by category; it prints the per-layer
metrics.

``correct`` is false if same-seed repetitions differ, the traced run's
accounting does not add up, or — on ``steady`` and ``lookup`` — any
output disagrees with program state, any op raises or any invariant is
violated. On ``faults`` wrong outputs and violations are the program's
defects under injected faults: printed as findings, never filtered, and
wrong outputs counted in ``failed``. An op there that raises a typed
``ReproError`` while faults are injected is the fault model at work: it
is reported in ``op_fail_frac`` and ``op_ok_frac``, not in ``failed``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("steady", "lookup", "faults")

#: (name, unit) of every end-to-end metric, in report order; the ones
#: in ``BENCHMARK.json`` are reported in the final JSON line
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_wall_us.p50", "us"),
    ("op_wall_us.p99", "us"),
    ("episode_wall_s", "s"),
    ("op_virt_ms.p50", "ms"),
    ("op_virt_ms.p99", "ms"),
    ("msgs_per_op", "msg/op"),
    ("bytes_per_op", "B/op"),
    ("op_fail_frac", "ratio"),
    ("op_ok_frac", "ratio"),
    ("violations", "count"),
    ("store_kb_per_user", "KiB"),
    ("peak_rss_mb", "MiB"),
)

#: printed but left out of the JSON line. The failure fraction and the
#: violation count are 0 on the fault-free workloads, and a median of
#: zeros cannot bound a regression. The p99s are steady on a fixed seed,
#: but on ``faults`` the slowest 1% of ops is set by the few schedules
#: that meet a partition or a stall, whose number varies from seed to
#: seed: their quartile spread over ten seeds (0.47 wall, 0.17 virtual)
#: leaves no room under a bound, which may be at most 0.25.
PRINT_ONLY = ("op_wall_us.p99", "op_virt_ms.p99", "op_fail_frac", "violations")

#: at least this many repetitions per run: two make the same-seed
#: double run, three give every per-op wall time a true median
MIN_REPS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def medians(columns) -> list[float]:
    """Element-wise median of equally long lists."""
    return [statistics.median(column) for column in zip(*columns)]


def end_to_end(tallies: list) -> dict[str, float]:
    """End-to-end metrics of one run.

    Wall times are scaled by the host speed measured around them (see
    ``workloads.HostSpeed``). Repetitions replay the same input, so each
    op's (and each episode's) time is then the median over repetitions,
    taken before any percentile or sum.
    """
    first = tallies[0]
    ops = first.attempted
    op_wall = medians(t.scaled(t.op_wall) for t in tallies)
    gap_wall = medians(t.scaled(t.gap_wall) for t in tallies)
    return {
        # every build of an episode in every repetition is one sample
        "setup_s": sum(
            statistics.median(b for t in tallies for b in t.setup_s[e])
            for e in range(len(first.setup_s))
        ),
        "ops_per_s": (ops - first.errors) / (sum(op_wall) + sum(gap_wall)),
        "op_wall_us.p50": percentile(op_wall, 50) * 1e6,
        "op_wall_us.p99": percentile(op_wall, 99) * 1e6,
        "episode_wall_s": statistics.fmean(medians(t.episode_s for t in tallies)),
        "op_virt_ms.p50": percentile(first.op_virt, 50) * 1e3,
        "op_virt_ms.p99": percentile(first.op_virt, 99) * 1e3,
        "msgs_per_op": first.msgs / ops,
        "bytes_per_op": first.bytes / ops,
        "op_fail_frac": first.errors / ops,
        "op_ok_frac": (ops - first.errors) / ops,
        "violations": len(first.violations),
        "store_kb_per_user": statistics.fmean(first.store_bytes) / 1024,
        "peak_rss_mb": peak_rss_mb(),
    }


def raw_rates(tallies: list) -> list[float]:
    """Unscaled completed ops per wall second of each repetition."""
    return [(t.attempted - t.errors) / t.raw_measured_s for t in tallies]


def check(name: str, tallies: list) -> tuple[list[str], list[str]]:
    """(problems, findings) of one run.

    Problems make the run incorrect: a repetition that differs from the
    first, and on the fault-free workloads any wrong output, raised op or
    invariant violation. On ``faults`` wrong outputs and violations are
    the program's defects under injected faults: findings, reported in
    full and never filtered.
    """
    first = tallies[0]
    problems = [
        f"repetition {i} differs from repetition 0 (same seed)"
        for i, tally in enumerate(tallies[1:], start=1)
        if tally.fingerprint() != first.fingerprint()
    ]
    findings = [f"wrong output: {w}" for w in first.wrong]
    findings += [f"violation: {v}" for v in first.violations]
    if name == "faults":
        return problems, findings
    if first.errors:
        findings.append(f"{first.errors} ops raised on a fault-free workload")
    return problems + findings, []


def failed_ops(name: str, tally) -> int:
    """Ops whose output was wrong, plus raised ops where no fault explains them."""
    return len(tally.wrong) + (tally.errors if name != "faults" else 0)


def measure(name: str, episodes, seconds: float) -> tuple[list, dict[str, float]]:
    """Repeat the input while another repetition fits in ``seconds``."""
    import workloads

    tallies = []
    host = workloads.HostSpeed()
    started = time.perf_counter()
    while True:
        tallies.append(workloads.run_rep(name, episodes, host))
        spent = time.perf_counter() - started
        if len(tallies) >= MIN_REPS and spent * (len(tallies) + 1) / len(tallies) > seconds:
            break
    return tallies, end_to_end(tallies)


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for metric, value, unit in rows:
        print(f"  {metric:32s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: program source not found at {SRC}", file=sys.stderr)
        return 2
    # Leave the checkout's files as they are: no bytecode caches.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]

    import gen
    import metrics_spec

    episodes = gen.INPUTS[args.workload](args.seed)
    if args.trace:
        import traced

        tallies, values, units, problems = traced.run(args.workload, episodes)
        rows = [(m, values[m], units[m]) for m in units]
        json_names = [m for m in units if m not in metrics_spec.PRINT_ONLY]
    else:
        tallies, values = measure(args.workload, episodes, args.seconds)
        units = dict(END_TO_END)
        rows = [(m, values[m], u) for m, u in END_TO_END]
        json_names = [m for m, _ in END_TO_END if m not in PRINT_ONLY]
        problems = []
    run_problems, findings = check(args.workload, tallies)
    problems += run_problems
    first = tallies[0]
    ops = first.attempted
    mode = "traced" if args.trace else "measured"
    print_table(
        f"workload {args.workload} seed {args.seed} {mode}: {len(tallies)} repetitions "
        f"of {len(episodes)} episode(s), {ops} ops each "
        f"(percentiles over {ops} samples per repetition)",
        rows,
    )
    if not args.trace:
        rates = " ".join(f"{r:.6g}" for r in raw_rates(tallies))
        hosts = " ".join(f"{statistics.fmean(t.host):.4f}" for t in tallies)
        print(f"unscaled ops_per_s by repetition: {rates}")
        print(f"host speed factor by repetition: {hosts}")
    for problem in problems:
        print(f"INCORRECT {problem}")
    for finding in findings:
        print(f"FINDING {finding}")
    metrics_spec.check_names(json_names)
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": failed_ops(args.workload, first),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in json_names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
