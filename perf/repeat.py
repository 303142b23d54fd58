"""Do the benchmark's numbers repeat?  Two checks, both over subprocesses.

``python3 perf/repeat.py``
    runs the untraced command twice with ``--seed 7`` and once with
    ``--seed 8``; prints, per workload and end-to-end metric, the two
    same-seed values, their relative difference and the metric's bound, and
    exits 1 if any pair disagrees by more than its bound (the other-seed
    value is shown so seed sensitivity can be told from noise).

``python3 perf/repeat.py --spread 10 [--write FILE] [--against FILE]``
    the driver's acceptance rule: one run per seed 1..N on each workload,
    then per metric the interquartile distance as a share of the median.
    Exits 1 if a spread (``setup_s`` excepted) exceeds its bound; with
    ``--against`` also if a median is worse than the file's by more than
    the bound.  ``--write`` saves the medians (``perf/baseline.json`` is
    one such file: the committed perf trajectory).

The 1-minute load average is recorded at start: a noisy-neighbour run (an
unrelated job on this box once turned an 8 s fit into 43 s) is then
recognisable in the output rather than mistaken for a regression.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cubeperf.catalogue import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402
from cubeperf.stats import environment, relative_spread, summarize  # noqa: E402

Values = Dict[str, float]


def run_once(workload: str, seed: int, seconds: float) -> Values:
    """One untraced run in its own process; ``{metric: value}`` + ``wall_s``."""
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(
            f"{workload} seed {seed}: run.py exited {completed.returncode}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["wall_s"] = time.perf_counter() - started
    return values


def worse_by(metric, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric.better == "lower" else -change


def same_seed_check(seconds: float) -> bool:
    agreed = True
    for workload in WORKLOADS:
        first = run_once(workload, 7, seconds)
        second = run_once(workload, 7, seconds)
        other = run_once(workload, 8, seconds)
        print(f"== {workload}")
        for metric in END_TO_END:
            a, b = first[metric.name], second[metric.name]
            difference = abs(a - b) / min(a, b)
            verdict = "ok" if difference <= metric.bound else "DISAGREE"
            agreed = agreed and difference <= metric.bound
            print(
                f"  {metric.name:10s} seed7 {a:12.6g} {b:12.6g} {metric.unit:5s}"
                f" diff {difference:7.2%} bound {metric.bound:.0%} {verdict}"
                f"   (seed8 {other[metric.name]:.6g})"
            )
    return agreed


def spread_check(
    seeds: int, seconds: float, write: str, against: str
) -> bool:
    reference = json.loads(Path(against).read_text()) if against else None
    accepted = True
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds) for seed in range(1, seeds + 1)]
        wall = sum(run["wall_s"] for run in runs) / seeds
        print(f"== {workload}  ({seeds} seeds, {wall:.1f} s of wall clock per run)")
        table[workload] = {}
        for metric in END_TO_END:
            values: List[float] = [run[metric.name] for run in runs]
            row = summarize(values)
            row["spread"] = relative_spread(values)
            row["values"] = values
            table[workload][metric.name] = row
            within = metric.name == "setup_s" or row["spread"] <= metric.bound
            line = (
                f"  {metric.name:10s} median {row['median']:12.6g} {metric.unit:5s}"
                f" q1 {row['q1']:.6g} q3 {row['q3']:.6g}"
                f" spread {row['spread']:6.2%} bound {metric.bound:.0%}"
                f" {'ok' if within else 'TOO WIDE'}"
            )
            if reference:
                drift = worse_by(
                    metric,
                    row["median"],
                    reference["workloads"][workload][metric.name]["median"],
                )
                steady = drift <= metric.bound
                within = within and steady
                line += f"  vs file {drift:+.2%} {'ok' if steady else 'WORSE'}"
            accepted = accepted and within
            print(line, flush=True)
    if write:
        Path(write).write_text(
            json.dumps(
                {
                    "command": f"python3 perf/repeat.py --spread {seeds}",
                    "seeds": list(range(1, seeds + 1)),
                    "run_seconds": seconds,
                    "environment": environment(),
                    "workloads": table,
                },
                indent=1,
            )
            + "\n"
        )
    return accepted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--write", default="")
    parser.add_argument("--against", default="")
    arguments = parser.parse_args()
    print("environment at start:", json.dumps(environment()))
    if arguments.spread:
        if arguments.spread < 2:
            parser.error("--spread needs at least 2 seeds")
        passed = spread_check(
            arguments.spread, arguments.seconds, arguments.write, arguments.against
        )
    else:
        passed = same_seed_check(arguments.seconds)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
