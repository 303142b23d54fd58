"""The repo benchmark's one command.

The driver runs, from the root of a checkout::

    python3 perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

and reads the last line of standard output: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (every end-to-end
metric when untraced, every per-layer metric when traced).  By hand,
``python3 perf/run.py`` runs all four workloads in one process and
``--quick`` shrinks the corpora to a few seconds' work.  Exit code 1 means
an output check failed; 2 means the library under ``src/`` is not there.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

# The catalogue imports nothing from src/.
from cubeperf.catalogue import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long the rounds of one run measure (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: per-layer ladder and span files instead of end-to-end metrics",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny corpora, one round (smoke)"
    )
    return parser.parse_args(argv)


def print_report(report: dict) -> None:
    """Every metric by name with its unit; quartiles and counts beside it."""
    result = report["result"]
    print(
        f"== {report['workload']}  seed={report['seed']}  "
        f"closed loop, {report['clients']} client(s), {report['rounds']} round(s)  "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"fail_ratio={report['fail_ratio']:.6f}"
    )
    if report["trace"]:
        for metric in PER_LAYER:
            if metric.workload not in (report["workload"], "all"):
                continue  # another workload's rung: 0 in the JSON, not shown
            value = report["per_layer"][metric.name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric.name:34s} {shown:>12s} {metric.unit}")
        print(
            f"  spans={report['spans']} absent_layers={report['absent_layers']}"
        )
    else:
        for metric in END_TO_END:
            s = report["end_to_end"][metric.name]
            print(
                f"  {metric.name:12s} {s['value']:12.6g} {metric.unit:5s} "
                f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']} "
                f"({report['ops_per_round']} ops/round; {metric.better} is "
                f"better, bound {metric.bound:.0%})"
            )


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro.utils.errors import ConvergenceWarning

    from cubeperf.runner import run_workload
    from cubeperf.stats import environment

    # 25 ALS sweeps never converge at these sizes; one warning per fit is noise.
    warnings.simplefilter("ignore", ConvergenceWarning)
    seconds = arguments.seconds
    if seconds is None:
        seconds = 0.0 if arguments.quick else float(RUN_SECONDS)
    names = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    print("environment", json.dumps(environment()))
    correct = True
    for name in names:
        report = run_workload(
            name, arguments.seed, seconds, bool(arguments.trace), arguments.quick
        )
        print_report(report)
        correct = correct and report["result"]["correct"]
        # Last, so that with one workload it is the last line of stdout.
        print(json.dumps(report["result"]), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
