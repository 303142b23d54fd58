"""Append one BENCH_history.jsonl row per workload, from the repo root:
``python perf/run.py --seed 7 | python tools/bench_history.py --pr 21``."""

import argparse
import json
import re
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", required=True, help="PR of the measured commit")
    parser.add_argument("--history", default="BENCH_history.jsonl")
    args = parser.parse_args()
    environment, header = {}, None
    with open(args.history, "a", encoding="utf-8") as history:
        for line in sys.stdin:
            if line.startswith("environment "):
                environment = json.loads(line.split(" ", 1)[1])
            elif line.startswith("== "):  # "== <workload>  seed=<n> ..." opens a block
                header = re.match(r"== (\S+)\s+seed=(\d+)", line)
            elif line.startswith("{") and header:  # the JSON line that closes it
                row = {"pr": args.pr, "workload": header[1], "seed": int(header[2])}
                metrics = json.loads(line)["metrics"].items()
                row.update((name, metric["value"]) for name, metric in metrics)
                history.write(json.dumps({**row, "environment": environment}) + "\n")


if __name__ == "__main__":
    main()
