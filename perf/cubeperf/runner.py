"""Drive one workload for one run and assemble the result the driver reads."""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from cubeperf import ladder
from cubeperf.catalogue import END_TO_END, PER_LAYER
from cubeperf.stats import environment, percentile_ms, summarize
from cubeperf.tracing import Tracer
from cubeperf.workloads import FULL, QUICK, WORKLOAD_CLASSES, Round, Workload


def best_of(values: List[float], better: str) -> Dict[str, float]:
    """A timed metric's reported value: the best of its per-round values.

    Everything else on the box only ever *adds* time.  This one drifts by
    +-15% over tens of seconds with no steal time showing, so the median of
    a run's rounds moves with the phase the run happened to land in; the
    best round is what the program does when left alone, and repeats.
    """
    summary = summarize(values)
    summary["value"] = min(values) if better == "lower" else max(values)
    return summary


@contextmanager
def old_heap() -> Iterator[None]:
    """Time the body against a heap that the collector treats as old.

    The inputs a run holds (a 198k-assignment corpus with its ground truth,
    traces, judged queries) are far more tracked objects than a serving
    process would carry.  Left in the young generations they make every full
    collection a 50 ms pause that lands on whichever operation allocates
    next — it tripled ``mixed_rw``'s p99 on some seeds and not on others.
    Freezing what set-up built (as a pre-forking server does) leaves the
    collector only what the timed operations themselves allocate.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_set_up(workload: Workload) -> float:
    started = time.perf_counter()
    workload.set_up()
    return time.perf_counter() - started


def traced_run(workload: Workload, rounds: List[Round]) -> Dict[str, object]:
    """One untraced and one traced round, then the ladder; writes the spans."""
    set_up_s = timed_set_up(workload)
    workload.warm_up()
    tracer = Tracer()
    with old_heap():
        rounds.append(workload.run_round())
        rounds.append(workload.run_round(tracer))
    layer: Dict[str, Optional[float]] = dict.fromkeys(m.name for m in PER_LAYER)
    layer.update(ladder.LADDERS[workload.name](workload, tracer, rounds[0]))
    layer["datasets.generate_s"] = workload.generate_s
    layer["perf.setup_once_s"] = set_up_s
    layer["perf.trace_overhead_pct"] = ladder.trace_overhead_pct(*rounds)
    tracer.write(
        ladder.OUT_DIR / f"trace-{workload.name}.json",
        workload=workload.name,
        seed=workload.seed,
        environment=environment(),
        absent_layers=workload.absent,
    )
    return {
        "per_layer": layer,
        "absent_layers": workload.absent,
        "spans": len(tracer.spans),
        # The contract wants a number for every per-layer name: a rung another
        # workload owns, or whose layer is gone, spent 0 here.
        "metrics": {
            m.name: {"value": layer[m.name] or 0, "unit": m.unit} for m in PER_LAYER
        },
    }


def untraced_run(
    workload: Workload, rounds: List[Round], seconds: float
) -> Dict[str, object]:
    """``setup_reps`` slices of (timed set-up, rounds); end-to-end metrics."""
    slice_seconds = seconds / workload.sizes.setup_reps
    set_ups = []
    for _ in range(workload.sizes.setup_reps):
        set_ups.append(timed_set_up(workload))
        workload.warm_up()
        with old_heap():
            started = time.perf_counter()
            while True:
                rounds.append(workload.run_round())
                # Stop when another round would overshoot the slice by more
                # than it falls short now (a round is 1-4 s).
                elapsed = time.perf_counter() - started
                if elapsed + rounds[-1].wall / 2 >= slice_seconds:
                    break
    summaries = {
        "setup_s": summarize(set_ups),
        "op_p50_ms": best_of([percentile_ms(r.latencies, 50) for r in rounds], "lower"),
        "op_p99_ms": best_of([percentile_ms(r.latencies, 99) for r in rounds], "lower"),
        "ops_per_s": best_of([len(r.latencies) / r.wall for r in rounds], "higher"),
        "ndcg10": summarize([workload.ndcg10()]),
    }
    return {
        "end_to_end": summaries,
        "ops_per_round": len(rounds[0].latencies),
        "metrics": {
            m.name: {"value": summaries[m.name]["value"], "unit": m.unit}
            for m in END_TO_END
        },
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Dict[str, object]:
    """One run: inputs from ``seed``, set-up, rounds, checks, metrics.

    Untraced, the run is ``setup_reps`` slices — a timed set-up, then rounds
    for about the slice's share of ``seconds`` — so ``setup_s`` is a
    median of several set-ups and the rounds sample ~25 s of wall clock
    rather than one contiguous window.  A timed metric is its *best* round
    (see :func:`best_of`); ``setup_s`` is the median set-up.  Traced, one
    untraced and one traced round feed the per-layer ladder and the spans
    are written to ``perf/out/trace-<name>.json``.
    """
    workload = WORKLOAD_CLASSES[name](seed, QUICK if quick else FULL)
    rounds: List[Round] = []
    report = traced_run(workload, rounds) if trace else untraced_run(
        workload, rounds, seconds
    )
    checked, wrong = workload.check()
    attempted = sum(len(r.latencies) for r in rounds) + checked
    failed = sum(r.failed for r in rounds) + wrong
    report.update(
        workload=name,
        seed=seed,
        trace=trace,
        clients=workload.clients,
        rounds=len(rounds),
        fail_ratio=failed / attempted,
        result={
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": report.pop("metrics"),
        },
    )
    return report
