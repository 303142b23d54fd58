"""Benchmark / regeneration of Table V: pre-processing time CubeLSI vs CubeSim."""

from __future__ import annotations

import math

from repro.experiments import table5_preprocessing

from conftest import (
    BENCH_CONCEPTS,
    BENCH_SCALE,
    BENCH_SEED,
    record_metric,
    record_report,
)


def test_bench_table5_preprocessing_time(benchmark):
    report = benchmark.pedantic(
        table5_preprocessing.run,
        kwargs={
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "num_concepts": BENCH_CONCEPTS,
        },
        iterations=1,
        rounds=1,
    )
    record_report(report.render())
    rows = {row["Method"]: row for row in report.rows}
    assert set(rows) == {"CubeLSI", "CubeSim"}
    # Tier-1 checks the table's shape only.  The paper's ordering (CubeLSI
    # cheaper than CubeSim everywhere) does not currently reproduce — see
    # README "Reproduction notes" — so the ratio is recorded, not asserted.
    for dataset in ("delicious", "bibsonomy", "lastfm"):
        cubelsi, cubesim = rows["CubeLSI"][dataset], rows["CubeSim"][dataset]
        assert math.isfinite(cubelsi) and cubelsi > 0
        assert math.isfinite(cubesim) and cubesim > 0
        record_metric(f"cubesim_over_cubelsi_{dataset}", cubesim / cubelsi)
