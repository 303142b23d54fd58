"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is the machine-readable contract; this
module is the same catalogue with the two columns the contract has no room
for — which workload's traced run measures a per-layer metric, and which
end-to-end metric it is expected to move.  ``perf/tests`` keeps the two in
step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: One run measures for this many seconds unless ``--seconds`` says otherwise.
RUN_SECONDS = 10

#: Workload name -> why it exists (names are fixed; later issues cite them).
WORKLOADS: Dict[str, str] = {
    "fit_offline": (
        "offline half of Figure 1: repeated CubeLSIPipeline.fit, ~98% "
        "Tucker-ALS; search and serve layers idle; closed loop, 1 caller"
    ),
    "query_steady": (
        "read-only direct engine.search at 32k resources: the CSR kernel "
        "dominates; no cache, front-end or writes; closed loop, 1 client"
    ),
    "query_frontend": (
        "same engine through BatchingFrontend defaults with 30% repeats: "
        "window, dedup and cache set latency; closed loop, 2 clients"
    ),
    "mixed_rw": (
        "serial 90/10 read/write replay: the first read after a write "
        "pays the lazy refresh; closed loop, 1 client"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Every workload reports every one of these (the driver's contract).  A
#: timed metric is the run's best round; ``setup_s`` the median set-up.  The
#: bounds are the contract's maximum: across ten seeds the inputs and this
#: box's slow phases together spread a fit by 8-15% (``perf/README.md``).
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "program-side set-up (clean, set-up fit, engine build) from the "
        "generated inputs to ready; median of 3 set-ups; input synthesis "
        "is excluded and reported as datasets.generate_s",
    ),
    EndToEnd(
        "op_p50_ms", "ms", "lower", 0.25,
        "median latency of the workload's operation as its caller sees it "
        "(one fit / one direct query / one front-end query / one trace op)",
    ),
    EndToEnd(
        "op_p99_ms", "ms", "lower", 0.25,
        "99th percentile of the same latencies within a round (a "
        "fit_offline round is one fit, so there it equals op_p50_ms)",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "operations completed per second of round wall time",
    ),
    EndToEnd(
        "ndcg10", "ndcg", "higher", 0.25,
        "mean NDCG@10 of the served answers over the corpus's judged "
        "queries (ground-truth relevance from the generator)",
    ),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    workload: str  # whose traced run measures it ("all" = every workload)
    moves: str  # the end-to-end metric(s) it should move, on that workload


def _rows(workload: str, text: str) -> List[PerLayer]:
    rows = []
    for line in text.strip().splitlines():
        name, unit, better, moves = (part.strip() for part in line.split("|"))
        rows.append(PerLayer(name, unit, better, workload, moves))
    return rows


#: The ladder.  A traced run prints every row; rows another workload's
#: traced run measures read 0 there (that layer did no work on it), as do
#: the rungs of an optional layer that has been deleted.
PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _rows(
        "all",
        """
        datasets.generate_s      | s | lower | none (input synthesis, outside setup_s)
        perf.setup_once_s        | s | lower | setup_s
        perf.trace_overhead_pct  | % | lower | none (traced vs untraced op_p50_ms)
        """,
    )
    + _rows(
        "fit_offline",
        """
        tagging.to_tensor_s           | s     | lower  | op_p50_ms (<=1%)
        tagging.tensor_nnz            | count | lower  | none (input size)
        tensor.hosvd_s                | s     | lower  | op_p50_ms (the ALS initialiser)
        tensor.tucker_als_s           | s     | lower  | op_p50_ms (~98% of it)
        tensor.als_sweeps             | count | lower  | op_p50_ms
        tensor.als_fit                | ratio | higher | ndcg10
        tensor.als_converged          | count | higher | op_p50_ms
        core.tag_distances_s          | s     | lower  | op_p50_ms (<1% until ALS is cheap)
        core.distill_concepts_s       | s     | lower  | op_p50_ms (<1% until ALS is cheap)
        search.engine_build_s         | s     | lower  | op_p50_ms; setup_s on serving workloads
        search.matrix_compile_s       | s     | lower  | op_p50_ms; setup_s on serving workloads
        baselines.cubesim_fit_s       | s     | lower  | none (Table V reference)
        baselines.cubesim_over_cubelsi | ratio | higher | none (paper: >20)
        perf.fit_stage_coverage       | ratio | higher | none (must be >=0.9)
        """,
    )
    + _rows(
        "query_steady",
        """
        core.query_concepts_us           | us    | lower | op_p50_ms
        search.matrix_rank_us            | us    | lower | op_p50_ms, ops_per_s
        search.matrix_rank_batch64_us    | us    | lower | ops_per_s; query_frontend via misses
        search.engine_search_us          | us    | lower | op_p50_ms
        search.engine_overhead_us        | us    | lower | op_p50_ms
        search.snapshot_rank_batch_us    | us    | lower | query_frontend op_p50_ms
        search.sharded2_rank_us          | us    | lower | none (cost of the layer)
        search.shardpool2_rank_us        | us    | lower | none (cost of the layer)
        search.shardpool2_start_s        | s     | lower | none (cost of the layer)
        search.handle_rank_us            | us    | lower | none (cost of the layer)
        search.index_resources           | count | lower | none (work per query)
        search.index_terms               | count | lower | none (work per query)
        search.index_nnz                 | count | lower | none (work per query)
        search.scored_rows_per_query     | count | lower | op_p50_ms
        core.index_save_s                | s     | lower | none
        core.index_load_ms               | ms    | lower | setup_s of a serving process
        core.index_bytes                 | bytes | lower | none
        """,
    )
    + _rows(
        "query_frontend",
        """
        serve.submit_us            | us    | lower  | ops_per_s
        serve.queue_wait_ms_mean   | ms    | lower  | op_p50_ms
        serve.engine_ms_mean       | ms    | lower  | op_p50_ms
        serve.total_ms_mean        | ms    | lower  | op_p50_ms
        serve.batches              | count | lower  | ops_per_s
        serve.batch_mean_distinct  | count | higher | ops_per_s
        serve.coalesced            | count | higher | ops_per_s
        serve.shed                 | count | lower  | failed
        search.cache_hit_ratio     | ratio | higher | op_p50_ms
        search.cache_evictions     | count | lower  | op_p50_ms
        serve.cached_p50_ms        | ms    | lower  | op_p50_ms
        serve.uncached_p50_ms      | ms    | lower  | op_p50_ms, op_p99_ms
        serve.window0_overhead_us  | us    | lower  | op_p50_ms
        """,
    )
    + _rows(
        "mixed_rw",
        """
        search.fresh_read_p50_ms   | ms    | lower | ops_per_s, op_p99_ms
        search.fresh_read_share    | ratio | lower | ops_per_s
        search.warm_query_us       | us    | lower | op_p50_ms
        search.apply_mutations_us  | us    | lower | ops_per_s
        search.refresh_tick_ms     | ms    | lower | ops_per_s
        search.matrix_refresh_ms   | ms    | lower | ops_per_s, op_p99_ms
        search.vsm_refresh_ms      | ms    | lower | ops_per_s, op_p99_ms
        core.apply_delta_ms        | ms    | lower | none (same fold-in path)
        tagging.apply_delta_ms     | ms    | lower | none (same fold-in path)
        search.final_epoch         | count | lower | none (repeats exactly)
        search.final_resources     | count | lower | none (repeats exactly)
        load.trace_queries         | count | lower | none (repeats exactly)
        load.trace_mutations       | count | lower | none (repeats exactly)
        load.trace_refreshes       | count | lower | none (repeats exactly)
        """,
    )
)


def benchmark_json() -> Dict[str, object]:
    """The contract file's content, derived from this catalogue."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }
