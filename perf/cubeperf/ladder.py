"""The per-layer ladder of a traced run.

Each function takes a workload that has just finished an untraced and a
traced round and returns ``{per-layer metric: value}``.  Rungs replay the
workload's own inputs through one layer's public call at a time, one span
per call.  A value of ``None`` means the rung's layer is gone: the optional
layers (shards, process pool, lifecycle handle, the engine's dict-loop
mirror) are looked up lazily and, when a class or attribute is absent, the
rung is skipped and its label added to ``workload.absent`` — deleting a
layer must not require editing ``perf/``.
"""

from __future__ import annotations

import importlib
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.core.pipeline import OfflineIndex
from repro.load import MUTATE, QUERY, REFRESH
from repro.search.engine import SearchEngine
from repro.serve import FrontendConfig
from repro.tagging.delta import FolksonomyDeltaBuilder

from cubeperf.stats import p50_us
from cubeperf.tracing import Tracer
from cubeperf.workloads import (
    NUM_CONCEPTS,
    TOP_K,
    FitOffline,
    MixedRW,
    QueryFrontend,
    QuerySteady,
    Round,
)

#: Scratch files (saved indexes, span files) stay inside the checkout.
OUT_DIR = Path(__file__).resolve().parent.parent / "out"

Metrics = Dict[str, Optional[float]]


def scratch_dir() -> tempfile.TemporaryDirectory:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)


def probe(module: str, attribute: str):
    """``module.attribute`` or ``None`` when either no longer exists."""
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError):
        return None


def time_each(
    tracer: Tracer, name: str, call: Callable, items: Iterable
) -> np.ndarray:
    """One span called ``name`` per item; returns their durations."""
    for position, item in enumerate(items):
        with tracer.span(name, op=position):
            call(item)
    return tracer.durations(name)


def single(call: Callable) -> Callable:
    """``call([tags], top_k=TOP_K)`` as a function of one query."""
    return lambda tags: call([tags], top_k=TOP_K)


def trace_overhead_pct(base: Round, traced: Round) -> float:
    """How much recording spans slowed the median operation down."""
    untraced = float(np.median(base.latencies))
    return 100.0 * (float(np.median(traced.latencies)) - untraced) / untraced


# --------------------------------------------------------------------- #
def fit_offline(w: FitOffline, tracer: Tracer, base: Round) -> Metrics:
    def seconds(name: str) -> float:
        return float(tracer.durations(name)[-1])

    stages = (
        "tagging.to_tensor",
        "tensor.tucker_als",
        "core.tag_distances",
        "core.distill_concepts",
        "search.engine_build",
    )
    fit_s = float(base.latencies[0])
    decomposition = w.traced_decomposition
    metrics: Metrics = {
        "tagging.to_tensor_s": seconds("tagging.to_tensor"),
        "tagging.tensor_nnz": w.traced_tensor.nnz,
        "tensor.hosvd_s": seconds("tensor.hosvd"),
        "tensor.tucker_als_s": seconds("tensor.tucker_als"),
        "tensor.als_sweeps": len(decomposition.fit_history),
        "tensor.als_fit": decomposition.fit_history[-1],
        "tensor.als_converged": int(decomposition.converged),
        "core.tag_distances_s": seconds("core.tag_distances"),
        "core.distill_concepts_s": seconds("core.distill_concepts"),
        "search.engine_build_s": seconds("search.engine_build"),
        "search.matrix_compile_s": seconds("search.matrix_compile"),
        "perf.fit_stage_coverage": sum(seconds(s) for s in stages) / fit_s,
        "baselines.cubesim_fit_s": None,
        "baselines.cubesim_over_cubelsi": None,
    }
    cubesim = probe("repro.baselines.cubesim", "CubeSimRanker")
    if cubesim is None:
        w.absent.append("baselines.cubesim")
    else:
        with tracer.span("baselines.cubesim_fit"):
            cubesim(num_concepts=NUM_CONCEPTS, seed=0).fit(w.cleaned)
        metrics["baselines.cubesim_fit_s"] = seconds("baselines.cubesim_fit")
        metrics["baselines.cubesim_over_cubelsi"] = (
            metrics["baselines.cubesim_fit_s"] / fit_s
        )
    return metrics


# --------------------------------------------------------------------- #
def query_steady(w: QuerySteady, tracer: Tracer, base: Round) -> Metrics:
    engine = w.engine
    space = engine.matrix_space
    sample = w.queries[: w.sizes.rung_sample]
    bags = [bag for bag in map(engine.query_concepts, sample) if bag]
    chunks = [bags[i : i + 64] for i in range(0, len(bags), 64)]
    batch = time_each(
        tracer,
        "search.matrix_rank_batch64",
        lambda chunk: space.rank_batch(chunk, top_k=TOP_K),
        chunks,
    )
    metrics: Metrics = {
        "core.query_concepts_us": p50_us(tracer.durations("core.query_concepts")),
        "search.matrix_rank_us": p50_us(tracer.durations("search.matrix_rank")),
        "search.matrix_rank_batch64_us": float(batch.sum()) / len(bags) * 1e6,
        "search.engine_search_us": p50_us(tracer.durations("search.engine_search")),
        "search.engine_overhead_us": p50_us(
            tracer.self_times("search.engine_search")
        ),
        "search.snapshot_rank_batch_us": p50_us(
            time_each(
                tracer,
                "search.snapshot_rank_batch",
                single(engine.snapshot_rank_batch),
                sample,
            )
        ),
        "search.index_resources": space.num_documents,
        "search.index_terms": space.vocabulary_size,
        "search.index_nnz": space.nnz,
        "search.scored_rows_per_query": float(
            np.mean([len(engine.search(tags, top_k=None)) for tags in sample])
        ),
    }
    metrics.update(_optional_engines(w, tracer, sample))
    metrics.update(_index_persistence(w, tracer, sample[0]))
    return metrics


def _optional_engines(w, tracer: Tracer, sample) -> Metrics:
    """The layers above the engine: pure overhead at this size, or gone."""
    engine = w.engine
    metrics: Metrics = {
        "search.sharded2_rank_us": None,
        "search.shardpool2_rank_us": None,
        "search.shardpool2_start_s": None,
        "search.handle_rank_us": None,
    }
    sharded_cls = probe("repro.search.sharding", "ShardedSearchEngine")
    if sharded_cls is None:
        w.absent.append("search.sharding")
    else:
        # No result cache: the rung times the fan-out, not a lookup.
        sharded = sharded_cls.from_engine(engine, num_shards=2, cache_entries=None)
        try:
            metrics["search.sharded2_rank_us"] = p50_us(
                time_each(
                    tracer, "search.sharded2_rank", single(sharded.rank_batch), sample
                )
            )
        finally:
            sharded.close()

    pool_cls = probe("repro.search.shardpool", "ShardProcessPool")
    if pool_cls is None or sharded_cls is None:
        w.absent.append("search.shardpool")
    else:
        with scratch_dir() as directory:
            OfflineIndex(w.concept_model, engine, timings={}).save(
                directory, num_shards=2, mmap_ready=True
            )
            with tracer.span("search.shardpool2_start"):
                pool = pool_cls(directory)
            try:
                metrics["search.shardpool2_start_s"] = float(
                    tracer.durations("search.shardpool2_start")[-1]
                )
                metrics["search.shardpool2_rank_us"] = p50_us(
                    time_each(
                        tracer,
                        "search.shardpool2_rank",
                        single(pool.snapshot_rank_batch),
                        sample,
                    )
                )
            finally:
                pool.close()  # joins the worker processes

    handle_cls = probe("repro.search.lifecycle", "EngineHandle")
    if handle_cls is None:
        w.absent.append("search.lifecycle")
    else:
        metrics["search.handle_rank_us"] = p50_us(
            time_each(
                tracer,
                "search.handle_rank",
                single(handle_cls(engine).snapshot_rank_batch),
                sample,
            )
        )
    return metrics


def _index_persistence(w, tracer: Tracer, first_query) -> Metrics:
    with scratch_dir() as directory:
        with tracer.span("core.index_save"):
            OfflineIndex(w.concept_model, w.engine, timings={}).save(directory)
        size = sum(f.stat().st_size for f in Path(directory).rglob("*") if f.is_file())
        with tracer.span("core.index_load"):
            OfflineIndex.load(directory).engine.search(first_query, top_k=TOP_K)
    return {
        "core.index_save_s": float(tracer.durations("core.index_save")[-1]),
        "core.index_load_ms": float(tracer.durations("core.index_load")[-1]) * 1e3,
        "core.index_bytes": size,
    }


# --------------------------------------------------------------------- #
def query_frontend(w: QueryFrontend, tracer: Tracer, base: Round) -> Metrics:
    """Read the traced round's front-end, then run the window-0 rung."""
    registry = w.frontend_metrics
    cache = w.frontend_stats.get("cache", {})
    cached = np.array(
        [reply is not None and reply.cached for reply in w.responses]
    )
    answered = np.array([reply is not None for reply in w.responses])
    latencies = w.client_latencies

    def stage_ms(stage: str) -> float:
        return registry.latency(stage).mean_seconds * 1e3

    metrics: Metrics = {
        "serve.submit_us": p50_us(tracer.durations("serve.submit")),
        "serve.queue_wait_ms_mean": stage_ms("stage.queue"),
        "serve.engine_ms_mean": stage_ms("stage.engine"),
        "serve.total_ms_mean": stage_ms("stage.total"),
        "serve.batches": registry.counter("batches"),
        "serve.batch_mean_distinct": registry.size_distribution(
            "batch_distinct_queries"
        ).mean,
        "serve.coalesced": registry.counter("coalesced"),
        "serve.shed": registry.counter("shed"),
        "search.cache_hit_ratio": cache.get("hit_rate", 0.0),
        "search.cache_evictions": cache.get("evictions", 0),
        "serve.cached_p50_ms": float(np.median(latencies[cached])) * 1e3,
        "serve.uncached_p50_ms": float(np.median(latencies[answered & ~cached]))
        * 1e3,
    }
    # One client, no window, no cache: what the future hand-off alone costs
    # over the engine call it wraps.
    bare = w.run_round(
        config=FrontendConfig(max_wait_ms=0.0, cache_entries=0), clients=1
    )
    direct = time_each(
        tracer,
        "search.snapshot_rank_batch",
        single(w.engine.snapshot_rank_batch),
        w.queries[: w.sizes.rung_sample],
    )
    metrics["serve.window0_overhead_us"] = p50_us(bare.latencies) - p50_us(direct)
    return metrics


# --------------------------------------------------------------------- #
def mixed_rw(w: MixedRW, tracer: Tracer, base: Round) -> Metrics:
    latencies, kinds, fresh = w.last_latencies, w.kinds, w.fresh
    warm = (kinds == QUERY) & ~fresh
    counts = w.trace.op_counts()
    epoch, resources = w.end_states[-1]
    metrics: Metrics = {
        "search.fresh_read_p50_ms": float(np.median(latencies[fresh])) * 1e3,
        "search.fresh_read_share": float(latencies[fresh].sum()) / w.last_wall,
        "search.warm_query_us": p50_us(latencies[warm]),
        "search.apply_mutations_us": p50_us(latencies[kinds == MUTATE]),
        "search.refresh_tick_ms": float(np.median(latencies[kinds == REFRESH]))
        * 1e3,
        "search.final_epoch": epoch,
        "search.final_resources": resources,
        "load.trace_queries": counts.get(QUERY, 0),
        "load.trace_mutations": counts.get(MUTATE, 0),
        "load.trace_refreshes": counts.get(REFRESH, 0),
    }
    metrics.update(_refresh_split(w, tracer))
    metrics.update(_apply_delta(w, tracer))
    return metrics


def _refresh_split(w: MixedRW, tracer: Tracer, batches: int = 40) -> Metrics:
    """After each mutation batch, refresh the two backends separately.

    Together they should explain ``fresh_read_p50_ms - warm_query_us``.
    """
    engine = SearchEngine.build(w.cleaned, w.concept_model)
    mirror = getattr(engine, "vector_space", None)
    if mirror is None:
        w.absent.append("search.vsm_mirror")
    mutations = [op for op in w.trace.operations if op.kind == MUTATE][:batches]
    for position, op in enumerate(mutations):
        w.dispatch(engine, op)
        with tracer.span("search.matrix_refresh", op=position):
            engine.matrix_space.refresh()
        if mirror is not None:
            with tracer.span("search.vsm_refresh", op=position):
                mirror.refresh()
    return {
        "search.matrix_refresh_ms": float(
            np.median(tracer.durations("search.matrix_refresh"))
        )
        * 1e3,
        "search.vsm_refresh_ms": None
        if mirror is None
        else float(np.median(tracer.durations("search.vsm_refresh"))) * 1e3,
    }


def _apply_delta(w: MixedRW, tracer: Tracer, repeats: int = 5) -> Metrics:
    """Fold a 1% ``FolksonomyDelta`` in, at the corpus and at the index."""
    corpus = w.cleaned
    index = OfflineIndex(
        w.concept_model,
        SearchEngine.build(corpus, w.concept_model),
        timings={},
        folksonomy=corpus,
    )
    rng = np.random.default_rng(w.seed + 4)
    half = max(1, corpus.num_assignments // 200)
    for repeat in range(repeats):
        builder = FolksonomyDeltaBuilder()
        current = index.folksonomy
        for position in rng.choice(current.num_assignments, half, replace=False):
            builder.remove(*current.assignments[position].as_tuple())
        for position in range(half):
            builder.add(
                str(rng.choice(current.users)),
                str(rng.choice(current.tags)),
                f"perf-delta-{repeat}-{position % (half // 3 + 1)}",
            )
        delta = builder.build()
        with tracer.span("tagging.apply_delta", op=repeat):
            current.apply_delta(delta)
        with tracer.span("core.apply_delta", op=repeat):
            index.apply_delta(delta)
    return {
        "tagging.apply_delta_ms": float(
            np.median(tracer.durations("tagging.apply_delta"))
        )
        * 1e3,
        "core.apply_delta_ms": float(
            np.median(tracer.durations("core.apply_delta"))
        )
        * 1e3,
    }


LADDERS = {
    FitOffline.name: fit_offline,
    QuerySteady.name: query_steady,
    QueryFrontend.name: query_frontend,
    MixedRW.name: mixed_rw,
}
