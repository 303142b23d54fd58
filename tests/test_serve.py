"""Serving front-end suite: batching, dedup, admission, metrics, cache.

The acceptance bar (ISSUE 5): a concurrent 90/10 workload replayed with
every query routed through the :class:`~repro.serve.BatchingFrontend`
must finish with zero errors and post-quiesce 1e-9 parity against the
serial golden replay — the same invariants the direct path satisfies,
re-proven through the batching path.  Around that bar this file covers
the micro-batch window's flush ordering, dedup fan-out to N waiters,
admission-control shedding under a saturated queue, the metrics registry
and its Prometheus export, and the result-cache integration (exactly one
hit-or-miss per logical query, front-end-owned or engine-owned).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from oracle import through_save, with_cache
from repro.core.concepts import identity_concept_model
from repro.load import WorkloadConfig, WorkloadGenerator, check_replay_parity
from repro.search.engine import SearchEngine
from repro.search.vsm import RankedResult, RankEngine, mismatched_probes
from repro.serve import (
    AdmissionController,
    BatchingFrontend,
    FrontendClosed,
    FrontendConfig,
    MetricsRegistry,
    Overloaded,
    SizeDistribution,
)
from repro.utils.errors import ConfigurationError

#: Mirrors tests/test_workload.py: the nightly stress job raises it to 8.
NUM_WORKERS = max(1, int(os.environ.get("WORKLOAD_WORKERS", "4")))


class RecordingEngine(RankEngine):
    """The required engine surface, with a call log and a delay.

    Results are a deterministic function of the query's sorted tags, so
    tests can assert fan-out correctness without building an index.
    """

    epoch = 0
    num_indexed_resources = 0

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls = []
        self._lock = threading.Lock()

    def snapshot_rank_batch(self, queries, top_k=None):
        with self._lock:
            self.calls.append(([list(query) for query in queries], top_k))
        if self.delay:
            time.sleep(self.delay)
        results = [
            [RankedResult("r-" + "-".join(sorted(query)), 1.0, 1)]
            for query in queries
        ]
        return self.epoch, results


class FailingEngine(RankEngine):
    """Raises on every read (error-propagation tests)."""

    epoch = 0
    num_indexed_resources = 0

    def snapshot_rank_batch(self, queries, top_k=None):
        raise RuntimeError("backend down")


def build_mono(folksonomy):
    return SearchEngine.build(
        folksonomy, identity_concept_model(folksonomy.tags), name="serve"
    )


def build_sharded(folksonomy, num_shards=4):
    """A cached engine restored from a ``num_shards``-shard save."""
    return through_save(with_cache(build_mono(folksonomy)), num_shards)


def run_clients(frontend, queries, num_clients):
    """Client ``c`` submits queries ``c, c + n, ...`` one at a time."""
    got = [None] * len(queries)

    def client(first):
        for position in range(first, len(queries), num_clients):
            got[position] = frontend.query(queries[position], top_k=10)

    threads = [
        threading.Thread(target=client, args=(first,))
        for first in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert None not in got  # a client that raised left its answers unset
    return got


class TestFrontendConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FrontendConfig(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(max_wait_ms=float("nan"))
        with pytest.raises(ConfigurationError):
            FrontendConfig(max_wait_ms=float("inf"))
        with pytest.raises(ConfigurationError):
            FrontendConfig(max_pending=0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(cache_entries=-1)

    def test_engine_surface_is_validated(self):
        with pytest.raises(ConfigurationError):
            BatchingFrontend(object())


class TestWindowFlush:
    def test_flushes_in_submission_order_when_size_limit_hit(self):
        engine = RecordingEngine(delay=0.01)
        config = FrontendConfig(
            max_batch_size=2, max_wait_ms=500.0, cache_entries=0
        )
        with BatchingFrontend(engine, config) as frontend:
            futures = [
                frontend.submit([f"q{index}"], top_k=1) for index in range(5)
            ]
            responses = [future.result(timeout=10) for future in futures[:4]]
        # close() drained the straggler without waiting out the window.
        responses.append(futures[4].result(timeout=10))

        batches = [
            [query[0] for query in queries] for queries, _ in engine.calls
        ]
        assert batches == [["q0", "q1"], ["q2", "q3"], ["q4"]]
        for index, response in enumerate(responses):
            assert response.results[0].resource == f"r-q{index}"

    def test_window_deadline_flushes_partial_batch(self):
        engine = RecordingEngine()
        config = FrontendConfig(
            max_batch_size=32, max_wait_ms=20.0, cache_entries=0
        )
        with BatchingFrontend(engine, config) as frontend:
            response = frontend.submit(["solo"], top_k=1).result(timeout=10)
        assert response.results[0].resource == "r-solo"
        assert len(engine.calls) == 1

    def test_mixed_top_k_batches_stay_correct(self):
        engine = RecordingEngine()
        config = FrontendConfig(
            max_batch_size=4, max_wait_ms=50.0, cache_entries=0
        )
        with BatchingFrontend(engine, config) as frontend:
            narrow = frontend.submit(["a"], top_k=1)
            wide = frontend.submit(["a"], top_k=5)
            none = frontend.submit(["a"])
            assert narrow.result(timeout=10).results[0].resource == "r-a"
            assert wide.result(timeout=10).results[0].resource == "r-a"
            assert none.result(timeout=10).results[0].resource == "r-a"
        # Distinct top_k values are distinct cache keys, but the batch is
        # scored in ONE engine call at the widest requested depth (None
        # here) and sliced per request — one call, one epoch.
        assert len(engine.calls) == 1
        assert engine.calls[0][1] is None


class TestDedupFanout:
    def test_identical_inflight_queries_score_once(self):
        engine = RecordingEngine()
        config = FrontendConfig(
            max_batch_size=64, max_wait_ms=150.0, cache_entries=0
        )
        with BatchingFrontend(engine, config) as frontend:
            futures = [
                frontend.submit(["hot", "tag"], top_k=3) for _ in range(8)
            ]
            responses = [future.result(timeout=10) for future in futures]

        assert len(engine.calls) == 1
        assert engine.calls[0][0] == [["hot", "tag"]]
        assert frontend.metrics.counter("coalesced") == 7
        for response in responses:
            assert response.results[0].resource == "r-hot-tag"
        # Every waiter got its own list: mutating one cannot corrupt
        # another waiter's (or the cache's) copy.
        responses[0].results.append("sentinel")
        assert len(responses[1].results) == 1

    def test_tag_order_is_canonicalized(self):
        engine = RecordingEngine()
        config = FrontendConfig(
            max_batch_size=64, max_wait_ms=150.0, cache_entries=0
        )
        with BatchingFrontend(engine, config) as frontend:
            first = frontend.submit(["b", "a"], top_k=3)
            second = frontend.submit(["a", "b"], top_k=3)
            first.result(timeout=10)
            second.result(timeout=10)
        assert len(engine.calls) == 1


class TestAdmissionControl:
    def test_controller_bounds_and_sheds(self):
        controller = AdmissionController(max_pending=2)
        assert controller.admit() == 1
        assert controller.admit() == 2
        with pytest.raises(Overloaded) as caught:
            controller.admit()
        assert caught.value.pending == 2
        assert caught.value.max_pending == 2
        assert controller.shed == 1
        assert controller.release() == 1
        assert controller.admit() == 2
        with pytest.raises(ConfigurationError):
            controller.release(5)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_pending=0)

    def test_saturated_queue_sheds_with_typed_errors(self):
        engine = RecordingEngine(delay=0.2)
        config = FrontendConfig(
            max_batch_size=1,
            max_wait_ms=0.0,
            max_pending=4,
            cache_entries=0,
        )
        with BatchingFrontend(engine, config) as frontend:
            admitted, shed = [], 0
            for index in range(10):
                try:
                    admitted.append(frontend.submit([f"q{index}"], top_k=1))
                except Overloaded as error:
                    shed += 1
                    assert error.max_pending == 4
            # The burst outruns the slow engine: everything beyond the
            # bound was shed immediately, nothing queued unboundedly.
            assert shed >= 6
            assert frontend.metrics.counter("shed") == shed
            assert frontend.admission.shed == shed
            for future in admitted:
                assert future.result(timeout=30).results
        assert frontend.metrics.counter("completed") == len(admitted)

    def test_submit_after_close_raises(self):
        frontend = BatchingFrontend(
            RecordingEngine(), FrontendConfig(cache_entries=0)
        )
        frontend.close()
        with pytest.raises(FrontendClosed):
            frontend.submit(["late"], top_k=1)

    def test_engine_errors_propagate_to_waiters(self):
        config = FrontendConfig(
            max_batch_size=4, max_wait_ms=10.0, cache_entries=0
        )
        with BatchingFrontend(FailingEngine(), config) as frontend:
            future = frontend.submit(["doomed"], top_k=1)
            with pytest.raises(RuntimeError, match="backend down"):
                future.result(timeout=10)
        assert frontend.metrics.counter("errors") == 1
        # The shed ticket was released: nothing leaks on the error path.
        assert frontend.admission.pending == 0


class TestMetricsRegistry:
    def test_counters_gauges_and_validation(self):
        registry = MetricsRegistry()
        registry.increment("requests")
        registry.increment("requests", 4)
        assert registry.counter("requests") == 5
        assert registry.counter("unknown") == 0
        with pytest.raises(ConfigurationError):
            registry.increment("requests", -1)
        registry.set_gauge("depth", 3)
        assert registry.gauge("depth") == 3.0
        assert registry.gauge("unknown") is None

    def test_latency_and_size_observations(self):
        registry = MetricsRegistry()
        for seconds in (0.001, 0.002, 0.004):
            registry.observe_latency("stage.engine", seconds)
        histogram = registry.latency("stage.engine")
        assert histogram.count == 3
        assert histogram.min_seconds == pytest.approx(0.001)
        # The returned copy is detached from the live histogram.
        registry.observe_latency("stage.engine", 1.0)
        assert histogram.count == 3

        for size in (1, 4, 4, 8):
            registry.observe_size("batch", size)
        sizes = registry.size_distribution("batch")
        assert sizes.count == 4
        assert sizes.mean == pytest.approx(4.25)
        assert sizes.max == 8
        assert sizes.quantile(0.5) == 4

    def test_size_distribution_edges(self):
        distribution = SizeDistribution()
        assert distribution.quantile(0.5) == 0
        assert distribution.mean == 0.0
        with pytest.raises(ConfigurationError):
            distribution.record(-1)
        with pytest.raises(ConfigurationError):
            distribution.quantile(1.5)

    def test_prometheus_export_shape(self):
        registry = MetricsRegistry(prefix="test_ns")
        registry.increment("submitted", 3)
        registry.set_gauge("queue_depth", 2)
        registry.observe_latency("stage.total", 0.01)
        registry.observe_size("batch", 4)
        text = registry.export_text()
        lines = text.splitlines()
        assert "# TYPE test_ns_submitted_total counter" in lines
        assert "test_ns_submitted_total 3" in lines
        assert "# TYPE test_ns_queue_depth gauge" in lines
        assert "test_ns_queue_depth 2" in lines
        assert "# TYPE test_ns_stage_total_seconds histogram" in lines
        assert 'test_ns_stage_total_seconds_bucket{le="+Inf"} 1' in lines
        assert "test_ns_stage_total_seconds_count 1" in lines
        assert 'test_ns_batch_bucket{le="4"} 1' in lines
        assert text.endswith("\n")


class TestCacheIntegration:
    """The ISSUE 5 bugfix: one hit-or-miss per logical query, no double
    counting, epoch-keyed so a stale entry can never be served."""

    def test_frontend_owned_cache_serves_repeats_without_engine_calls(self):
        engine = RecordingEngine()
        config = FrontendConfig(max_batch_size=8, max_wait_ms=5.0)
        with BatchingFrontend(engine, config) as frontend:
            assert frontend.cache is not None
            first = frontend.submit(["jazz"], top_k=3).result(timeout=10)
            second = frontend.submit(["jazz"], top_k=3).result(timeout=10)

        assert len(engine.calls) == 1
        assert first.cached is False
        assert second.cached is True
        assert second.epoch == first.epoch
        assert [r.resource for r in second.results] == [
            r.resource for r in first.results
        ]
        stats = frontend.cache.stats()
        # Two logical queries, exactly two lookups: 1 miss + 1 hit.
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_engine_owned_cache_is_not_double_counted(self, toy_folksonomy):
        engine = build_sharded(toy_folksonomy, num_shards=2)
        try:
            config = FrontendConfig(max_batch_size=8, max_wait_ms=5.0)
            with BatchingFrontend(engine, config) as frontend:
                assert frontend.cache is engine.cache
                tags = sorted(toy_folksonomy.tags)[:2]
                frontend.query(tags, top_k=3)
                frontend.query(tags, top_k=3)
            stats = engine.cache.stats()
            # The engine's in-lock probe is the only bookkeeper: two
            # logical queries count exactly one miss and one hit, not
            # twice each.
            assert stats["misses"] == 1
            assert stats["hits"] == 1
        finally:
            engine.close()

    def test_raced_mutation_rescores_batch_under_one_epoch(self):
        """A write landing between the cache probe and the snapshot must
        not split one batch across two epochs: the whole batch is redone
        so pipelined clients can never observe the epoch run backwards."""

        class EpochBumpingEngine(RecordingEngine):
            # Every snapshot observes a mutation that landed just before
            # it — the worst case for the probe-then-snapshot race.
            def snapshot_rank_batch(self, queries, top_k=None):
                self.epoch += 1
                return super().snapshot_rank_batch(queries, top_k=top_k)

        engine = EpochBumpingEngine()
        config = FrontendConfig(max_batch_size=8, max_wait_ms=100.0)
        with BatchingFrontend(engine, config) as frontend:
            # Prime the cache at epoch 1.
            frontend.submit(["a"], top_k=2).result(timeout=10)
            assert engine.epoch == 1
            # One batch holding a cache hit ("a") and a miss ("b"): the
            # miss call bumps the epoch, so the hit must be re-scored.
            hit = frontend.submit(["a"], top_k=2)
            miss = frontend.submit(["b"], top_k=2)
            hit_response = hit.result(timeout=10)
            miss_response = miss.result(timeout=10)

        assert hit_response.epoch == miss_response.epoch
        assert hit_response.cached is False  # re-scored, not served stale
        assert hit_response.results[0].resource == "r-a"
        assert miss_response.results[0].resource == "r-b"
        # prime + miss call + full-batch redo.
        assert len(engine.calls) == 3
        assert engine.calls[-1][0] == [["a"], ["b"]]

    def test_redo_failure_still_serves_cache_hits(self):
        """If the full-batch re-rank after a raced mutation fails, hit
        waiters still get their valid probed-epoch cached results; only
        the queries that needed the engine fail."""

        class RedoFailingEngine(RecordingEngine):
            def snapshot_rank_batch(self, queries, top_k=None):
                with self._lock:
                    call_number = len(self.calls) + 1
                if call_number == 3:  # the full-batch redo
                    with self._lock:
                        self.calls.append((list(queries), top_k))
                    raise RuntimeError("redo failed")
                self.epoch += 1
                return super().snapshot_rank_batch(queries, top_k=top_k)

        engine = RedoFailingEngine()
        config = FrontendConfig(max_batch_size=8, max_wait_ms=100.0)
        with BatchingFrontend(engine, config) as frontend:
            frontend.submit(["a"], top_k=2).result(timeout=10)  # prime
            hit = frontend.submit(["a"], top_k=2)
            miss = frontend.submit(["b"], top_k=2)
            hit_response = hit.result(timeout=10)
            with pytest.raises(RuntimeError, match="redo failed"):
                miss.result(timeout=10)

        assert hit_response.cached is True
        assert hit_response.epoch == 1  # the probed epoch it was valid at
        assert hit_response.results[0].resource == "r-a"
        assert frontend.metrics.counter("errors") == 1
        assert frontend.admission.pending == 0

    def test_mutation_invalidates_via_epoch_keying(self, toy_folksonomy):
        engine = build_mono(toy_folksonomy)
        config = FrontendConfig(max_batch_size=8, max_wait_ms=5.0)
        with BatchingFrontend(engine, config) as frontend:
            tags = sorted(toy_folksonomy.tags)[:1]
            before = frontend.submit(tags, top_k=5).result(timeout=10)
            engine.add_resources({"fresh": {tags[0]: 3.0}})
            after = frontend.submit(tags, top_k=5).result(timeout=10)

        assert before.cached is False
        assert after.cached is False  # epoch changed: the entry missed
        assert after.epoch == before.epoch + 1
        assert "fresh" in {result.resource for result in after.results}


class TestFrontendParityAcceptance:
    """ISSUE 5 acceptance: the PR 4 invariants through the batching path."""

    def test_four_workers_90_10_through_frontend(self, small_cleaned):
        trace = WorkloadGenerator(
            WorkloadConfig(
                num_operations=300, query_fraction=0.9, seed=23, top_k=10
            )
        ).generate(small_cleaned)
        report = check_replay_parity(
            lambda: build_sharded(small_cleaned, 4),
            trace,
            num_workers=NUM_WORKERS,
            frontend_config=FrontendConfig(max_batch_size=8, max_wait_ms=2.0),
        )
        assert report.ok, report.summary()
        assert report.concurrent.errors == []
        assert report.serial.errors == []
        assert report.concurrent.final_epoch == trace.num_mutations
        assert report.concurrent.epoch_log.regressions() == []
        assert report.mismatched_probes == []

    def test_monolithic_engine_through_frontend(self, small_cleaned):
        trace = WorkloadGenerator(
            WorkloadConfig(num_operations=150, query_fraction=0.8, seed=37)
        ).generate(small_cleaned)
        report = check_replay_parity(
            lambda: build_mono(small_cleaned),
            trace,
            num_workers=NUM_WORKERS,
            frontend_config=FrontendConfig(max_batch_size=4, max_wait_ms=1.0),
        )
        assert report.ok, report.summary()

    def test_frontend_sweep_rows_and_parity(self, small_cleaned):
        """4 clients, two batch windows, every answer the direct one's."""
        engine = build_sharded(small_cleaned, 2)
        try:
            queries = [
                list(query)
                for query in WorkloadGenerator(
                    WorkloadConfig(num_operations=40, seed=3)
                )
                .generate(small_cleaned)
                .eval_queries
            ] * 4
            want = engine.rank_batch(queries, top_k=10)
            mean_batches = []
            for max_batch_size, max_wait_ms in ((1, 0.0), (8, 2.0)):
                engine.cache.clear()
                config = FrontendConfig(
                    max_batch_size=max_batch_size,
                    max_wait_ms=max_wait_ms,
                    cache_entries=0,
                )
                with BatchingFrontend(engine, config) as frontend:
                    got = run_clients(frontend, queries, num_clients=4)
                    sizes = frontend.metrics.size_distribution(
                        "batch_distinct_queries"
                    )
                assert mismatched_probes(got, want, truncated=True) == []
                mean_batches.append(sizes.mean)
            assert mean_batches[1] >= mean_batches[0]
        finally:
            engine.close()
