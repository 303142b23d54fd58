"""Serving front-end suite: dispatch on arrival, dedup, admission, metrics, cache.

The acceptance bar (ISSUE 5): a concurrent 90/10 workload replayed with
every query routed through the :class:`~repro.serve.BatchingFrontend`
must finish with zero errors and post-quiesce 1e-9 parity against the
serial golden replay — the same invariants the direct path satisfies,
re-proven through the front-end.  Around that bar this file covers the
threadless dispatch (each query scored in its submitting thread), dedup
fan-out to N waiters and its epoch rule, admission-control shedding with
tickets held by a gated engine, the metrics registry and its Prometheus
export, and the front-end's result cache (exactly one hit-or-miss per
logical query, epoch-keyed).  No test here waits on a clock: concurrency
is staged with a gated engine.
"""

from __future__ import annotations

import os
import threading
from dataclasses import fields

import pytest

from oracle import through_save
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

#: Upper bound on any wait in this file; reached only when a test fails.
TIMEOUT = 10.0


class RecordingEngine(RankEngine):
    """The required engine surface, with a call log and an optional gate.

    Results are a deterministic function of the query's sorted tags, so
    tests can assert fan-out correctness without building an index.  With
    a ``gate``, every call signals ``entered`` and then blocks until the
    gate is set, so a test can hold a read in flight.
    """

    epoch = 0
    num_indexed_resources = 0

    def __init__(self, gate: threading.Event = None) -> None:
        self.gate = gate
        self.entered = threading.Semaphore(0)
        self.calls = []
        self._lock = threading.Lock()

    def snapshot_rank_batch(self, queries, top_k=None):
        with self._lock:
            self.calls.append(([list(query) for query in queries], top_k))
        self.entered.release()
        if self.gate is not None:
            assert self.gate.wait(TIMEOUT), "the test never opened the gate"
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
    """An engine restored from a ``num_shards``-shard save."""
    return through_save(build_mono(folksonomy), num_shards)


def run_threads(target, args_list):
    """Run ``target(*args)`` per entry on its own thread; join them all."""
    threads = [threading.Thread(target=target, args=args) for args in args_list]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


def run_clients(frontend, queries, num_clients):
    """Client ``c`` submits queries ``c, c + n, ...`` one at a time."""
    got = [None] * len(queries)

    def client(first):
        for position in range(first, len(queries), num_clients):
            got[position] = frontend.query(queries[position], top_k=10)

    run_threads(client, [(first,) for first in range(num_clients)])
    assert None not in got  # a client that raised left its answers unset
    return got


def hold_one_read(frontend, tags, top_k=3):
    """Start a submit of ``tags`` on a thread and wait until it is scoring.

    Returns ``(thread, box)``; once the thread is joined, ``box[0]`` is
    the future that submit returned.
    """
    box = []
    thread = threading.Thread(
        target=lambda: box.append(frontend.submit(tags, top_k=top_k))
    )
    thread.start()
    assert frontend.engine.entered.acquire(timeout=TIMEOUT)
    return thread, box


class TestFrontendConfig:
    def test_validation(self):
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

    def test_window_knobs_are_gone(self):
        assert [field.name for field in fields(FrontendConfig)] == [
            "max_pending",
            "cache_entries",
            "tenant_max_pending",
            "max_wait_ms",
        ]
        FrontendConfig(max_wait_ms=0.0, cache_entries=0)
        with pytest.raises(ConfigurationError, match="window is gone"):
            FrontendConfig(max_wait_ms=2.0)
        with pytest.raises(TypeError):
            FrontendConfig(max_batch_size=8)

    def test_engine_surface_is_validated(self):
        with pytest.raises(ConfigurationError):
            BatchingFrontend(object())


class TestDispatchOnArrival:
    def test_construction_starts_no_thread(self):
        before = threading.active_count()
        frontend = BatchingFrontend(RecordingEngine())
        assert threading.active_count() == before
        frontend.close()

    def test_uncontended_submit_returns_a_done_future(self):
        engine = RecordingEngine()
        with BatchingFrontend(engine, FrontendConfig(cache_entries=0)) as fe:
            future = fe.submit(["solo"], top_k=1)
            assert future.done()
            assert future.result().results[0].resource == "r-solo"
            assert fe.admission.pending == 0
        assert engine.calls == [([["solo"]], 1)]

    def test_bare_string_query_is_refused(self):
        engine = RecordingEngine()
        with BatchingFrontend(engine) as frontend:
            with pytest.raises(ConfigurationError, match="bare string"):
                frontend.query("folk")
            with pytest.raises(ConfigurationError, match="bare string"):
                frontend.submit(b"folk", top_k=3)
            assert frontend.admission.pending == 0
        assert engine.calls == []

    def test_mixed_top_k_requests_stay_correct(self, toy_folksonomy):
        engine = build_mono(toy_folksonomy)
        tags = sorted(toy_folksonomy.tags)[:2]
        with BatchingFrontend(engine, FrontendConfig(cache_entries=0)) as fe:
            for top_k in (1, 2, 5, None):
                got = fe.query(tags, top_k=top_k)
                want = engine.search(tags, top_k=top_k)
                assert mismatched_probes([got], [want], truncated=True) == []
        # Each request is scored at its own depth: no widest-depth slicing.
        recording = RecordingEngine()
        with BatchingFrontend(recording, FrontendConfig(cache_entries=0)) as fe:
            for top_k in (1, 5, None):
                fe.submit(["a"], top_k=top_k)
        assert [top_k for _, top_k in recording.calls] == [1, 5, None]


class TestDedupFanout:
    def test_identical_inflight_queries_score_once(self):
        engine = RecordingEngine(gate=threading.Event())
        config = FrontendConfig(cache_entries=0)
        with BatchingFrontend(engine, config) as frontend:
            owner, box = hold_one_read(frontend, ["hot", "tag"])
            run_threads(
                lambda: box.append(frontend.submit(["hot", "tag"], top_k=3)),
                [()] * 7,
            )
            assert frontend.admission.pending == 8
            engine.gate.set()
            owner.join(timeout=TIMEOUT)
            assert not owner.is_alive()
            responses = [future.result(timeout=TIMEOUT) for future in box]

        assert len(engine.calls) == 1
        assert engine.calls[0][0] == [["hot", "tag"]]
        assert frontend.metrics.counter("coalesced") == 7
        assert len(responses) == 8
        for response in responses:
            assert response.results == responses[0].results
            assert response.results[0].resource == "r-hot-tag"
        # Every waiter got its own list: mutating one cannot corrupt
        # another waiter's (or the cache's) copy.
        responses[0].results.append("sentinel")
        assert len(responses[1].results) == 1
        assert frontend.admission.pending == 0

    def test_a_write_seen_at_the_probe_never_attaches_to_an_older_read(self):
        engine = RecordingEngine(gate=threading.Event())
        config = FrontendConfig(cache_entries=0)
        with BatchingFrontend(engine, config) as frontend:
            first, first_box = hold_one_read(frontend, ["a"])
            engine.epoch = 1  # a write lands while the epoch-0 read is held
            second, second_box = hold_one_read(frontend, ["a"])
            # Both reads are in the engine at once: the second did not
            # attach to the first, which started before the write.
            assert len(engine.calls) == 2
            assert frontend.metrics.counter("coalesced") == 0
            engine.gate.set()
            for thread in (first, second):
                thread.join(timeout=TIMEOUT)
                assert not thread.is_alive()
        assert second_box[0].result().epoch == 1

    def test_tag_order_is_canonicalized(self):
        engine = RecordingEngine(gate=threading.Event())
        config = FrontendConfig(cache_entries=0)
        with BatchingFrontend(engine, config) as frontend:
            owner, box = hold_one_read(frontend, ["b", "a"])
            second = frontend.submit(["a", "b"], top_k=3)
            assert not second.done()
            engine.gate.set()
            owner.join(timeout=TIMEOUT)
            assert second.result(timeout=TIMEOUT).results == (
                box[0].result().results
            )
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
        engine = RecordingEngine(gate=threading.Event())
        config = FrontendConfig(max_pending=4, cache_entries=0)
        with BatchingFrontend(engine, config) as frontend:
            # One read held in the engine plus three waiters attached to
            # it hold all four tickets.
            owner, admitted = hold_one_read(frontend, ["q0"], top_k=1)
            admitted += [frontend.submit(["q0"], top_k=1) for _ in range(3)]
            shed = 0
            for index in range(1, 7):
                try:
                    frontend.submit([f"q{index}"], top_k=1)
                except Overloaded as error:
                    shed += 1
                    assert error.max_pending == 4
            # Everything beyond the bound was shed immediately, nothing
            # queued unboundedly.
            assert shed == 6
            assert frontend.metrics.counter("shed") == shed
            assert frontend.admission.shed == shed
            engine.gate.set()
            owner.join(timeout=TIMEOUT)
            assert not owner.is_alive()
            for future in admitted:
                assert future.result(timeout=TIMEOUT).results
        assert len(engine.calls) == 1
        assert frontend.metrics.counter("completed") == len(admitted) == 4
        assert frontend.admission.pending == 0

    def test_submit_after_close_raises(self):
        frontend = BatchingFrontend(
            RecordingEngine(), FrontendConfig(cache_entries=0)
        )
        frontend.close()
        with pytest.raises(FrontendClosed):
            frontend.submit(["late"], top_k=1)

    def test_engine_errors_propagate_to_waiters(self):
        config = FrontendConfig(cache_entries=0)
        with BatchingFrontend(FailingEngine(), config) as frontend:
            future = frontend.submit(["doomed"], top_k=1)
            with pytest.raises(RuntimeError, match="backend down"):
                future.result(timeout=TIMEOUT)
        assert frontend.metrics.counter("errors") == 1
        # The ticket was released: nothing leaks on the error path.
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
        with BatchingFrontend(engine) as frontend:
            assert frontend.cache is not None
            first = frontend.submit(["jazz"], top_k=3).result(timeout=TIMEOUT)
            second = frontend.submit(["jazz"], top_k=3).result(timeout=TIMEOUT)

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

    def test_mutation_invalidates_via_epoch_keying(self, toy_folksonomy):
        engine = build_mono(toy_folksonomy)
        with BatchingFrontend(engine) as frontend:
            tags = sorted(toy_folksonomy.tags)[:1]
            before = frontend.submit(tags, top_k=5).result(timeout=TIMEOUT)
            engine.add_resources({"fresh": {tags[0]: 3.0}})
            after = frontend.submit(tags, top_k=5).result(timeout=TIMEOUT)

        assert before.cached is False
        assert after.cached is False  # epoch changed: the entry missed
        assert after.epoch == before.epoch + 1
        assert "fresh" in {result.resource for result in after.results}


class TestFrontendParityAcceptance:
    """The replay-parity invariants, re-proven through the front-end."""

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
            frontend_config=FrontendConfig(),
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
            frontend_config=FrontendConfig(),
        )
        assert report.ok, report.summary()

    def test_four_clients_match_direct_rank_batch(self, small_cleaned):
        """4 client threads, every answer the direct one's at 1e-9."""
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
            with BatchingFrontend(engine) as frontend:
                got = run_clients(frontend, queries, num_clients=4)
                counters = frontend.stats()["counters"]
            assert mismatched_probes(got, want, truncated=True) == []
            assert counters["submitted"] == counters["completed"]
            assert counters["submitted"] == len(queries)
        finally:
            engine.close()
