"""Concurrency suite: workload replay, invariants and thread-safety.

The acceptance bar (ISSUE 4): a concurrent replay — >= 4 worker threads,
a mixed 90/10 query/mutation trace, a 4-shard engine — must finish with
zero errors and, after quiescing, rank the trace's evaluation probes
identically (1e-9) to the serial golden replay.  Around that bar this
file covers the trace generator's determinism and validity, the replay
runner's bookkeeping, the epoch-observation audit, the read/write lock,
an 8-thread :class:`QueryCache` hammer, a direct query-vs-mutation race
regression, and randomized mutation/refresh interleavings that must end
1e-9-equal to a from-scratch rebuild.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from oracle import DictLoopOracle, assert_matches_oracle, through_save
from repro.core.concepts import identity_concept_model
from repro.load import (
    MUTATE,
    QUERY,
    LatencyHistogram,
    Operation,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadRunner,
    WorkloadTrace,
    check_replay_parity,
    run_golden,
)
from repro.search.cache import QueryCache
from repro.search.concurrency import ReadWriteLock
from repro.search.engine import SearchEngine
from repro.search.incremental import EpochObservationLog
from repro.search.vsm import RankEngine, rankings_match
from repro.utils.errors import ConfigurationError

SHARD_COUNTS = (1, 2, 4)

#: Worker threads for the concurrent-replay acceptance suite.  The CI
#: version matrix and local runs use the default 4; the nightly stress
#: job raises it (WORKLOAD_WORKERS=8) to shake out schedules a lighter
#: thread count never produces.
NUM_WORKERS = max(1, int(os.environ.get("WORKLOAD_WORKERS", "4")))


def make_trace(folksonomy, **overrides):
    defaults = dict(num_operations=160, seed=11)
    defaults.update(overrides)
    return WorkloadGenerator(WorkloadConfig(**defaults)).generate(folksonomy)


def build_mono(folksonomy):
    return SearchEngine.build(
        folksonomy, identity_concept_model(folksonomy.tags), name="wl"
    )


def build_sharded(folksonomy, num_shards):
    """An engine restored from a ``num_shards``-shard save."""
    return through_save(build_mono(folksonomy), num_shards)


class TestWorkloadGenerator:
    def test_same_seed_same_trace(self, small_cleaned):
        first = make_trace(small_cleaned)
        second = make_trace(small_cleaned)
        assert first.operations == second.operations
        assert first.eval_queries == second.eval_queries
        assert make_trace(small_cleaned, seed=12).operations != first.operations

    def test_mix_roughly_matches_config(self, small_cleaned):
        trace = make_trace(small_cleaned, num_operations=400, seed=3)
        counts = trace.op_counts()
        assert len(trace) == 400
        assert counts[QUERY] >= 320  # ~90%
        assert counts[MUTATE] >= 10
        assert trace.num_mutations == counts[MUTATE]
        mutation_seqs = [
            op.mutation_seq for op in trace.operations if op.kind == MUTATE
        ]
        assert mutation_seqs == list(range(len(mutation_seqs)))

    def test_queries_are_zipf_skewed_with_hot_repeats(self, small_cleaned):
        trace = make_trace(small_cleaned, num_operations=600, seed=5)
        queries = [
            op.query_tags for op in trace.operations if op.kind == QUERY
        ]
        tag_counts: dict = {}
        for query in queries:
            for tag in query:
                tag_counts[tag] = tag_counts.get(tag, 0) + 1
        frequencies = sorted(tag_counts.values(), reverse=True)
        # Zipf head: the most popular tag dwarfs the median tag.
        assert frequencies[0] >= 5 * frequencies[len(frequencies) // 2]
        # Hot repeats: identical queries recur far beyond chance.
        assert len(set(queries)) < len(queries) * 0.85

    def test_mutations_are_valid_in_order(self, small_cleaned):
        trace = make_trace(
            small_cleaned, num_operations=300, query_fraction=0.5, seed=9
        )
        live = set(small_cleaned.resources)
        for op in trace.operations:
            if op.kind != MUTATE:
                continue
            touched = set(op.added) | set(op.updated) | set(op.removed)
            assert len(touched) == (
                len(op.added) + len(op.updated) + len(op.removed)
            )
            for resource in op.added:
                assert resource not in live
            for resource in list(op.updated) + list(op.removed):
                assert resource in live
            live |= set(op.added)
            live -= set(op.removed)
            assert len(live) >= trace.config.min_live_resources

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_operations=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(query_fraction=1.1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(query_fraction=0.95, refresh_fraction=0.1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(zipf_exponent=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(min_query_tags=3, max_query_tags=2)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(add_weight=-1.0)


class TestLatencyHistogram:
    def test_records_and_quantiles(self):
        histogram = LatencyHistogram()
        for value in (1e-5, 1e-4, 1e-3, 1e-3, 1e-2):
            histogram.record(value)
        assert histogram.count == 5
        assert histogram.min_seconds == 1e-5
        assert histogram.max_seconds == 1e-2
        assert histogram.mean_seconds == pytest.approx(0.01211 / 5)
        assert 1e-5 <= histogram.quantile(0.5) <= 4e-3
        assert histogram.quantile(1.0) == 1e-2
        assert "p99" in histogram.summary()

    def test_merge_and_edge_cases(self):
        first, second = LatencyHistogram(), LatencyHistogram()
        first.record(1e-4)
        second.record(1e-2)
        first.merge(second)
        assert first.count == 2
        assert first.max_seconds == 1e-2
        empty = LatencyHistogram()
        assert empty.quantile(0.5) == 0.0
        assert empty.summary() == "no samples"
        with pytest.raises(ConfigurationError):
            empty.record(-1.0)
        with pytest.raises(ConfigurationError):
            empty.quantile(1.5)


class TestSerialReplay:
    def test_serial_replay_bookkeeping(self, small_cleaned):
        trace = make_trace(small_cleaned)
        engine = build_mono(small_cleaned)
        report = WorkloadRunner(engine, trace).run_serial()
        assert report.errors == []
        assert report.mode == "serial"
        assert report.total_operations == len(trace)
        assert report.final_epoch == trace.num_mutations
        assert report.final_resources == engine.num_indexed_resources
        assert report.latencies[QUERY].count == trace.op_counts()[QUERY]
        assert report.latencies[MUTATE].count == trace.num_mutations
        assert len(report.epoch_log) == trace.op_counts()[QUERY]
        assert report.epoch_log.regressions() == []
        assert report.ops_per_second > 0
        assert "ops/s" in report.summary()

    def test_serial_replays_are_identical(self, small_cleaned):
        trace = make_trace(small_cleaned)
        engines = [build_mono(small_cleaned) for _ in range(2)]
        rankings = []
        for engine in engines:
            WorkloadRunner(engine, trace).run_serial()
            engine.refresh()
            rankings.append(
                engine.rank_batch(
                    [list(q) for q in trace.eval_queries], top_k=10
                )
            )
        assert rankings[0] == rankings[1]


class TestConcurrentReplayAcceptance:
    """The ISSUE 4 acceptance bar, enforced."""

    def test_four_workers_four_shards_90_10_parity(self, small_cleaned):
        trace = make_trace(
            small_cleaned,
            num_operations=300,
            query_fraction=0.9,
            seed=23,
        )
        assert trace.op_counts()[QUERY] >= 240  # genuinely ~90/10
        assert trace.num_mutations >= 15
        report = check_replay_parity(
            lambda: build_sharded(small_cleaned, 4),
            trace,
            num_workers=NUM_WORKERS,
        )
        assert report.ok, report.summary()
        assert report.concurrent.errors == []
        assert report.serial.errors == []
        assert report.concurrent.final_epoch == trace.num_mutations
        assert report.concurrent.epoch_log.regressions() == []
        assert report.mismatched_probes == []

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_worker_sweep(self, small_cleaned, num_shards):
        trace = make_trace(small_cleaned, num_operations=150, seed=31)
        report = check_replay_parity(
            lambda: build_sharded(small_cleaned, num_shards),
            trace,
            num_workers=NUM_WORKERS,
        )
        assert report.ok, report.summary()

    def test_monolithic_engine_concurrent_parity(self, small_cleaned):
        trace = make_trace(
            small_cleaned, num_operations=200, query_fraction=0.8, seed=37
        )
        report = check_replay_parity(
            lambda: build_mono(small_cleaned), trace, num_workers=NUM_WORKERS
        )
        assert report.ok, report.summary()

    def test_golden_then_two_worker_parity(self, small_cleaned):
        """One serial golden, then a 2-worker replay judged against it."""
        trace = make_trace(small_cleaned, num_operations=120, seed=41)

        def build():
            return build_sharded(small_cleaned, 2)

        golden = run_golden(build, trace)
        assert golden.report.mode == "serial"
        assert golden.report.errors == []
        report = check_replay_parity(build, trace, num_workers=2, golden=golden)
        assert report.ok, report.summary()
        assert report.serial is golden.report
        assert report.concurrent.mode == "concurrent"
        assert report.concurrent.num_workers == 2
        assert report.concurrent.errors == []
        assert report.mismatched_probes == []


class _Tampered(RankEngine):
    """A concurrent-side engine that delegates to a real one; each subclass
    breaks exactly one of the four replay invariants."""

    def __init__(self, engine):
        self._engine = engine
        self._fired = False

    epoch = property(lambda self: self._engine.epoch)
    num_indexed_resources = property(
        lambda self: self._engine.num_indexed_resources
    )

    def snapshot_rank_batch(self, queries, top_k=None):
        return self._engine.snapshot_rank_batch(queries, top_k=top_k)

    def apply_mutations(self, **batch):
        return self._engine.apply_mutations(**batch)

    def refresh(self):
        return self._engine.refresh()


class _DropsAMutation(_Tampered):
    def apply_mutations(self, **batch):
        if self._fired:
            return self._engine.apply_mutations(**batch)
        self._fired = True
        return self._engine.staleness()


class _StaleEpochOnce(_Tampered):
    _reported = 0

    def snapshot_rank_batch(self, queries, top_k=None):
        epoch, results = self._engine.snapshot_rank_batch(queries, top_k=top_k)
        if 1 <= epoch == self._reported and not self._fired:
            self._fired = True  # the reader already saw ``epoch``: regress
            return epoch - 1, results
        self._reported = epoch
        return epoch, results


class _PerturbsOneProbe(_Tampered):
    def snapshot_rank_batch(self, queries, top_k=None):
        epoch, results = self._engine.snapshot_rank_batch(queries, top_k=top_k)
        if len(queries) > 1:  # the quiesced probe batch, not a replayed query
            position = next(i for i, ranked in enumerate(results) if ranked)
            top = results[position][0]
            results[position][0] = top._replace(score=top.score + 1e-6)
        return epoch, results


class _RaisesUntypedOnce(_Tampered):
    def snapshot_rank_batch(self, queries, top_k=None):
        if len(queries) == 1 and not self._fired:
            self._fired = True
            raise RuntimeError("boom")
        return self._engine.snapshot_rank_batch(queries, top_k=top_k)


#: Violation text -> the check that emitted it.
CHECK_OF_VIOLATION = {
    "error(s) of kinds": "errors typed",
    "epoch diverged": "state converged",
    "resource count diverged": "state converged",
    "ran backwards": "epochs monotone",
    "probes diverged": "probes match",
}


def violated_checks(report):
    return {
        next(
            check
            for text, check in CHECK_OF_VIOLATION.items()
            if text in violation
        )
        for violation in report.violations
    }


class TestEachCheckBitesAlone:
    """Break one property on the concurrent side; only its check fires."""

    def replay(self, folksonomy, trace, tampered):
        return check_replay_parity(
            lambda: build_mono(folksonomy),
            trace,
            num_workers=1,  # one reader: "stale once" is a sure regression
            concurrent_build_engine=lambda: tampered(build_mono(folksonomy)),
        )

    def test_untampered_wrapper_is_green(self, small_cleaned):
        report = self.replay(small_cleaned, make_trace(small_cleaned), _Tampered)
        assert report.ok, report.summary()

    def test_state_converged(self, small_cleaned):
        # One mutation that rewrites a resource to the bag it already has:
        # it bumps the epoch and changes no ranking, so dropping it breaks
        # convergence without disturbing the probes.
        base = make_trace(
            small_cleaned, query_fraction=1.0, refresh_fraction=0.0
        )
        resource = small_cleaned.resources[0]
        rewrite = Operation(
            index=len(base.operations),
            kind=MUTATE,
            updated={resource: dict(small_cleaned.tag_bag(resource))},
            mutation_seq=0,
        )
        trace = WorkloadTrace(
            operations=base.operations + (rewrite,),
            eval_queries=base.eval_queries,
            config=base.config,
        )
        report = self.replay(small_cleaned, trace, _DropsAMutation)
        assert violated_checks(report) == {"state converged"}
        assert report.mismatched_probes == []

    def test_epochs_monotone(self, small_cleaned):
        trace = make_trace(small_cleaned)
        assert trace.num_mutations >= 1
        report = self.replay(small_cleaned, trace, _StaleEpochOnce)
        assert violated_checks(report) == {"epochs monotone"}
        assert len(report.violations) == 1

    def test_probes_match(self, small_cleaned):
        report = self.replay(
            small_cleaned, make_trace(small_cleaned), _PerturbsOneProbe
        )
        assert violated_checks(report) == {"probes match"}
        assert len(report.mismatched_probes) == 1

    def test_errors_typed(self, small_cleaned):
        report = self.replay(
            small_cleaned, make_trace(small_cleaned), _RaisesUntypedOnce
        )
        assert violated_checks(report) == {"errors typed"}
        assert report.concurrent.error_kinds == ["RuntimeError"]
        assert report.mismatched_probes == []


class TestQueryMutationRace:
    """Direct regression for the torn-refresh race the RW lock closes."""

    def test_readers_race_writer_without_errors(self, small_cleaned):
        engine = build_sharded(small_cleaned, 4)
        tags = list(small_cleaned.tags)
        batches = [
            dict(added={f"race-{i}": {tags[i % len(tags)]: 2.0}})
            for i in range(12)
        ]
        errors: list = []
        done = threading.Event()

        def reader():
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            try:
                while not done.is_set():
                    query = [tags[int(rng.integers(len(tags)))]]
                    epoch, _ = engine.snapshot_rank_batch([query], top_k=5)
                    assert 0 <= epoch <= len(batches)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def writer():
            try:
                for batch in batches:
                    engine.apply_mutations(**batch)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
            finally:
                done.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # the raced engine converged to the same state a serial one reaches
        serial = build_sharded(small_cleaned, 4)
        for batch in batches:
            serial.apply_mutations(**batch)
        queries = [[tag] for tag in tags[:8]]
        got = engine.rank_batch(queries, top_k=10)
        want = serial.rank_batch(queries, top_k=10)
        for got_results, want_results in zip(got, want):
            assert rankings_match(got_results, want_results, truncated=True)
        engine.close()
        serial.close()


class TestQueryCacheConcurrency:
    """Satellite: hammer the cache from 8 threads; accounting must hold."""

    def test_eight_thread_hammer(self):
        cache = QueryCache(max_entries=16)
        num_threads, ops_per_thread = 8, 400
        lookups_per_thread = [0] * num_threads
        errors: list = []
        barrier = threading.Barrier(num_threads)

        def hammer(thread_id: int):
            rng = np.random.default_rng(thread_id)
            barrier.wait()
            try:
                for step in range(ops_per_thread):
                    key = int(rng.integers(40))
                    roll = rng.random()
                    if roll < 0.45:
                        cache.put(key, (thread_id, step))
                    elif roll < 0.9:
                        lookups_per_thread[thread_id] += 1
                        hit = cache.get(key)
                        if hit is not None:
                            assert len(hit) == 2
                    else:
                        stats = cache.stats()
                        assert stats["hits"] + stats["misses"] >= 0
                        assert stats["entries"] <= stats["max_entries"]
                    assert len(cache) <= 16
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == sum(lookups_per_thread)
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert len(cache) <= 16


class TestMutationRefreshInterleavings:
    """Satellite: random op sequences end 1e-9-equal to a rebuild."""

    def final_bags(self, folksonomy, trace):
        bags = {
            resource: dict(folksonomy.tag_bag(resource))
            for resource in folksonomy.resources
        }
        for op in trace.operations:
            if op.kind != MUTATE:
                continue
            for resource in op.removed:
                del bags[resource]
            for resource, bag in op.added.items():
                bags[resource] = dict(bag)
            for resource, bag in op.updated.items():
                bags[resource] = dict(bag)
        return bags

    @pytest.mark.parametrize("seed", [2, 19, 83])
    @pytest.mark.parametrize("num_shards", [None, 1, 2, 4])
    def test_interleaved_ops_match_scratch_rebuild(
        self, small_cleaned, seed, num_shards
    ):
        trace = make_trace(
            small_cleaned,
            num_operations=120,
            query_fraction=0.45,
            refresh_fraction=0.15,
            seed=seed,
        )
        assert trace.num_mutations > 0
        engine = (
            build_mono(small_cleaned)
            if num_shards is None
            else build_sharded(small_cleaned, num_shards)
        )
        report = WorkloadRunner(engine, trace).run_serial()
        assert report.errors == []
        oracle = DictLoopOracle(
            engine.concept_model, self.final_bags(small_cleaned, trace)
        )
        assert engine.num_indexed_resources == oracle.space.num_resources
        queries = [list(query) for query in trace.eval_queries]
        assert_matches_oracle(engine, oracle, queries, top_k=10)
        if num_shards is not None:
            engine.close()


class TestEpochInstruments:
    def test_epoch_log_detects_regressions(self):
        log = EpochObservationLog()
        assert log.max_epoch == -1
        log.record("a", 0)
        log.record("a", 2)
        log.record("b", 5)
        log.record("b", 5)
        assert log.regressions() == []
        log.record("a", 1)  # a saw 2, then 1: torn read
        assert log.regressions() == [("a", 2, 1)]
        assert log.max_epoch == 5
        assert len(log) == 5
        assert log.observations()[0] == ("a", 0)

    def test_snapshot_rank_batch_is_epoch_consistent(self, small_cleaned):
        engine = build_mono(small_cleaned)
        tag = small_cleaned.tags[0]
        epoch, results = engine.snapshot_rank_batch([[tag]], top_k=5)
        assert epoch == 0 and results[0]
        engine.add_resources({"snap-res": {tag: 3.0}})
        epoch, _ = engine.snapshot_rank_batch([[tag]], top_k=5)
        assert epoch == 1
        epoch, results = engine.snapshot_rank_batch([], top_k=5)
        assert epoch == 1 and results == []


class TestReadWriteLock:
    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        timeline: list = []
        ready = threading.Event()

        def writer():
            with lock.write():
                ready.set()
                timeline.append("write-start")
                # give the reader a chance to race in if exclusion is broken
                threading.Event().wait(0.05)
                timeline.append("write-end")

        def reader():
            ready.wait()
            with lock.read():
                timeline.append("read")

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert timeline == ["write-start", "write-end", "read"]

    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # deadlocks (and times out) unless shared

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not inside.broken

    def test_unbalanced_release_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()
        assert "readers=0" in repr(lock)
