"""Acceptance suite for the process-per-shard serving pool.

The pool's bar extends the sharded parity contract across process
boundaries: a :class:`ShardProcessPool` over a saved 4-shard layout must
reproduce the monolithic rankings to 1e-9,
:class:`~repro.serve.frontend.BatchingFrontend` must sit in front of it
unchanged, and the PR 4/5 replay invariants
(:func:`~repro.load.invariants.check_replay_parity`) must hold when the
concurrent replay is pool-backed.  On top of parity, this file drills
the failure paths the coordinator promises to survive: a killed worker
mid-fan-out yields a typed ``dead`` failure (never a hang), a stalled
worker yields ``timeout`` then fast-skipped ``stalled`` reads until the
heartbeat revives it, and :meth:`restart_worker` restores full parity.
It also covers the one storage layout underneath: raw ``.npy`` arrays
(:meth:`MatrixConceptSpace.save`), memory-mapped or read eagerly
(``load``'s ``mmap``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from oracle import DictLoopOracle, assert_matches_oracle
from repro.core.concepts import identity_concept_model
from repro.core.pipeline import OfflineIndex
from repro.load.invariants import check_replay_parity
from repro.load.runner import WorkloadRunner
from repro.load.workload import (
    MUTATE,
    QUERY,
    Operation,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
)
from repro.search.engine import SearchEngine
from repro.search.lifecycle import EngineHandle
from repro.search.matrix_space import METADATA_FILENAME, MatrixConceptSpace
from repro.search.shardpool import (
    ShardFailure,
    ShardPoolConfig,
    ShardPoolDegraded,
    ShardPoolError,
    ShardProcessPool,
)
from repro.search.vsm import mismatched_probes, rankings_match
from repro.serve.frontend import BatchingFrontend, FrontendConfig
from repro.utils.errors import ConfigurationError

NUM_SHARDS = 4
TOP_K = 10
PARITY_TOL = 1e-9

#: Worker threads for the pool-backed concurrent replay; the nightly
#: stress job raises it (WORKLOAD_WORKERS=8), matching test_workload.py.
NUM_WORKERS = max(1, int(os.environ.get("WORKLOAD_WORKERS", "4")))

#: Generous fan-out deadline for the happy paths: failure tests override
#: it downward, and the no-hang assertions bound wall time well below it.
REQUEST_TIMEOUT = 60.0


def sample_queries(folksonomy, count=18):
    rng = np.random.default_rng(7)
    tags = list(folksonomy.tags)
    queries = [
        [tags[i] for i in rng.choice(len(tags), size=size, replace=False)]
        for size in (1, 2, 3)
        for _ in range(count // 3)
    ]
    queries.append([])
    queries.append(["no-such-tag"])
    return queries


@pytest.fixture(scope="module")
def mono_engine(small_cleaned):
    return SearchEngine.build(
        small_cleaned, identity_concept_model(small_cleaned.tags), name="pool"
    )


@pytest.fixture(scope="module")
def queries(small_cleaned):
    return sample_queries(small_cleaned)


@pytest.fixture(scope="module")
def golden(mono_engine, queries):
    """The monolithic epoch + rankings every pool read is judged against."""
    return mono_engine.snapshot_rank_batch(queries, top_k=TOP_K)


@pytest.fixture(scope="module")
def save_dir(tmp_path_factory, mono_engine):
    """A 4-shard save the pool tests share (read-only)."""
    directory = tmp_path_factory.mktemp("pool-index") / "index"
    mono_engine.save(directory, num_shards=NUM_SHARDS)
    return directory


@pytest.fixture()
def pool(save_dir):
    with ShardProcessPool(
        save_dir, ShardPoolConfig(request_timeout=REQUEST_TIMEOUT)
    ) as opened:
        yield opened


def assert_pool_parity(pool, queries, golden, top_k=TOP_K):
    want_epoch, want = golden
    got_epoch, got = pool.snapshot_rank_batch(queries, top_k=top_k)
    assert got_epoch == want_epoch
    assert len(got) == len(want)
    for got_results, want_results in zip(got, want):
        assert rankings_match(
            got_results,
            want_results,
            tol=PARITY_TOL,
            truncated=top_k is not None,
        ), (got_results[:3], want_results[:3])


def array_files(directory):
    """The file suffixes of a space's save directory."""
    return {path.suffix for path in directory.iterdir()}


class TestMmapStorageLayout:
    """The raw-``.npy`` save layout underneath the pool's zero-copy open."""

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "eager"])
    def test_save_round_trips_with_parity(
        self, small_cleaned, mono_engine, queries, tmp_path, mmap
    ):
        space = mono_engine.matrix_space
        space.save(tmp_path)
        assert array_files(tmp_path) == {".npy", ".json"}
        assert (tmp_path / "matrix_space.post_weights.npy").exists()

        loaded = SearchEngine(
            mono_engine.concept_model, MatrixConceptSpace.load(tmp_path, mmap=mmap)
        )
        oracle = DictLoopOracle.of_folksonomy(mono_engine.concept_model, small_cleaned)
        assert_matches_oracle(loaded, oracle, queries, top_k=TOP_K)

    def test_mmap_load_of_npz_layout_is_rejected(self, mono_engine, tmp_path):
        """A format-4 save (the last that could hold one compressed
        ``matrix_space.npz``) is refused by the version check."""
        mono_engine.matrix_space.save(tmp_path)
        stamp_old_npz_save(tmp_path)
        for mmap in (True, False):
            with pytest.raises(ConfigurationError, match="format version 4"):
                MatrixConceptSpace.load(tmp_path, mmap=mmap)

    def test_resave_swaps_layouts_without_leaving_stale_files(
        self, mono_engine, tmp_path
    ):
        space = mono_engine.matrix_space
        space.save(tmp_path)
        stamp_old_npz_save(tmp_path)
        space.save(tmp_path)  # a re-save drops the old layout's archive
        assert not (tmp_path / "matrix_space.npz").exists()
        assert array_files(tmp_path) == {".npy", ".json"}
        assert MatrixConceptSpace.load(tmp_path, mmap=True).num_documents == (
            space.num_documents
        )

    def test_sharded_save_writes_npy_in_every_shard(self, mono_engine, tmp_path):
        mono_engine.save(tmp_path, num_shards=2)
        for shard_id in range(2):
            assert array_files(tmp_path / f"shard-{shard_id:04d}") == {".npy", ".json"}
        shard = SearchEngine.load_shard(tmp_path, 0)
        assert shard.num_indexed_resources > 0


def stamp_old_npz_save(directory):
    """Turn a save into what format version 4 wrote by default: one
    ``matrix_space.npz`` archive and ``"storage": "npz"`` in the JSON."""
    arrays = {}
    for path in directory.glob("matrix_space.*.npy"):
        arrays[path.name.split(".")[1]] = np.load(path)
        path.unlink()
    np.savez_compressed(directory / "matrix_space.npz", **arrays)
    metadata_path = directory / METADATA_FILENAME
    metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    metadata.update(format_version=4, storage="npz")
    metadata_path.write_text(json.dumps(metadata), encoding="utf-8")


class TestPoolParity:
    """Parity at process-parallel fan-out: the tentpole's correctness half."""

    def test_mmap_pool_matches_monolithic_rankings(
        self, pool, queries, golden
    ):
        assert_pool_parity(pool, queries, golden)

    @pytest.mark.parametrize("num_shards", [None, 2])
    def test_plain_index_save_opens_under_the_pool(
        self, mono_engine, queries, golden, tmp_path, num_shards
    ):
        # Any saved index opens under the pool — including a plain
        # ``OfflineIndex.save(dir)`` of the engine.
        layout = {} if num_shards is None else {"num_shards": num_shards}
        OfflineIndex(mono_engine.concept_model, mono_engine, timings={}).save(
            tmp_path, **layout
        )
        with ShardProcessPool(tmp_path) as pool:
            assert pool.num_shards == (num_shards or 1)
            assert_pool_parity(pool, queries, golden)

    def test_read_surface_matches_the_in_process_engines(
        self, pool, mono_engine
    ):
        assert pool.epoch == mono_engine.epoch
        assert pool.num_indexed_resources == mono_engine.num_indexed_resources
        assert pool.num_shards == NUM_SHARDS
        assert pool.refresh() is False  # read-only: never anything to do
        epoch, results = pool.snapshot_rank_batch([], top_k=TOP_K)
        assert (epoch, results) == (pool.epoch, [])

    def test_single_query_and_degenerate_queries(self, pool, mono_engine):
        want = mono_engine.search(["no-such-tag"], top_k=TOP_K)
        assert pool.search(["no-such-tag"], top_k=TOP_K) == want == []
        assert pool.rank_batch([[]], top_k=TOP_K) == [[]]

    def test_bare_string_query_is_refused(self, pool):
        # list("folk") would be four one-letter tags that match nothing.
        with pytest.raises(ConfigurationError, match="bare string"):
            pool.snapshot_rank_batch(["folk"], top_k=TOP_K)
        with pytest.raises(ConfigurationError, match="bare string"):
            pool.search("folk", top_k=TOP_K)

    def test_two_shard_mmap_pool_fans_out_completely(
        self, mono_engine, queries, tmp_path
    ):
        asked = [query for query in queries if query]
        want = mono_engine.rank_batch(asked, top_k=TOP_K)
        mono_engine.save(tmp_path, num_shards=2)
        with ShardProcessPool(tmp_path) as pool:
            outcome = pool.rank_batch_detailed(asked, top_k=TOP_K)
            assert outcome.complete, outcome.failures
            assert mismatched_probes(outcome.results, want, truncated=True) == []
            assert min(pool.worker_load_seconds()) > 0.0

    def test_health_reports_every_worker_ready(self, pool):
        health = pool.health()
        assert health["num_shards"] == NUM_SHARDS
        assert health["degraded_reads"] == 0
        states = [worker["state"] for worker in health["workers"]]
        assert states == ["ready"] * NUM_SHARDS
        assert all(
            worker["load_seconds"] > 0.0 for worker in health["workers"]
        )


class TestWorkerFailures:
    """Kill/stall drills: typed degraded results, never hangs."""

    def test_killed_worker_mid_fanout_yields_typed_dead_failure(
        self, save_dir, queries
    ):
        config = ShardPoolConfig(request_timeout=30.0)
        with ShardProcessPool(save_dir, config) as pool:
            victim = pool._workers[1]
            # Stall the victim so the fan-out is genuinely in flight when
            # the kill lands, then fire the kill from a timer thread.
            pool.inject_stall(1, seconds=20.0)
            killer = threading.Timer(0.3, victim.process.kill)
            killer.start()
            started = time.perf_counter()
            outcome = pool.rank_batch_detailed(queries, top_k=TOP_K)
            elapsed = time.perf_counter() - started
            killer.cancel()
            assert elapsed < 15.0, "degraded read must not ride the stall"
            assert not outcome.complete
            kinds = {failure.shard_id: failure.kind for failure in outcome.failures}
            assert kinds == {1: "dead"}
            # The surviving shards still produced a merged (partial) ranking.
            assert len(outcome.results) == len(queries)
            assert 1 not in outcome.shard_epochs
            assert pool.health()["workers"][1]["state"] == "dead"

    def test_dead_worker_is_skipped_until_restarted_then_parity(
        self, save_dir, queries, golden
    ):
        config = ShardPoolConfig(request_timeout=REQUEST_TIMEOUT)
        with ShardProcessPool(save_dir, config) as pool:
            pool._workers[2].process.kill()
            pool._workers[2].process.join()
            outcome = pool.rank_batch_detailed(queries, top_k=TOP_K)
            assert [f.kind for f in outcome.failures] == ["dead"]
            # Subsequent reads skip the dead worker without re-probing it.
            outcome = pool.rank_batch_detailed(queries[:2], top_k=TOP_K)
            assert [f.kind for f in outcome.failures] == ["dead"]

            pool.restart_worker(2)
            assert_pool_parity(pool, queries, golden)
            health = pool.health()
            assert health["workers"][2]["state"] == "ready"
            assert health["workers"][2]["restarts"] == 1
            assert health["degraded_reads"] == 2

    def test_racing_degraded_reads_are_all_counted(self, save_dir, queries):
        readers, reads_each = 8, 40
        with ShardProcessPool(save_dir) as pool:
            pool._workers[0].process.kill()
            pool._workers[0].process.join()

            def read_repeatedly():
                for _ in range(reads_each):
                    pool.snapshot_rank_batch(queries[:1], top_k=TOP_K)

            threads = [
                threading.Thread(target=read_repeatedly) for _ in range(readers)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert pool.health()["degraded_reads"] == readers * reads_each

    def test_stalled_worker_times_out_then_revives_via_heartbeat(
        self, save_dir, queries
    ):
        config = ShardPoolConfig(
            request_timeout=0.5, heartbeat_timeout=0.2
        )
        with ShardProcessPool(save_dir, config) as pool:
            pool.inject_stall(0, seconds=2.0)
            outcome = pool.rank_batch_detailed(queries[:2], top_k=TOP_K)
            assert [f.kind for f in outcome.failures] == ["timeout"]
            assert pool.health()["workers"][0]["state"] == "stalled"

            # While stalled, reads fast-skip on the failed heartbeat
            # instead of burning the full request timeout again.
            outcome = pool.rank_batch_detailed(queries[:2], top_k=TOP_K)
            assert [f.kind for f in outcome.failures] == ["stalled"]

            time.sleep(2.2)  # let the stall clear
            outcome = pool.rank_batch_detailed(queries[:2], top_k=TOP_K)
            assert outcome.complete, outcome.failures
            assert pool.health()["workers"][0]["state"] == "ready"

    def test_strict_reads_raise_typed_degradation(self, save_dir, queries):
        config = ShardPoolConfig(
            request_timeout=REQUEST_TIMEOUT, strict_reads=True
        )
        with ShardProcessPool(save_dir, config) as pool:
            pool._workers[3].process.kill()
            pool._workers[3].process.join()
            with pytest.raises(ShardPoolDegraded) as excinfo:
                pool.snapshot_rank_batch(queries[:2], top_k=TOP_K)
            (failure,) = excinfo.value.failures
            assert (failure.shard_id, failure.kind) == (3, "dead")

    def test_closed_pool_rejects_reads(self, save_dir):
        pool = ShardProcessPool(save_dir)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ShardPoolError, match="closed"):
            pool.rank_batch_detailed([["a"]], top_k=TOP_K)

    def test_config_and_failure_type_validation(self, save_dir):
        with pytest.raises(ConfigurationError):
            ShardPoolConfig(request_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ShardPoolConfig(heartbeat_timeout=-1.0)
        with pytest.raises(ConfigurationError):
            ShardFailure(0, "mystery", "not a known kind")
        with ShardProcessPool(save_dir) as pool:
            with pytest.raises(ConfigurationError):
                pool.restart_worker(NUM_SHARDS)
            with pytest.raises(ConfigurationError):
                pool.inject_stall(-1, 1.0)


class TestFrontendOverPool:
    """BatchingFrontend sits in front of the pool unchanged (ISSUE 6)."""

    def test_submitted_queries_match_monolithic_rankings(
        self, pool, queries, golden
    ):
        want_epoch, want = golden
        with BatchingFrontend(pool, name="pool-fe") as frontend:
            futures = [
                frontend.submit(query, top_k=TOP_K) for query in queries
            ]
            for future, want_results in zip(futures, want):
                response = future.result(timeout=REQUEST_TIMEOUT)
                assert response.epoch == want_epoch
                assert rankings_match(
                    response.results,
                    want_results,
                    tol=PARITY_TOL,
                    truncated=True,
                )

    def test_frontend_owns_the_cache_and_reports_pool_health(
        self, pool, queries
    ):
        config = FrontendConfig(cache_entries=64)
        with BatchingFrontend(pool, config, name="pool-fe") as frontend:
            assert frontend.cache is not None
            query = next(q for q in queries if q)
            first = frontend.submit(query, top_k=TOP_K).result()
            second = frontend.submit(query, top_k=TOP_K).result()
            assert second.cached and not first.cached
            assert second.results == first.results
            stats = frontend.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["engine_health"]["num_shards"] == NUM_SHARDS


class TestReplayParityThroughPool:
    """The PR 4/5 invariants re-proven across process boundaries."""

    def test_pool_backed_concurrent_replay_holds_all_invariants(
        self, small_cleaned, mono_engine, save_dir
    ):
        trace = WorkloadGenerator(
            WorkloadConfig(
                num_operations=120,
                query_fraction=0.9,
                refresh_fraction=0.1,  # pool refresh() is a no-op
                seed=61,
            )
        ).generate(small_cleaned)
        assert trace.num_mutations == 0  # the pool is read-only
        report = check_replay_parity(
            lambda: mono_engine,
            trace,
            num_workers=NUM_WORKERS,
            concurrent_build_engine=lambda: ShardProcessPool(
                save_dir, ShardPoolConfig(request_timeout=REQUEST_TIMEOUT)
            ),
        )
        assert report.ok, report.summary()
        assert report.concurrent.errors == []
        assert report.concurrent.epoch_log.regressions() == []
        assert report.mismatched_probes == []

    def test_mutation_replayed_over_the_pool_is_a_typed_read_only_error(
        self, mono_engine, tmp_path
    ):
        mono_engine.save(tmp_path, num_shards=2)
        tag = mono_engine.concept_model.concepts[0].tags[0]
        trace = WorkloadTrace(
            operations=(
                Operation(0, QUERY, query_tags=(tag,), top_k=TOP_K),
                Operation(1, MUTATE, added={"new": {tag: 1.0}}, mutation_seq=0),
            ),
            eval_queries=(),
            config=WorkloadConfig(),
        )
        with ShardProcessPool(tmp_path) as pool:
            report = WorkloadRunner(pool, trace).run_serial()
        assert report.error_kinds == ["ConfigurationError"]
        assert "read-only" in report.errors[0]

    def test_handle_wrapped_pool_is_closed_by_the_harness(
        self, small_cleaned, mono_engine, tmp_path
    ):
        """The harness teardown is ``engine.close()``: a handle around a
        pool must pass it through, or the workers outlive the check."""
        mono_engine.save(tmp_path, num_shards=2)
        trace = WorkloadGenerator(
            WorkloadConfig(
                num_operations=40,
                query_fraction=1.0,
                refresh_fraction=0.0,
                seed=71,
            )
        ).generate(small_cleaned)
        pools = []  # held here so a worker can only die by being closed

        def build_concurrent():
            pools.append(
                ShardProcessPool(
                    tmp_path, ShardPoolConfig(request_timeout=REQUEST_TIMEOUT)
                )
            )
            return EngineHandle(pools[-1])

        try:
            report = check_replay_parity(
                lambda: mono_engine,
                trace,
                num_workers=2,
                concurrent_build_engine=build_concurrent,
            )
            assert report.ok, report.summary()
            (pool,) = pools
            assert len(pool._workers) == 2
            assert not any(w.process.is_alive() for w in pool._workers)
        finally:
            for pool in pools:
                pool.close()

    def test_pool_backed_replay_through_batching_frontend(
        self, small_cleaned, mono_engine, save_dir
    ):
        trace = WorkloadGenerator(
            WorkloadConfig(
                num_operations=80,
                query_fraction=1.0,
                refresh_fraction=0.0,
                seed=67,
            )
        ).generate(small_cleaned)
        report = check_replay_parity(
            lambda: mono_engine,
            trace,
            num_workers=NUM_WORKERS,
            frontend_config=FrontendConfig(),
            concurrent_build_engine=lambda: ShardProcessPool(
                save_dir, ShardPoolConfig(request_timeout=REQUEST_TIMEOUT)
            ),
        )
        assert report.ok, report.summary()
