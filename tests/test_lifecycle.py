"""Lifecycle suite: journal, handle, generations, refits, hot swaps.

The acceptance bar (ISSUE 7): a full background Tucker refit must
complete — capture, fit in another process, journal catch-up, publish,
double-buffered swap — while a concurrent workload replay keeps mutating
and querying the same :class:`EngineHandle` through the batching
front-end, with zero errors, strictly monotone epochs, at least one
generation advanced, and 1e-9 post-swap parity against a scratch rebuild
of the final corpus under the post-swap concept model.  Around that bar
this file covers the :class:`DeltaJournal` (including a hypothesis
replay-parity property), folksonomy materialization of journaled bags,
the handle's pin/swap/drain discipline, the snapshot store's generation
layer, the front-end cache's epoch keys across a swap, the
refit-due/fold-in-due policy split, coordinator failure modes and pool
blue/green swaps.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline_module
import repro.search.lifecycle as lifecycle_module
from oracle import through_save
from repro.core.concepts import identity_concept_model
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.core.snapshots import IndexSnapshotStore
from repro.load import (
    WorkloadConfig,
    WorkloadGenerator,
    check_replay_parity,
    quiesced_rankings,
    scratch_rankings,
)
from repro.search.incremental import RefreshPolicy
from repro.search.lifecycle import (
    DeltaJournal,
    EngineHandle,
    RefitCoordinator,
    fold_mutations_into_folksonomy,
    replay_entries,
    synthesize_assignments,
)
from repro.search.engine import SearchEngine
from repro.search.shardpool import ShardProcessPool
from repro.search.vsm import RankEngine, mismatched_probes, rankings_match
from repro.serve.frontend import BatchingFrontend, FrontendConfig
from repro.utils.errors import ConfigurationError, NotFittedError

#: Worker threads for the swap-during-replay acceptance tests (the nightly
#: stress job raises it via WORKLOAD_WORKERS, same as tests/test_workload.py).
NUM_WORKERS = max(1, int(os.environ.get("WORKLOAD_WORKERS", "4")))

#: The small_cleaned corpus is ~137 resources; this fit takes ~0.2s.
PIPELINE_KWARGS = dict(
    reduction_ratios=(10.0, 3.0, 10.0), num_concepts=12, seed=0, min_rank=4
)


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


def probe_queries(folksonomy, singles=5):
    tags = sorted(folksonomy.tags)
    probes = [[tag] for tag in tags[:singles]]
    if len(tags) >= 2:
        probes.append([tags[0], tags[1]])
    return probes


def random_batches(folksonomy, seed, num_batches=6):
    """A deterministic stream of valid mutation batches over ``folksonomy``."""
    rng = np.random.default_rng(seed)
    tags = sorted(folksonomy.tags)
    live = set(folksonomy.resources)
    counter = 0
    batches = []

    def random_bag():
        size = int(rng.integers(1, min(3, len(tags)) + 1))
        chosen = rng.choice(len(tags), size=size, replace=False)
        return {tags[int(t)]: float(rng.integers(1, 4)) for t in chosen}

    for _ in range(num_batches):
        kind = int(rng.integers(0, 3))
        if kind == 0 or len(live) <= 3:
            added = {}
            for _ in range(int(rng.integers(1, 3))):
                name = f"doc-{counter:03d}"
                counter += 1
                added[name] = random_bag()
                live.add(name)
            batches.append(dict(added=added))
        elif kind == 1:
            resource = sorted(live)[int(rng.integers(0, len(live)))]
            batches.append(dict(updated={resource: random_bag()}))
        else:
            resource = sorted(live)[int(rng.integers(0, len(live)))]
            live.remove(resource)
            batches.append(dict(removed=[resource]))
    return batches


# ---------------------------------------------------------------------- #
# Stub engines for handle-protocol tests
# ---------------------------------------------------------------------- #
class _StubEngine(RankEngine):
    epoch = 0
    num_indexed_resources = 0
    closed = False

    def __init__(self, epoch=0):
        self.epoch = epoch

    def snapshot_rank_batch(self, queries, top_k=None):
        return self.epoch, [[] for _ in queries]

    def close(self):
        self.closed = True


class _FrozenEpochStub(_StubEngine):
    """An engine whose epoch is read-only (the process pool's shape)."""

    def __init__(self, epoch):
        self._epoch = epoch

    @property
    def epoch(self):
        return self._epoch


# ---------------------------------------------------------------------- #
# DeltaJournal
# ---------------------------------------------------------------------- #
class TestDeltaJournal:
    def test_sequences_are_absolute_and_ordered(self):
        journal = DeltaJournal()
        assert journal.mark() == 0
        assert journal.append(added={"a": {"t": 1.0}}) == 1
        assert journal.append(removed=["a"]) == 2
        assert journal.mark() == 2
        assert len(journal) == 2
        seqs = [entry.seq for entry in journal.entries_since(0)]
        assert seqs == [1, 2]
        assert [e.seq for e in journal.entries_since(1)] == [2]
        assert journal.entries_since(2) == []

    def test_truncate_keeps_absolute_sequences(self):
        journal = DeltaJournal()
        for i in range(4):
            journal.append(added={f"r{i}": {"t": 1.0}})
        assert journal.truncate_through(2) == 2
        assert [e.seq for e in journal.entries_since(0)] == [3, 4]
        # A fresh append continues the absolute numbering.
        assert journal.append(removed=["r0"]) == 5
        assert journal.truncate_through(99) == 3
        assert len(journal) == 0
        assert journal.mark() == 5

    def test_entries_are_deep_copied(self):
        journal = DeltaJournal()
        bag = {"t": 1.0}
        added = {"a": bag}
        journal.append(added=added)
        bag["t"] = 99.0
        added["b"] = {"x": 1.0}
        entry = journal.entries_since(0)[0]
        assert entry.added == {"a": {"t": 1.0}}

    def test_removed_deduplicated_in_order(self):
        journal = DeltaJournal()
        journal.append(removed=["b", "a", "b"])
        assert journal.entries_since(0)[0].removed == ("b", "a")

    def test_empty_batch_refused(self):
        journal = DeltaJournal()
        with pytest.raises(ConfigurationError):
            journal.append()
        with pytest.raises(ConfigurationError):
            journal.append(added={}, updated={}, removed=[])


# ---------------------------------------------------------------------- #
# Folksonomy materialization of journaled bags
# ---------------------------------------------------------------------- #
class TestFolksonomyFold:
    def test_synthesized_assignments_rebuild_the_bag(self):
        assignments = synthesize_assignments("r", {"jazz": 2.0, "rock": 1.0})
        by_tag = {}
        for assignment in assignments:
            assert assignment.resource == "r"
            assert assignment.user.startswith("jrnl-")
            by_tag.setdefault(assignment.tag, set()).add(assignment.user)
        assert {tag: len(users) for tag, users in by_tag.items()} == {
            "jazz": 2,
            "rock": 1,
        }

    @pytest.mark.parametrize("weight", [1.5, 0.0, -2.0, 0.9999])
    def test_non_integral_weights_refused(self, weight):
        with pytest.raises(ConfigurationError):
            synthesize_assignments("r", {"t": weight})

    def test_add_update_remove_round_trip(self, toy_folksonomy):
        tag = sorted(toy_folksonomy.tags)[0]
        folk = fold_mutations_into_folksonomy(
            toy_folksonomy, added={"doc-new": {tag: 2.0}}
        )
        assert folk.tag_bag("doc-new") == {tag: 2}
        other = sorted(toy_folksonomy.tags)[1]
        # An update replacing part of the bag exercises the overlap-cancel
        # path (some synthesized assignments are both removed and re-added).
        folk = fold_mutations_into_folksonomy(
            folk, updated={"doc-new": {tag: 2.0, other: 1.0}}
        )
        assert folk.tag_bag("doc-new") == {tag: 2, other: 1}
        folk = fold_mutations_into_folksonomy(folk, removed=["doc-new"])
        assert not folk.has_resource("doc-new")

    def test_noop_batch_returns_same_folksonomy(self, toy_folksonomy):
        assert fold_mutations_into_folksonomy(toy_folksonomy) is toy_folksonomy


class TestJournalReplayProperty:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_replay_equals_direct_apply_equals_scratch(
        self, toy_folksonomy, seed
    ):
        """The journal is a faithful replay medium and the folksonomy fold
        tracks it: direct apply == journal replay == scratch rebuild of the
        folded folksonomy, all under the same frozen model, at 1e-9."""
        batches = random_batches(toy_folksonomy, seed)
        probes = probe_queries(toy_folksonomy)

        direct = build_mono(toy_folksonomy)
        journal = DeltaJournal()
        folk = toy_folksonomy
        for batch in batches:
            direct.apply_mutations(**batch)
            journal.append(**batch)
            folk = fold_mutations_into_folksonomy(folk, **batch)

        replayed = build_mono(toy_folksonomy)
        assert replay_entries(replayed, journal.entries_since(0)) == len(batches)
        assert replayed.epoch == direct.epoch == len(batches)
        assert (
            replayed.num_indexed_resources
            == direct.num_indexed_resources
            == folk.num_resources
        )

        # Scratch oracle under the *original* frozen tag universe — a
        # removal may drop a tag from the folded folksonomy entirely.
        scratch = SearchEngine.build(
            folk, identity_concept_model(toy_folksonomy.tags), name="wl"
        )
        for engine in (direct, replayed, scratch):
            engine.refresh()
        _, want = direct.snapshot_rank_batch(probes)
        for engine in (replayed, scratch):
            _, got = engine.snapshot_rank_batch(probes)
            for ours, theirs in zip(got, want):
                assert rankings_match(ours, theirs, tol=1e-9)


# ---------------------------------------------------------------------- #
# The RankEngine protocol
# ---------------------------------------------------------------------- #
class TestRankEngineConformance:
    @pytest.fixture(
        params=[
            (kind, wrapped)
            for kind in ("mono", "sharded4", "pool2", "stub")
            for wrapped in (False, True)
        ],
        ids=lambda param: f"{'handle-' if param[1] else ''}{param[0]}",
    )
    def engine(self, request, small_cleaned, tmp_path):
        kind, wrapped = request.param
        if kind == "mono":
            built = build_mono(small_cleaned)
        elif kind == "sharded4":
            built = build_sharded(small_cleaned, 4)
        elif kind == "pool2":
            build_mono(small_cleaned).save(tmp_path, num_shards=2)
            built = ShardProcessPool(tmp_path)
        else:
            built = _StubEngine()
        built = EngineHandle(built) if wrapped else built
        yield built
        built.close()

    def test_every_engine_is_one_surface(self, engine, small_cleaned):
        assert isinstance(engine, RankEngine)
        assert not hasattr(engine, "cache")  # the front-end owns the cache
        query = [sorted(small_cleaned.tags)[0]]
        epoch, (snapshot,) = engine.snapshot_rank_batch([query], 5)
        assert engine.search(query, 5) == snapshot
        assert engine.rank_batch([query], 5) == [snapshot]
        assert epoch == engine.epoch == engine.health()["epoch"]
        closes = []
        close = engine.close
        engine.close = lambda: (closes.append(1), close())
        with engine as entered:
            assert entered is engine
        assert closes == [1]


# ---------------------------------------------------------------------- #
# EngineHandle
# ---------------------------------------------------------------------- #
class TestEngineHandle:
    def test_rejects_engines_without_the_read_surface(self):
        duck = types.SimpleNamespace(
            epoch=0, snapshot_rank_batch=lambda queries, top_k=None: (0, [])
        )
        for not_an_engine in (object(), duck):
            for consumer in (EngineHandle, BatchingFrontend):
                with pytest.raises(ConfigurationError, match="RankEngine"):
                    consumer(not_an_engine)

    def test_reads_delegate_to_the_current_engine(self, toy_folksonomy):
        engine = build_mono(toy_folksonomy)
        handle = EngineHandle(engine, folksonomy=toy_folksonomy)
        assert handle.generation == 0
        assert handle.epoch == engine.epoch
        assert handle.num_indexed_resources == engine.num_indexed_resources
        tag = sorted(toy_folksonomy.tags)[0]
        assert handle.has_resource(sorted(toy_folksonomy.resources)[0])
        direct = engine.search([tag], top_k=3)
        assert handle.search([tag], top_k=3) == direct
        health = handle.health()
        assert health["generation"] == 0
        assert health["journal_entries"] == 0
        assert health["staleness"]["epoch"] == engine.epoch

    def test_mutations_are_journaled_and_folded(self, toy_folksonomy):
        handle = EngineHandle(
            build_mono(toy_folksonomy), folksonomy=toy_folksonomy
        )
        tag = sorted(toy_folksonomy.tags)[0]
        handle.apply_mutations(added={"doc-j": {tag: 2.0}})
        assert len(handle.journal) == 1
        assert handle.epoch == 1
        assert handle.folksonomy.tag_bag("doc-j") == {tag: 2}
        # An all-empty batch is an engine no-op and must not enter the
        # replay stream (replaying it would raise).
        handle.apply_mutations(added={})
        assert len(handle.journal) == 1
        assert handle.epoch == 1

    def test_fractional_weights_refuse_folksonomy_tracking(self, toy_folksonomy):
        handle = EngineHandle(
            build_mono(toy_folksonomy), folksonomy=toy_folksonomy
        )
        tag = sorted(toy_folksonomy.tags)[0]
        with pytest.raises(ConfigurationError):
            handle.apply_mutations(added={"doc-f": {tag: 1.5}})

    def test_swap_stamps_epoch_and_closes_the_old_engine(self):
        old = _StubEngine(epoch=7)
        handle = EngineHandle(old)
        new = _StubEngine(epoch=0)
        report = handle.swap(new)
        assert report.generation == handle.generation == 1
        assert report.epoch == handle.epoch == 8
        assert report.drained
        assert old.closed
        assert not new.closed

    def test_cached_answer_never_crosses_a_swap(self, toy_folksonomy):
        """The swap flushes nothing: the epoch in the front-end's cache
        key is what keeps the old generation's answers from being served."""
        tags = sorted(toy_folksonomy.tags)[:1]
        handle = EngineHandle(build_mono(toy_folksonomy))
        with BatchingFrontend(handle) as frontend:
            first = frontend.submit(tags, top_k=5).result(timeout=10)
            warm = frontend.submit(tags, top_k=5).result(timeout=10)
            assert warm.cached and warm.epoch == first.epoch
            new = build_mono(toy_folksonomy)
            new.add_resources({"swapped-in": {tags[0]: 9.0}})
            want = new.search(tags, top_k=5)
            assert not rankings_match(want, first.results)
            handle.swap(new)
            after = frontend.submit(tags, top_k=5).result(timeout=10)
        assert after.epoch == first.epoch + 1
        assert after.cached is False
        assert rankings_match(after.results, want, tol=1e-9, truncated=True)

    def test_read_only_epoch_must_be_strictly_greater(self):
        handle = EngineHandle(_StubEngine(epoch=5))
        with pytest.raises(ConfigurationError):
            handle.swap(_FrozenEpochStub(epoch=5))
        report = handle.swap(_FrozenEpochStub(epoch=6))
        assert report.epoch == 6
        assert handle.generation == 1

    def test_pinned_reader_blocks_close_until_released(self):
        old = _StubEngine()
        handle = EngineHandle(old)
        pinned = threading.Event()
        release = threading.Event()

        def reader():
            with handle.pin() as generation:
                assert generation.engine is old
                pinned.set()
                assert release.wait(10.0)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert pinned.wait(10.0)

        reports = []
        swap_thread = threading.Thread(
            target=lambda: reports.append(handle.swap(_StubEngine()))
        )
        swap_thread.start()
        deadline = time.monotonic() + 10.0
        while handle.generation == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        # The new generation serves immediately; the pinned reader keeps
        # the old engine alive until it releases.
        assert handle.generation == 1
        assert not old.closed
        release.set()
        swap_thread.join(10.0)
        reader_thread.join(10.0)
        assert old.closed
        assert reports and reports[0].drained

    def test_drain_timeout_leaks_instead_of_closing_under_readers(self):
        old = _StubEngine()
        handle = EngineHandle(old)
        pinned = threading.Event()
        release = threading.Event()

        def reader():
            with handle.pin():
                pinned.set()
                assert release.wait(10.0)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert pinned.wait(10.0)
        report = handle.swap(_StubEngine(), drain_timeout=0.05)
        assert not report.drained
        assert not old.closed
        release.set()
        reader_thread.join(10.0)
        assert not old.closed  # leaked, never closed under the reader


# ---------------------------------------------------------------------- #
# Snapshot store generations
# ---------------------------------------------------------------------- #
class TestSnapshotStoreGenerations:
    def _index(self, folksonomy):
        engine = build_mono(folksonomy)
        return OfflineIndex(
            concept_model=engine.concept_model,
            engine=engine,
            timings={},
            folksonomy=folksonomy,
        )

    def test_publish_set_current_load_round_trip(self, toy_folksonomy, tmp_path):
        store = IndexSnapshotStore(tmp_path)
        assert store.current_generation() is None
        assert store.generations() == []
        with pytest.raises(NotFittedError):
            store.load_current()

        index = self._index(toy_folksonomy)
        first = store.publish(index)
        assert first.name == "gen-0001"
        assert store.current_generation() == 1
        assert store.latest_generation() == 1

        index.engine.apply_mutations(
            added={"doc-g": {sorted(toy_folksonomy.tags)[0]: 1.0}}
        )
        store.publish(index, make_current=False)
        assert store.generations() == [1, 2]
        assert store.current_generation() == 1
        store.set_current(2)
        assert store.current_generation() == 2
        loaded = store.load_current()
        assert loaded.engine.epoch == index.engine.epoch
        assert loaded.folksonomy is not None
        assert store.load_generation(1).engine.epoch == 0

    def test_generations_are_immutable(self, toy_folksonomy, tmp_path):
        store = IndexSnapshotStore(tmp_path)
        store.publish(self._index(toy_folksonomy), generation=3)
        with pytest.raises(ConfigurationError):
            store.publish(self._index(toy_folksonomy), generation=3)
        # The default generation continues past explicit ones.
        store.publish(self._index(toy_folksonomy))
        assert store.generations() == [3, 4]

    def test_publish_requires_a_folksonomy(self, toy_folksonomy, tmp_path):
        store = IndexSnapshotStore(tmp_path)
        engine = build_mono(toy_folksonomy)
        bare = OfflineIndex(
            concept_model=engine.concept_model, engine=engine, timings={}
        )
        with pytest.raises(ConfigurationError):
            store.publish(bare)

    def test_retire_refuses_current_and_gc_keeps_it(
        self, toy_folksonomy, tmp_path
    ):
        store = IndexSnapshotStore(tmp_path)
        for _ in range(3):
            store.publish(self._index(toy_folksonomy), make_current=False)
        store.set_current(1)
        with pytest.raises(ConfigurationError):
            store.retire_generation(1)
        with pytest.raises(NotFittedError):
            store.retire_generation(99)
        store.retire_generation(2)
        assert store.generations() == [1, 3]
        # GC keeps the newest keep_last *and* always the current pointer.
        store.publish(self._index(toy_folksonomy), make_current=False)
        dropped = store.gc_generations(keep_last=1)
        assert dropped == [3]
        assert store.generations() == [1, 4]
        assert store.current_generation() == 1


# ---------------------------------------------------------------------- #
# RefreshPolicy: refit-due vs fold-in-due
# ---------------------------------------------------------------------- #
class TestRefreshPolicySplit:
    def test_validation_and_verdicts(self):
        with pytest.raises(ConfigurationError):
            RefreshPolicy(max_delta_fraction=0.0)
        policy = RefreshPolicy(max_delta_fraction=0.5)
        assert not policy.refit_due(1, 10)
        assert policy.refit_due(5, 10)

    def test_engine_reports_both_verdicts_independently(self, toy_folksonomy):
        engine = SearchEngine.build(
            toy_folksonomy,
            identity_concept_model(toy_folksonomy.tags),
            refresh_policy=RefreshPolicy(max_delta_fraction=10.0),
        )
        tag = sorted(toy_folksonomy.tags)[0]
        engine.apply_mutations(added={"doc-p": {tag: 1.0}})
        report = engine.staleness()
        # One tiny batch: the cheap statistics refresh is due, the full
        # Tucker refit is nowhere near due.
        assert report.fold_in_due
        assert not report.refit_due
        assert report.as_dict()["fold_in_due"] is True
        assert "fold-in DUE" in report.summary()
        engine.refresh()
        after = engine.staleness()
        assert not after.fold_in_due
        assert "fold-in not due" in after.summary()
        health = engine.health()
        assert health["staleness"]["fold_in_due"] is False

    def test_sharded_engine_clears_fold_in_on_refresh(self, toy_folksonomy):
        engine = build_sharded(toy_folksonomy, 2)
        tag = sorted(toy_folksonomy.tags)[0]
        engine.apply_mutations(added={"doc-s": {tag: 1.0}})
        assert engine.staleness().fold_in_due
        engine.refresh()
        assert not engine.staleness().fold_in_due
        assert engine.is_mutable

    def test_policy_round_trips_through_save(self, toy_folksonomy, tmp_path):
        engine = SearchEngine.build(
            toy_folksonomy,
            identity_concept_model(toy_folksonomy.tags),
            refresh_policy=RefreshPolicy(max_delta_ops=3),
        )
        index = OfflineIndex(
            concept_model=engine.concept_model, engine=engine, timings={}
        )
        index.save(tmp_path / "idx")
        loaded = OfflineIndex.load(tmp_path / "idx")
        assert loaded.engine.refresh_policy.max_delta_ops == 3

    def test_frontend_surfaces_engine_health(self, toy_folksonomy):
        handle = EngineHandle(
            build_mono(toy_folksonomy), folksonomy=toy_folksonomy
        )
        with BatchingFrontend(handle) as front:
            tag = sorted(toy_folksonomy.tags)[0]
            front.query([tag], top_k=3)
            stats = front.stats()
        health = stats["engine_health"]
        assert health["generation"] == 0
        assert "fold_in_due" in health["staleness"]
        assert "refit_due" in health["staleness"]
        assert stats["engine_generation"] == 0


# ---------------------------------------------------------------------- #
# RefitCoordinator
# ---------------------------------------------------------------------- #
class TestRefitCoordinator:
    def _fitted_handle(self, folksonomy):
        fitted = CubeLSIPipeline(**PIPELINE_KWARGS).fit(folksonomy)
        return EngineHandle(fitted.engine, folksonomy=fitted.folksonomy)

    def test_requires_folksonomy_tracking(self, toy_folksonomy, tmp_path):
        handle = EngineHandle(build_mono(toy_folksonomy))
        with pytest.raises(ConfigurationError):
            RefitCoordinator(handle, IndexSnapshotStore(tmp_path))

    def test_in_thread_refit_cycle(self, small_cleaned, tmp_path):
        handle = self._fitted_handle(small_cleaned)
        store = IndexSnapshotStore(tmp_path)
        coordinator = RefitCoordinator(
            handle, store, pipeline_kwargs=PIPELINE_KWARGS, use_process=False
        )
        tag = sorted(small_cleaned.tags)[0]
        handle.apply_mutations(added={"doc-r1": {tag: 2.0}})
        handle.apply_mutations(added={"doc-r2": {tag: 1.0}})
        epoch_before = handle.epoch

        result = coordinator.refit()
        assert result.generation == handle.generation == 1
        assert result.epoch == handle.epoch == epoch_before + 1
        # Both batches landed *before* the capture, so they are inside
        # the fitted corpus — nothing left to replay.
        assert result.catchup_entries == 0
        assert result.tail_entries == 0
        assert len(handle.journal) == 0
        assert store.current_generation() == 1
        assert handle.has_resource("doc-r1")
        assert handle.folksonomy.has_resource("doc-r2")
        assert "generation 1" in result.summary()

        # Post-swap parity: fold-in + replay through the new model equals
        # a scratch rebuild of the final corpus under that model.
        trace = make_trace(small_cleaned)
        _, got = quiesced_rankings(handle, trace)
        want = scratch_rankings(handle, trace)
        assert mismatched_probes(got, want, truncated=True) == []

        # A second cycle advances again and GC keeps the last two.
        second = coordinator.refit()
        assert second.generation == 2
        assert store.generations() == [1, 2]
        third = coordinator.refit()
        assert third.generation == 3
        assert store.generations() == [2, 3]

    def test_cycle_writes_the_corpus_once_and_nothing_under_the_lock(
        self, small_cleaned, tmp_path, monkeypatch
    ):
        """The fit starts from the handle's folksonomy, not a saved copy:
        no index save runs while writers are fenced off, and the only
        assignment log written is the publish's."""
        handle = self._fitted_handle(small_cleaned)
        coordinator = RefitCoordinator(
            handle,
            IndexSnapshotStore(tmp_path),
            pipeline_kwargs=PIPELINE_KWARGS,
            use_process=False,
        )
        save = OfflineIndex.save

        def save_outside_the_lock(index, *args, **kwargs):
            assert not handle._write_lock.locked(), "saved under the write lock"
            return save(index, *args, **kwargs)

        write_tsv = pipeline_module.write_assignments_tsv
        tsv_writes = []

        def counting_write_tsv(*args, **kwargs):
            tsv_writes.append(args)
            return write_tsv(*args, **kwargs)

        monkeypatch.setattr(OfflineIndex, "save", save_outside_the_lock)
        monkeypatch.setattr(
            pipeline_module, "write_assignments_tsv", counting_write_tsv
        )
        result = coordinator.refit()
        assert result.generation == 1
        assert len(tsv_writes) == 1
        assert sorted(child.name for child in tmp_path.iterdir()) == [
            "CURRENT",
            "gen-0001",
        ]

    def test_spawned_worker_fits_the_pickled_corpus(
        self, small_cleaned, tmp_path, monkeypatch
    ):
        """Under spawn the captured folksonomy reaches the refit process
        through pickle rather than fork inheritance."""
        monkeypatch.setattr(
            lifecycle_module,
            "process_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        handle = self._fitted_handle(small_cleaned)
        coordinator = RefitCoordinator(
            handle,
            IndexSnapshotStore(tmp_path),
            pipeline_kwargs=PIPELINE_KWARGS,
            use_process=True,
        )
        tag = sorted(small_cleaned.tags)[0]
        handle.apply_mutations(added={"doc-spawn": {tag: 2.0}})
        result = coordinator.refit()
        assert result.generation == handle.generation == 1
        assert handle.has_resource("doc-spawn")

        trace = make_trace(small_cleaned)
        _, got = quiesced_rankings(handle, trace)
        want = scratch_rankings(handle, trace)
        assert mismatched_probes(got, want, truncated=True) == []

    def test_late_mutations_replayed_as_the_swap_tail(
        self, small_cleaned, tmp_path
    ):
        """A batch landing between publish and swap reaches the incoming
        engine through the prepare-step tail replay."""
        handle = self._fitted_handle(small_cleaned)
        tag = sorted(small_cleaned.tags)[0]

        def factory(index, directory):
            # Runs after publish, before the swap: the latest possible
            # moment a mutation can still sneak in.
            handle.apply_mutations(added={"doc-late": {tag: 1.0}})
            return index.engine

        coordinator = RefitCoordinator(
            handle,
            IndexSnapshotStore(tmp_path),
            pipeline_kwargs=PIPELINE_KWARGS,
            use_process=False,
            engine_factory=factory,
        )
        result = coordinator.refit()
        assert result.tail_entries == 1
        # The tail is *kept* in the journal: the published artefact was
        # written before it, so restart recovery (load published + replay
        # journal) still needs it.  Only the published prefix is truncated.
        assert len(handle.journal) == 1
        assert handle.has_resource("doc-late")
        assert handle.folksonomy.has_resource("doc-late")

        trace = make_trace(small_cleaned)
        _, got = quiesced_rankings(handle, trace)
        want = scratch_rankings(handle, trace)
        assert mismatched_probes(got, want, truncated=True) == []

    def test_published_folksonomy_is_the_handles(self, small_cleaned, tmp_path):
        """Batches applied while the fit runs are published through the
        handle's own folksonomy: with no write after publish, the store's
        current generation holds exactly the corpus the handle serves."""
        handle = self._fitted_handle(small_cleaned)
        store = IndexSnapshotStore(tmp_path)
        coordinator = RefitCoordinator(
            handle, store, pipeline_kwargs=PIPELINE_KWARGS, use_process=False
        )
        tag = sorted(small_cleaned.tags)[0]
        victim = sorted(small_cleaned.resources)[0]
        fit = coordinator._fit

        def fit_while_serving_writes(corpus):
            handle.apply_mutations(added={"doc-mid": {tag: 2.0}})
            handle.apply_mutations(removed=[victim])
            return fit(corpus)

        coordinator._fit = fit_while_serving_writes
        result = coordinator.refit()
        assert (result.catchup_entries, result.tail_entries) == (2, 0)
        published = store.load_current().folksonomy
        assert set(published.assignments) == set(handle.folksonomy.assignments)
        assert published.has_resource("doc-mid")
        assert not published.has_resource(victim)

    def test_metrics_exported_in_prometheus_text(self, small_cleaned, tmp_path):
        handle = self._fitted_handle(small_cleaned)
        coordinator = RefitCoordinator(
            handle,
            IndexSnapshotStore(tmp_path),
            pipeline_kwargs=PIPELINE_KWARGS,
            use_process=False,
        )
        result = coordinator.refit_in_background().join(timeout=120.0)
        assert result.generation == 1
        text = coordinator.metrics.export_text()
        for metric in (
            "repro_serve_lifecycle_refit_seconds",
            "repro_serve_lifecycle_fit_seconds",
            "repro_serve_lifecycle_swap_seconds",
            "repro_serve_lifecycle_drain_seconds",
            "repro_serve_refits_completed_total",
            "repro_serve_generation",
            "repro_serve_journal_entries",
        ):
            assert metric in text, metric

    def test_failed_fit_leaves_serving_untouched(self, small_cleaned, tmp_path):
        handle = self._fitted_handle(small_cleaned)
        store = IndexSnapshotStore(tmp_path)
        coordinator = RefitCoordinator(
            handle,
            store,
            pipeline_kwargs=dict(PIPELINE_KWARGS, num_concepts=0),
            use_process=False,
        )
        epoch_before = handle.epoch
        with pytest.raises(ConfigurationError):
            coordinator.refit()
        assert handle.generation == 0
        assert handle.epoch == epoch_before
        assert store.generations() == []
        # The handle still serves.
        probes = probe_queries(small_cleaned, singles=2)
        _, rankings = handle.snapshot_rank_batch(probes, top_k=5)
        assert len(rankings) == len(probes)


    def test_failed_factory_or_swap_retires_its_generation(
        self, small_cleaned, tmp_path
    ):
        """A cycle that fails after publish must not wedge the next one on
        "generation already published", nor leak the engine it built."""
        handle = self._fitted_handle(small_cleaned)
        store = IndexSnapshotStore(tmp_path)
        tag = sorted(small_cleaned.tags)[0]
        read_only = _FrozenEpochStub(epoch=10**6)

        def pool_fails_to_start(index, directory):
            raise RuntimeError("pool failed to start")

        def read_only_after_a_late_write(index, directory):
            handle.apply_mutations(added={"doc-late": {tag: 1.0}})
            return read_only

        factories = [pool_fails_to_start, read_only_after_a_late_write]

        def factory(index, directory):
            if factories:
                return factories.pop(0)(index, directory)
            return index.engine

        coordinator = RefitCoordinator(
            handle,
            store,
            pipeline_kwargs=PIPELINE_KWARGS,
            use_process=False,
            engine_factory=factory,
        )
        with pytest.raises(RuntimeError):
            coordinator.refit()
        assert store.generations() == []
        with pytest.raises(ConfigurationError):
            coordinator.refit()  # the swap refuses the read-only tail
        assert read_only.closed
        assert handle.generation == 0
        assert store.generations() == []
        result = coordinator.refit()
        assert result.generation == handle.generation == 1
        assert store.generations() == [1]
        assert handle.has_resource("doc-late")


# ---------------------------------------------------------------------- #
# Acceptance: background refit + hot swap under concurrent replay
# ---------------------------------------------------------------------- #
class TestSwapDuringReplayAcceptance:
    def test_refit_swap_under_concurrent_frontend_replay(
        self, small_cleaned, tmp_path
    ):
        """ISSUE 7's bar: a process-mode background refit lands mid-replay
        while >= 4 workers hammer a mutating 90/10 trace through the
        batching front-end — zero errors, monotone epochs, >= 1 generation
        advanced, 1e-9 post-swap scratch parity."""
        trace = make_trace(small_cleaned)
        coordinator_box = {}

        def build_concurrent():
            handle = EngineHandle(
                build_mono(small_cleaned), folksonomy=small_cleaned
            )
            coordinator_box["coordinator"] = RefitCoordinator(
                handle,
                IndexSnapshotStore(tmp_path / "mono"),
                pipeline_kwargs=PIPELINE_KWARGS,
                use_process=True,
            )
            return handle

        report = check_replay_parity(
            lambda: build_mono(small_cleaned),
            trace,
            num_workers=NUM_WORKERS,
            frontend_config=FrontendConfig(),
            concurrent_build_engine=build_concurrent,
            swap_during_replay=lambda: coordinator_box["coordinator"].refit(),
        )
        assert report.ok, report.summary()
        assert report.concurrent.errors == []
        assert report.generations_advanced >= 1
        assert report.mismatched_probes == []

        coordinator = coordinator_box["coordinator"]
        text = coordinator.metrics.export_text()
        assert "repro_serve_lifecycle_swap_seconds" in text
        assert "repro_serve_lifecycle_refit_seconds" in text
        assert coordinator.metrics.snapshot()["counters"]["refits_completed"] >= 1

    def test_refit_swap_over_sharded_engine_direct_reads(
        self, small_cleaned, tmp_path
    ):
        trace = make_trace(small_cleaned, num_operations=120, seed=7)

        coordinator_box = {}

        def build_concurrent():
            handle = EngineHandle(
                build_sharded(small_cleaned, 2), folksonomy=small_cleaned
            )
            coordinator_box["coordinator"] = RefitCoordinator(
                handle,
                IndexSnapshotStore(tmp_path / "sharded"),
                pipeline_kwargs=PIPELINE_KWARGS,
                use_process=False,
            )
            return handle

        report = check_replay_parity(
            lambda: build_mono(small_cleaned),
            trace,
            num_workers=NUM_WORKERS,
            concurrent_build_engine=build_concurrent,
            swap_during_replay=lambda: coordinator_box["coordinator"].refit(),
        )
        assert report.ok, report.summary()
        assert report.generations_advanced >= 1


# ---------------------------------------------------------------------- #
# Pool blue/green: factory-built read-only generations
# ---------------------------------------------------------------------- #
class TestPoolBlueGreen:
    def test_refit_swaps_in_a_fresh_process_pool(self, small_cleaned, tmp_path):
        store = IndexSnapshotStore(tmp_path)
        fitted = CubeLSIPipeline(**PIPELINE_KWARGS).fit(small_cleaned)
        first = store.publish(fitted, generation=1, num_shards=2)
        probes = probe_queries(small_cleaned)

        pool = ShardProcessPool(first)
        handle = EngineHandle(pool, folksonomy=small_cleaned, generation=1)
        try:
            coordinator = RefitCoordinator(
                handle,
                store,
                pipeline_kwargs=PIPELINE_KWARGS,
                use_process=False,
                engine_factory=lambda index, directory: ShardProcessPool(
                    directory
                ),
                publish_kwargs=dict(num_shards=2),
            )
            epoch_before = handle.epoch
            result = coordinator.refit()
            assert result.generation == handle.generation == 2
            assert handle.epoch == epoch_before + 1
            assert isinstance(handle.engine, ShardProcessPool)
            assert handle.engine is not pool
            assert store.current_generation() == 2
            assert store.generations() == [1, 2]

            # The new pool serves the refitted model: parity against a
            # scratch engine under the published generation's model.
            _, got = handle.snapshot_rank_batch(probes, top_k=10)
            current = store.load_current()
            scratch = SearchEngine.build(
                small_cleaned, current.concept_model
            )
            scratch.refresh()
            _, want = scratch.snapshot_rank_batch(probes, top_k=10)
            for ours, theirs in zip(got, want):
                assert rankings_match(ours, theirs, tol=1e-9, truncated=True)
        finally:
            handle.close()
