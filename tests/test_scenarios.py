"""Incident traces + chaos suite: each trace under its own check.

Three incidents ride on top of the replay parity bar, each built by a
plain function of :mod:`repro.load.scenarios` and judged by a check of
:mod:`repro.load.invariants` that returns its violations: a flash crowd
(front-end dedup and cache absorb the repeats), multi-tenant traffic
(per-tenant admission and latency books partition the aggregate) and
chaos (a seeded :class:`FaultPlan` that kills and stalls shard-pool
workers mid-fan-out yields only *typed* degraded results in bounded time
and reconverges to 1e-9 probe parity after the plan's restores).  A
write-heavy storm config (~60% mutations) is replayed at 1 and N workers
and raced against a hot refit.  Around that bar this file covers
fault-plan generation and validation (including a hypothesis structural
property and a hypothesis zero-untyped-errors chaos property), trace
shapes and determinism, the :class:`LatencyHistogram` per-label books
(the no-double-counting rule), per-tenant admission quotas, and the
chaos × lifecycle regression: a worker killed *during* a background
refit must not stop the swap from landing.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import through_save
from repro.core.concepts import identity_concept_model
from repro.core.pipeline import CubeLSIPipeline
from repro.core.snapshots import IndexSnapshotStore
from repro.load import (
    MUTATE,
    QUERY,
    TENANTS,
    FaultAction,
    FaultPlan,
    LatencyHistogram,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadRunner,
    check_chaos,
    check_flash_crowd,
    check_multi_tenant,
    check_replay_parity,
    flash_crowd_trace,
    merge_workload_reports,
    multi_tenant_trace,
    query_only_trace,
    quiesced_rankings,
    run_chaos,
)
from repro.load.scenarios import FAULT_KILL, FAULT_RESTART, FAULT_STALL
from repro.search.engine import SearchEngine
from repro.search.lifecycle import EngineHandle, RefitCoordinator
from repro.search.shardpool import ShardPoolConfig, ShardProcessPool
from repro.search.vsm import rankings_match
from repro.serve.admission import AdmissionController, Overloaded
from repro.serve.frontend import FrontendConfig
from repro.utils.errors import ConfigurationError

#: Worker threads for the concurrent legs (the nightly stress job raises
#: it via WORKLOAD_WORKERS, matching tests/test_workload.py).
NUM_WORKERS = max(1, int(os.environ.get("WORKLOAD_WORKERS", "4")))

NUM_SHARDS = 4

#: Same fast Tucker fit the lifecycle suite uses for refit cycles.
PIPELINE_KWARGS = dict(
    reduction_ratios=(10.0, 3.0, 10.0), num_concepts=12, seed=0, min_rank=4
)

#: The chaos hypothesis property spawns a real 4-process pool per
#: example, so its example count is bounded explicitly (the thorough
#: profile gets a deeper seed search, dev/ci stay quick; the nightly
#: chaos step deepens further via the CHAOS_EXAMPLES env var).
CHAOS_EXAMPLES = int(
    os.environ.get(
        "CHAOS_EXAMPLES",
        "20" if os.environ.get("HYPOTHESIS_PROFILE") == "thorough" else "5",
    )
)


#: A write-heavy storm: ~60% mutations in batches of up to five.
STORM = dict(query_fraction=0.35, refresh_fraction=0.05, max_mutation_batch=5)

#: The incident traces by name; chaos replays the query-only trace.
TRACE_BUILDERS = {
    "flash_crowd": flash_crowd_trace,
    "multi_tenant": multi_tenant_trace,
    "chaos": query_only_trace,
}


def build_mono(folksonomy):
    return SearchEngine.build(
        folksonomy, identity_concept_model(folksonomy.tags), name="scen"
    )


def build_sharded(folksonomy, num_shards=2):
    """An engine restored from a ``num_shards``-shard save."""
    return through_save(build_mono(folksonomy), num_shards)


@pytest.fixture(scope="module")
def scenario_save_dir(tmp_path_factory, small_cleaned):
    """A 4-shard save the chaos runs replay against."""
    directory = tmp_path_factory.mktemp("scenario-index") / "index"
    build_mono(small_cleaned).save(directory, num_shards=NUM_SHARDS)
    return directory


# ---------------------------------------------------------------------- #
# Fault plans
# ---------------------------------------------------------------------- #
class TestFaultPlan:
    def test_generate_is_deterministic(self):
        first = FaultPlan.generate(seed=5, num_shards=4, num_operations=160)
        second = FaultPlan.generate(seed=5, num_shards=4, num_operations=160)
        assert first.actions == second.actions
        other = FaultPlan.generate(seed=6, num_shards=4, num_operations=160)
        assert first.actions != other.actions

    def test_validation(self):
        kill = FaultAction(at_op=10, kind=FAULT_KILL, shard_id=0)
        restart = FaultAction(at_op=20, kind=FAULT_RESTART, shard_id=0)
        plan = FaultPlan(actions=(kill, restart), num_shards=2)
        assert plan.unrestored_shards() == []
        assert plan.faulted_shards == (0,)
        assert "kill shard 0" in plan.describe()[0]
        with pytest.raises(ConfigurationError):  # not self-restoring
            FaultPlan(actions=(kill,), num_shards=2)
        with pytest.raises(ConfigurationError):  # unsorted at_ops
            FaultPlan(actions=(restart, kill), num_shards=2)
        with pytest.raises(ConfigurationError):  # shard out of bounds
            FaultPlan(actions=(kill, restart), num_shards=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(
                actions=(
                    FaultAction(at_op=1, kind=FAULT_KILL, shard_id=5),
                    FaultAction(at_op=2, kind=FAULT_RESTART, shard_id=5),
                ),
                num_shards=2,
            )
        with pytest.raises(ConfigurationError):  # a stall needs seconds
            FaultAction(at_op=1, kind=FAULT_STALL, shard_id=0, seconds=0.0)
        with pytest.raises(ConfigurationError):
            FaultAction(at_op=1, kind="explode", shard_id=0)
        with pytest.raises(ConfigurationError):  # trace too short
            FaultPlan.generate(seed=0, num_shards=2, num_operations=4)

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_shards=st.integers(min_value=1, max_value=6),
        num_operations=st.integers(min_value=8, max_value=400),
        num_faults=st.integers(min_value=1, max_value=4),
    )
    def test_generated_plans_are_well_formed(
        self, seed, num_shards, num_operations, num_faults
    ):
        """Every seeded plan is sorted, in-bounds, self-restoring and
        never faults a shard that is already down (kills target live
        workers by construction)."""
        plan = FaultPlan.generate(
            seed=seed,
            num_shards=num_shards,
            num_operations=num_operations,
            num_faults=num_faults,
        )
        assert plan.actions  # the first fault always fits
        at_ops = [action.at_op for action in plan.actions]
        assert at_ops == sorted(at_ops)
        assert plan.unrestored_shards() == []
        down: set = set()
        for action in plan.actions:
            assert 0 <= action.shard_id < num_shards
            assert 0 <= action.at_op < num_operations
            if action.kind == FAULT_STALL:
                assert action.seconds > 0.0
            if action.kind == FAULT_RESTART:
                assert action.shard_id in down
                down.discard(action.shard_id)
            else:
                assert action.shard_id not in down
                down.add(action.shard_id)


# ---------------------------------------------------------------------- #
# Scenario trace shapes
# ---------------------------------------------------------------------- #
class TestScenarioShapes:
    @pytest.mark.parametrize("name", sorted(TRACE_BUILDERS))
    def test_same_seed_same_scenario(self, small_cleaned, name):
        build = TRACE_BUILDERS[name]
        first = build(small_cleaned, seed=3)
        assert first.operations == build(small_cleaned, seed=3).operations
        assert first.operations != build(small_cleaned, seed=4).operations

    def test_flash_crowd_concentrates_the_window(self, small_cleaned):
        trace = flash_crowd_trace(small_cleaned, seed=1, num_operations=200)
        assert trace.num_mutations == 0  # pool-compatible
        total = len(trace.operations)
        window = range(total // 4, total // 4 + total // 2)
        crowd_queries = {
            op.query_tags
            for op in trace.operations
            if op.kind == QUERY and op.index in window
        }
        assert len(crowd_queries) <= 2
        outside = {
            op.query_tags
            for op in trace.operations
            if op.kind == QUERY and op.index not in window
        }
        assert len(outside) > 2  # the shoulders stay diverse

    def test_multi_tenant_attribution(self, small_cleaned):
        trace = multi_tenant_trace(small_cleaned, seed=5, num_operations=300)
        tenants = {name for name, _share in TENANTS}
        assert tenants == {"tenant-a", "tenant-b", "tenant-c"}
        counts: dict = {}
        for op in trace.operations:
            if op.kind == QUERY:
                assert op.tenant in tenants
                counts[op.tenant] = counts.get(op.tenant, 0) + 1
            else:
                assert op.tenant == ""  # operator traffic stays untenanted
        # the 60/30/10 split is visibly skewed at this sample size
        assert counts["tenant-a"] > counts["tenant-b"] > counts["tenant-c"]

    def test_rebuild_storm_is_write_heavy(self, small_cleaned):
        trace = WorkloadGenerator(
            WorkloadConfig(num_operations=200, seed=7, **STORM)
        ).generate(small_cleaned)
        assert trace.op_counts()[MUTATE] / len(trace) >= 0.4

    def test_chaos_carries_a_plan(self, small_cleaned):
        trace = query_only_trace(small_cleaned, seed=9)
        plan = FaultPlan.generate(seed=9, num_shards=4, num_operations=len(trace))
        assert plan.num_shards == 4
        assert trace.num_mutations == 0
        assert plan.describe()  # the fault schedule, human-readable


# ---------------------------------------------------------------------- #
# LatencyHistogram sub-books (the no-double-counting rule)
# ---------------------------------------------------------------------- #
class TestLatencyHistogramChildren:
    def test_labels_partition_the_aggregate(self):
        """A labelled sample counts once in the aggregate and once in its
        book, and merging per-worker histograms keeps the books a
        partition of the labelled share of the aggregate."""
        workers = []
        for offset in range(3):
            worker = LatencyHistogram()
            worker.record(1e-4 * (offset + 1), label="a")
            worker.record(1e-3, label="b")
            worker.record(1e-2)  # unlabelled
            workers.append(worker)
        assert workers[0].count == 3
        merged = LatencyHistogram()
        for worker in workers:
            merged.merge(worker)
        books = merged.children()
        assert merged.count == 9
        assert {name: book.count for name, book in books.items()} == {
            "a": 3,
            "b": 3,
        }
        assert sum(merged.bucket_counts()) == merged.count
        assert merged.total_seconds == pytest.approx(6e-4 + 3e-3 + 3e-2)
        assert books["a"].total_seconds == pytest.approx(6e-4)

    def test_merge_workload_reports(self, small_cleaned):
        trace = multi_tenant_trace(small_cleaned, seed=13, num_operations=60)
        half = len(trace.operations) // 2
        engine = build_mono(small_cleaned)
        reports = []
        for segment in (
            trace.operations[:half],
            trace.operations[half:],
        ):
            sub_trace = type(trace)(
                operations=tuple(segment),
                eval_queries=trace.eval_queries,
                config=trace.config,
            )
            reports.append(WorkloadRunner(engine, sub_trace).run_serial())
        merged = merge_workload_reports(reports, mode="merged")
        assert merged.mode == "merged"
        assert merged.total_operations == len(trace.operations)
        assert merged.wall_seconds == pytest.approx(
            sum(report.wall_seconds for report in reports)
        )
        assert merged.latencies[QUERY].count == trace.op_counts()[QUERY]
        # per-tenant books survive the merge as a partition
        children = merged.tenant_latencies(QUERY)
        tenant_ops = sum(
            1
            for op in trace.operations
            if op.kind == QUERY and op.tenant
        )
        assert sum(child.count for child in children.values()) == tenant_ops
        assert merged.errors == []
        assert merged.error_kinds == []
        assert len(merged.epoch_log) == sum(
            len(report.epoch_log) for report in reports
        )
        with pytest.raises(ConfigurationError):
            merge_workload_reports([])


# ---------------------------------------------------------------------- #
# Per-tenant admission
# ---------------------------------------------------------------------- #
class TestPerTenantAdmission:
    def test_tenant_quota_sheds_with_scope(self):
        controller = AdmissionController(max_pending=8, tenant_max_pending=2)
        controller.admit(tenant="a")
        controller.admit(tenant="a")
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(tenant="a")
        assert excinfo.value.scope == "tenant"
        assert excinfo.value.tenant == "a"
        assert excinfo.value.max_pending == 2
        # another tenant (and untagged traffic) is unaffected
        controller.admit(tenant="b")
        controller.admit()
        assert controller.pending == 4
        assert controller.shed == 1
        stats = controller.tenant_stats()
        assert stats["a"] == {"pending": 2, "shed": 1}
        assert stats["b"] == {"pending": 1, "shed": 0}
        controller.release(tenant="a")
        controller.admit(tenant="a")  # quota freed
        assert controller.tenant_stats()["a"]["pending"] == 2

    def test_global_limit_fires_first(self):
        controller = AdmissionController(max_pending=2, tenant_max_pending=5)
        controller.admit(tenant="a")
        controller.admit(tenant="b")
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(tenant="c")
        assert excinfo.value.scope == "global"
        assert controller.tenant_stats()["c"]["shed"] == 1

    def test_release_bookkeeping(self):
        controller = AdmissionController(max_pending=4, tenant_max_pending=2)
        controller.admit(tenant="a")
        with pytest.raises(ConfigurationError):  # over-release a tenant
            controller.release(count=2, tenant="a")
        assert controller.release(tenant="a") == 0
        with pytest.raises(ConfigurationError):
            AdmissionController(max_pending=4, tenant_max_pending=0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(tenant_max_pending=0)


# ---------------------------------------------------------------------- #
# Scenario acceptance: each profile, 1 and N workers, its own invariant
# ---------------------------------------------------------------------- #
ENGINES = ("mono", "sharded")
WORKER_COUNTS = sorted({1, NUM_WORKERS})


def builder_for(kind, folksonomy):
    if kind == "mono":
        return lambda: build_mono(folksonomy)
    return lambda: build_sharded(folksonomy, 2)


class TestScenarioAcceptance:
    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_flash_crowd(self, small_cleaned, engine, num_workers):
        trace = flash_crowd_trace(small_cleaned, seed=1, num_operations=120)
        parity = check_replay_parity(
            builder_for(engine, small_cleaned),
            trace,
            num_workers=num_workers,
            frontend_config=FrontendConfig(),
            allowed_error_kinds=("Overloaded",),
        )
        assert check_flash_crowd(parity) == []
        assert parity.mismatched_probes == []  # zero wrong answers

    def test_flash_crowd_over_process_pool(
        self, small_cleaned, scenario_save_dir
    ):
        """The read-only trace also holds across process boundaries."""
        parity = check_replay_parity(
            lambda: build_mono(small_cleaned),
            flash_crowd_trace(small_cleaned, seed=1, num_operations=120),
            num_workers=NUM_WORKERS,
            concurrent_build_engine=lambda: ShardProcessPool(
                scenario_save_dir, ShardPoolConfig(request_timeout=60.0)
            ),
            frontend_config=FrontendConfig(),
            allowed_error_kinds=("Overloaded",),
        )
        assert check_flash_crowd(parity) == []

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_tenant(self, small_cleaned, engine, num_workers):
        trace = multi_tenant_trace(small_cleaned, seed=5, num_operations=120)
        parity = check_replay_parity(
            builder_for(engine, small_cleaned),
            trace,
            num_workers=num_workers,
            frontend_config=FrontendConfig(tenant_max_pending=64),
            allowed_error_kinds=("Overloaded",),
        )
        assert check_multi_tenant(parity, trace) == []
        books = parity.concurrent.tenant_latencies(QUERY)
        assert set(books) == {name for name, _share in TENANTS}

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rebuild_storm(self, small_cleaned, engine, num_workers):
        trace = WorkloadGenerator(
            WorkloadConfig(num_operations=100, seed=7, **STORM)
        ).generate(small_cleaned)
        parity = check_replay_parity(
            builder_for(engine, small_cleaned),
            trace,
            num_workers=num_workers,
        )
        assert parity.ok, parity.summary()
        # every batch landed exactly once
        assert parity.concurrent.final_epoch == trace.num_mutations

    def test_rebuild_storm_racing_a_hot_refit(self, small_cleaned, tmp_path):
        """The storm's signature incident: a write burst during a refit."""
        trace = WorkloadGenerator(
            WorkloadConfig(num_operations=80, seed=7, **STORM)
        ).generate(small_cleaned)
        coordinator_box: dict = {}

        def build_concurrent():
            handle = EngineHandle(
                build_mono(small_cleaned), folksonomy=small_cleaned
            )
            coordinator_box["coordinator"] = RefitCoordinator(
                handle,
                IndexSnapshotStore(tmp_path / "storm"),
                pipeline_kwargs=PIPELINE_KWARGS,
                use_process=False,
            )
            return handle

        parity = check_replay_parity(
            lambda: build_mono(small_cleaned),
            trace,
            num_workers=NUM_WORKERS,
            concurrent_build_engine=build_concurrent,
            swap_during_replay=lambda: coordinator_box["coordinator"].refit(),
        )
        assert parity.ok, parity.summary()
        assert parity.generations_advanced >= 1
        assert parity.mismatched_probes == []


# ---------------------------------------------------------------------- #
# Chaos acceptance
# ---------------------------------------------------------------------- #
class TestChaosAcceptance:
    def test_typed_degradation_and_reconvergence(
        self, small_cleaned, scenario_save_dir
    ):
        """The chaos bar, enforced end to end."""
        trace = query_only_trace(small_cleaned, seed=0, num_operations=160)
        plan = FaultPlan.generate(
            seed=0,
            num_shards=NUM_SHARDS,
            num_operations=len(trace),
            stall_seconds=1.0,
        )
        golden_rankings = quiesced_rankings(build_mono(small_cleaned), trace)
        outcome = run_chaos(scenario_save_dir, trace, plan, num_workers=NUM_WORKERS)
        violations = check_chaos(outcome, golden_rankings, max_recovery_seconds=15.0)
        assert violations == []
        assert outcome.fault_log == plan.describe()
        # the faults genuinely fired: degraded reads were observed...
        assert outcome.report.errors
        # ...and every single one was typed (never silent, never bare)
        assert len(outcome.report.error_kinds) == len(outcome.report.errors)
        assert set(outcome.report.error_kinds) == {"ShardPoolDegraded"}
        # post-revival: every worker ready (probes are 1e-9-equal above)
        states = [
            worker["state"] for worker in outcome.health["workers"]
        ]
        assert states == ["ready"] * NUM_SHARDS

    def test_run_chaos_validation(self, small_cleaned, scenario_save_dir):
        trace = query_only_trace(small_cleaned)
        two_shard_plan = FaultPlan.generate(
            seed=0, num_shards=2, num_operations=len(trace)
        )
        with pytest.raises(ConfigurationError):  # the save has 4 shards
            run_chaos(scenario_save_dir, trace, two_shard_plan)
        writes = WorkloadGenerator(WorkloadConfig(num_operations=40)).generate(
            small_cleaned
        )
        plan = FaultPlan.generate(
            seed=0, num_shards=NUM_SHARDS, num_operations=len(writes)
        )
        with pytest.raises(ConfigurationError):  # the pool is read-only
            run_chaos(scenario_save_dir, writes, plan)

    @given(seed=st.integers(min_value=0, max_value=10**4))
    @settings(max_examples=CHAOS_EXAMPLES, deadline=None)
    def test_any_fault_plan_yields_only_typed_errors(
        self, small_cleaned, scenario_save_dir, seed
    ):
        """Hypothesis: whatever the seeded schedule, no untyped failure,
        no hang, and the self-restored pool reconverges exactly."""
        trace = query_only_trace(small_cleaned, seed=0, num_operations=60)
        plan = FaultPlan.generate(
            seed=seed,
            num_shards=NUM_SHARDS,
            num_operations=len(trace),
            stall_seconds=0.4,
        )
        outcome = run_chaos(
            scenario_save_dir,
            trace,
            plan,
            num_workers=2,
            request_timeout=0.3,
            heartbeat_timeout=0.15,
            recovery_timeout=20.0,
        )
        report = outcome.report
        assert len(report.error_kinds) == len(report.errors)
        assert set(report.error_kinds) <= {"ShardPoolDegraded"}
        assert outcome.wall_seconds < 60.0
        golden = build_mono(small_cleaned)
        _, want = quiesced_rankings(golden, trace)
        _, got = outcome.post_rankings
        for ours, theirs in zip(got, want):
            assert rankings_match(ours, theirs, tol=1e-9, truncated=True)


# ---------------------------------------------------------------------- #
# Chaos × lifecycle: kill a worker during a background refit
# ---------------------------------------------------------------------- #
class TestChaosDuringRefit:
    def test_worker_kill_during_background_refit(
        self, small_cleaned, tmp_path
    ):
        """A shard death mid-refit must not stop the blue/green swap:
        the refit lands, epochs stay monotone, and the degraded window
        never presents a partial read as complete."""
        store = IndexSnapshotStore(tmp_path)
        fitted = CubeLSIPipeline(**PIPELINE_KWARGS).fit(small_cleaned)
        first = store.publish(fitted, generation=1, num_shards=2)
        tags = sorted(small_cleaned.tags)
        probes = [[tag] for tag in tags[:5]]

        pool = ShardProcessPool(
            first, ShardPoolConfig(request_timeout=5.0)
        )
        handle = EngineHandle(
            pool, folksonomy=small_cleaned, generation=1
        )
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
            refit = coordinator.refit_in_background()
            pool.kill_worker(0)

            # Serving during the degraded window: the read returns, is
            # *flagged* incomplete, and carries a typed dead failure —
            # never a silent partial presented as complete.
            degraded = pool.rank_batch_detailed(probes, top_k=10)
            assert not degraded.complete
            assert degraded.failures
            assert {f.kind for f in degraded.failures} == {"dead"}

            result = refit.join(timeout=120.0)
            assert result.generation == 2
            assert handle.generation == 2
            assert handle.epoch == epoch_before + 1  # monotone, one swap
            assert isinstance(handle.engine, ShardProcessPool)
            assert handle.engine is not pool

            # The swapped-in pool serves complete, exact reads of the
            # refitted model.
            fresh = handle.engine.rank_batch_detailed(probes, top_k=10)
            assert fresh.complete and not fresh.failures
            scratch = SearchEngine.build(
                small_cleaned, store.load_current().concept_model
            )
            scratch.refresh()
            _, want = scratch.snapshot_rank_batch(probes, top_k=10)
            for ours, theirs in zip(fresh.results, want):
                assert rankings_match(
                    ours, theirs, tol=1e-9, truncated=True
                )
        finally:
            handle.close()
            pool.close()
