"""Named workload scenarios: production-shaped traffic from one seed.

The base :class:`~repro.load.workload.WorkloadGenerator` emits one world:
a steady 90/10 Zipf mix.  This module grows it into a scenario engine —
five named, seeded profiles, each reproducing a production incident
shape (the pairing the operations runbook documents):

* ``flash_crowd`` — a sudden hot-key concentration: mid-trace, queries
  collapse onto a handful of crowd keys, the access pattern that makes
  or breaks in-flight dedup and the result cache;
* ``diurnal`` — the same mix, but arrivals follow a sinusoidal load
  curve via per-operation ``arrival_offset`` stamps, which the
  concurrent runner honours;
* ``multi_tenant`` — queries split across named tenants with skewed
  traffic shares and *per-tenant* Zipf heads, feeding per-tenant
  admission quotas and latency books;
* ``rebuild_storm`` — a write-heavy mutation burst (the shape that
  races a background refit);
* ``chaos`` — a query stream plus a deterministic :class:`FaultPlan`
  that kills and stalls shard-pool workers at trace-scheduled points,
  then restores them, executed by :func:`run_chaos`.

Everything stays reproducible: one ``(scenario, seed)`` pair yields one
byte-identical :class:`ScenarioTrace`, fault schedule included, so a
chaos run is as replayable as a parity probe.  The matching per-scenario
invariants live in :mod:`repro.load.invariants`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.load.runner import (
    WorkloadReport,
    WorkloadRunner,
    merge_workload_reports,
    quiesced_rankings,
)
from repro.load.workload import (
    QUERY,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
)
from repro.search.shardpool import ShardPoolConfig, ShardProcessPool
from repro.utils.errors import ConfigurationError

#: The named scenario profiles :func:`build_scenario` understands.
SCENARIO_FLASH_CROWD = "flash_crowd"
SCENARIO_DIURNAL = "diurnal"
SCENARIO_MULTI_TENANT = "multi_tenant"
SCENARIO_REBUILD_STORM = "rebuild_storm"
SCENARIO_CHAOS = "chaos"
SCENARIO_NAMES = (
    SCENARIO_FLASH_CROWD,
    SCENARIO_DIURNAL,
    SCENARIO_MULTI_TENANT,
    SCENARIO_REBUILD_STORM,
    SCENARIO_CHAOS,
)

#: Fault kinds a :class:`FaultAction` can schedule.
FAULT_KILL = "kill"
FAULT_STALL = "stall"
FAULT_RESTART = "restart"
FAULT_KINDS = (FAULT_KILL, FAULT_STALL, FAULT_RESTART)

#: Default tenants (name, traffic share) for the multi-tenant profile.
DEFAULT_TENANTS: Tuple[Tuple[str, float], ...] = (
    ("tenant-a", 0.6),
    ("tenant-b", 0.3),
    ("tenant-c", 0.1),
)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: *before* operation ``at_op`` is dispatched,
    do ``kind`` to shard ``shard_id`` (``seconds`` sizes a stall)."""

    at_op: int
    kind: str
    shard_id: int
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.at_op < 0:
            raise ConfigurationError(f"at_op must be >= 0, got {self.at_op}")
        if self.shard_id < 0:
            raise ConfigurationError(
                f"shard_id must be >= 0, got {self.shard_id}"
            )
        if self.kind == FAULT_STALL and not self.seconds > 0.0:
            raise ConfigurationError(
                f"a stall needs seconds > 0, got {self.seconds}"
            )

    def describe(self) -> str:
        detail = f" for {self.seconds:g}s" if self.kind == FAULT_STALL else ""
        return f"op {self.at_op}: {self.kind} shard {self.shard_id}{detail}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded fault schedule over one trace replay.

    Actions are sorted by ``at_op`` and the plan is **self-restoring**:
    every killed or stalled shard is followed by a later ``restart`` of
    the same shard, so a plan that executes to completion always leaves
    the pool fully healthy — the precondition for the chaos invariant's
    post-revival parity probe.
    """

    actions: Tuple[FaultAction, ...]
    num_shards: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        ops = [action.at_op for action in self.actions]
        if ops != sorted(ops):
            raise ConfigurationError("fault actions must be sorted by at_op")
        for action in self.actions:
            if action.shard_id >= self.num_shards:
                raise ConfigurationError(
                    f"fault targets shard {action.shard_id} but the plan "
                    f"covers {self.num_shards} shard(s)"
                )
        unrestored = self.unrestored_shards()
        if unrestored:
            raise ConfigurationError(
                "fault plan is not self-restoring: shard(s) "
                f"{sorted(unrestored)} end the plan killed/stalled without "
                "a later restart"
            )

    def unrestored_shards(self) -> List[int]:
        """Shards left faulted by the schedule (must be empty)."""
        faulted: set = set()
        for action in self.actions:
            if action.kind in (FAULT_KILL, FAULT_STALL):
                faulted.add(action.shard_id)
            else:
                faulted.discard(action.shard_id)
        return sorted(faulted)

    @property
    def faulted_shards(self) -> Tuple[int, ...]:
        """Every shard the plan touches with a kill or stall."""
        return tuple(
            sorted(
                {
                    action.shard_id
                    for action in self.actions
                    if action.kind in (FAULT_KILL, FAULT_STALL)
                }
            )
        )

    def describe(self) -> List[str]:
        return [action.describe() for action in self.actions]

    @classmethod
    def generate(
        cls,
        seed: int,
        num_shards: int,
        num_operations: int,
        num_faults: int = 2,
        stall_seconds: float = 1.5,
    ) -> "FaultPlan":
        """A seeded schedule: faults in the trace's middle half, each
        restored before the trace ends.

        Faults land in ``[n/4, 3n/4)`` so the replay is warm when they
        fire and has room to prove recovery after the restarts; the
        matching restart lands strictly later, before ``num_operations``.
        Per-shard windows never overlap — a shard's next fault is
        scheduled strictly after its previous restart, so every kill
        targets a live worker and every stall targets a serving one.
        When a shard runs out of room for another fault-plus-restart
        pair, that fault is dropped: ``num_faults`` is an upper bound,
        and the first fault always fits.
        """
        if num_operations < 8:
            raise ConfigurationError(
                f"need >= 8 operations to schedule faults, got "
                f"{num_operations}"
            )
        if num_faults < 1:
            raise ConfigurationError(
                f"num_faults must be >= 1, got {num_faults}"
            )
        rng = np.random.default_rng(seed)
        window_lo = num_operations // 4
        window_hi = max(window_lo + 1, (3 * num_operations) // 4)
        actions: List[FaultAction] = []
        # Spread faults over distinct shards first (a seeded permutation),
        # wrapping onto already-faulted shards only when num_faults
        # exceeds num_shards; free_after serializes each shard's windows.
        order = [int(shard) for shard in rng.permutation(num_shards)]
        free_after: Dict[int, int] = {}
        for index in range(num_faults):
            shard = order[index % num_shards]
            lo = max(window_lo, free_after.get(shard, window_lo - 1) + 1)
            if lo >= window_hi:
                continue  # this shard has no room left in the window
            at_op = int(rng.integers(lo, window_hi))
            if at_op + 1 >= num_operations:
                continue  # no room for the strictly-later restart
            kind = FAULT_KILL if rng.random() < 0.5 else FAULT_STALL
            actions.append(
                FaultAction(
                    at_op=at_op,
                    kind=kind,
                    shard_id=shard,
                    seconds=stall_seconds if kind == FAULT_STALL else 0.0,
                )
            )
            restart_at = int(rng.integers(at_op + 1, num_operations))
            actions.append(
                FaultAction(at_op=restart_at, kind=FAULT_RESTART, shard_id=shard)
            )
            free_after[shard] = restart_at
        # Python's sort is stable, so a restart scheduled at the same
        # at_op as a later fault keeps its relative order per shard.
        actions.sort(key=lambda action: action.at_op)
        return cls(actions=tuple(actions), num_shards=num_shards, seed=seed)


@dataclass(frozen=True)
class ScenarioTrace:
    """One built scenario: the trace plus its scenario-specific payload."""

    scenario: str
    trace: WorkloadTrace
    fault_plan: Optional[FaultPlan] = None
    tenants: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {SCENARIO_NAMES}"
            )


def build_scenario(
    name: str,
    folksonomy,
    seed: int = 0,
    num_operations: int = 160,
    num_shards: int = 4,
    top_k: Optional[int] = 10,
    crowd_keys: int = 2,
    crowd_fraction: float = 0.5,
    duration_seconds: float = 0.8,
    tenants: Sequence[Tuple[str, float]] = DEFAULT_TENANTS,
    num_faults: int = 2,
    stall_seconds: float = 1.5,
) -> ScenarioTrace:
    """Build one named scenario trace over ``folksonomy``.

    Deterministic: equal ``(name, seed, knobs)`` yield byte-identical
    traces (and fault schedules), exactly like the base generator.  The
    per-scenario knobs are ignored by the profiles that don't use them:
    ``crowd_keys``/``crowd_fraction`` shape the flash crowd,
    ``duration_seconds`` spans the diurnal curve, ``tenants`` names the
    multi-tenant split, and ``num_shards``/``num_faults``/
    ``stall_seconds`` feed the chaos :class:`FaultPlan`.
    """
    builders = {
        SCENARIO_FLASH_CROWD: _build_flash_crowd,
        SCENARIO_DIURNAL: _build_diurnal,
        SCENARIO_MULTI_TENANT: _build_multi_tenant,
        SCENARIO_REBUILD_STORM: _build_rebuild_storm,
        SCENARIO_CHAOS: _build_chaos,
    }
    if name not in builders:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}"
        )
    return builders[name](
        folksonomy,
        seed=seed,
        num_operations=num_operations,
        num_shards=num_shards,
        top_k=top_k,
        crowd_keys=crowd_keys,
        crowd_fraction=crowd_fraction,
        duration_seconds=duration_seconds,
        tenants=tenants,
        num_faults=num_faults,
        stall_seconds=stall_seconds,
    )


def _query_only_config(
    num_operations: int, seed: int, top_k: Optional[int]
) -> WorkloadConfig:
    """A mutation-free mix — the shape a read-only pool can replay."""
    return WorkloadConfig(
        num_operations=num_operations,
        query_fraction=0.98,
        refresh_fraction=0.02,
        seed=seed,
        top_k=top_k,
    )


def _build_flash_crowd(folksonomy, **kw) -> ScenarioTrace:
    """Mid-trace, queries collapse onto a handful of crowd keys.

    The trace is mutation-free so the profile also replays against the
    read-only process pool; the crowd window covers the middle
    ``crowd_fraction`` of the trace, inside which every query is one of
    ``crowd_keys`` fixed queries — the dedup/cache stress.
    """
    config = _query_only_config(kw["num_operations"], kw["seed"], kw["top_k"])
    base = WorkloadGenerator(config).generate(folksonomy)
    rng = np.random.default_rng(config.seed + 1)
    queries = [op for op in base.operations if op.kind == QUERY]
    if len(queries) < kw["crowd_keys"]:
        raise ConfigurationError(
            f"trace has {len(queries)} queries but the crowd needs "
            f"{kw['crowd_keys']} keys"
        )
    keys = [
        queries[int(i)].query_tags
        for i in rng.choice(len(queries), size=kw["crowd_keys"], replace=False)
    ]
    total = len(base.operations)
    span = int(total * kw["crowd_fraction"])
    window_lo = (total - span) // 2
    window_hi = window_lo + span
    operations = []
    for op in base.operations:
        if op.kind == QUERY and window_lo <= op.index < window_hi:
            op = replace(
                op, query_tags=keys[int(rng.integers(len(keys)))]
            )
        operations.append(op)
    trace = WorkloadTrace(
        operations=tuple(operations),
        eval_queries=base.eval_queries,
        config=config,
    )
    return ScenarioTrace(
        scenario=SCENARIO_FLASH_CROWD,
        trace=trace,
        description=(
            f"{kw['crowd_keys']} crowd keys over ops "
            f"[{window_lo}, {window_hi}) of {total}"
        ),
    )


def _build_diurnal(folksonomy, **kw) -> ScenarioTrace:
    """The steady mix with sinusoidal arrival pacing.

    Inter-arrival gaps follow the inverse of a one-cycle sinusoidal
    density (peak traffic mid-trace, troughs at the edges), normalised
    so the last arrival lands at ``duration_seconds`` — short enough
    for tests, shaped enough that a paced replay's wall time proves the
    curve was honoured.
    """
    config = WorkloadConfig(
        num_operations=kw["num_operations"], seed=kw["seed"], top_k=kw["top_k"]
    )
    base = WorkloadGenerator(config).generate(folksonomy)
    n = len(base.operations)
    phases = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    density = 1.0 + 0.8 * np.sin(phases - np.pi / 2.0)  # trough at t=0
    gaps = 1.0 / np.maximum(density, 0.2)
    offsets = np.concatenate(([0.0], np.cumsum(gaps)[:-1]))
    if offsets[-1] > 0.0:
        offsets = offsets * (kw["duration_seconds"] / offsets[-1])
    operations = tuple(
        replace(op, arrival_offset=float(offsets[i]))
        for i, op in enumerate(base.operations)
    )
    trace = WorkloadTrace(
        operations=operations, eval_queries=base.eval_queries, config=config
    )
    return ScenarioTrace(
        scenario=SCENARIO_DIURNAL,
        trace=trace,
        description=(
            f"sinusoidal arrivals over {kw['duration_seconds']:g}s "
            f"({n} ops)"
        ),
    )


def _build_multi_tenant(folksonomy, **kw) -> ScenarioTrace:
    """Queries attributed to tenants with skewed shares and skews.

    Each tenant draws from its *own* seeded Zipf head over the shared
    vocabulary, so tenants disagree about which tags are hot — the
    shape that makes per-tenant books and quotas meaningful.  Mutations
    and refreshes stay untenanted (they are operator traffic).
    """
    tenants = tuple(kw["tenants"])
    if not tenants:
        raise ConfigurationError("multi_tenant needs >= 1 tenant")
    shares = np.array([share for _, share in tenants], dtype=np.float64)
    if shares.min() <= 0.0:
        raise ConfigurationError("tenant shares must be positive")
    shares = shares / shares.sum()
    config = WorkloadConfig(
        num_operations=kw["num_operations"], seed=kw["seed"], top_k=kw["top_k"]
    )
    generator = WorkloadGenerator(config)
    base = generator.generate(folksonomy)
    tags = sorted(folksonomy.tags)
    rng = np.random.default_rng(config.seed + 2)
    tenant_rngs = [
        np.random.default_rng(config.seed * 31 + index + 7)
        for index in range(len(tenants))
    ]
    tenant_probs = [
        generator._zipf_probabilities(tenant_rng, len(tags))
        for tenant_rng in tenant_rngs
    ]
    operations = []
    for op in base.operations:
        if op.kind == QUERY:
            choice = int(rng.choice(len(tenants), p=shares))
            query = generator._fresh_query(
                tenant_rngs[choice], tags, tenant_probs[choice]
            )
            op = replace(op, tenant=tenants[choice][0], query_tags=query)
        operations.append(op)
    trace = WorkloadTrace(
        operations=tuple(operations),
        eval_queries=base.eval_queries,
        config=config,
    )
    return ScenarioTrace(
        scenario=SCENARIO_MULTI_TENANT,
        trace=trace,
        tenants=tuple(name for name, _ in tenants),
        description=(
            "tenant shares "
            + ", ".join(f"{name}={share:g}" for name, share in tenants)
        ),
    )


def _build_rebuild_storm(folksonomy, **kw) -> ScenarioTrace:
    """A write-heavy burst: ~60% mutations in large batches."""
    config = WorkloadConfig(
        num_operations=kw["num_operations"],
        query_fraction=0.35,
        refresh_fraction=0.05,
        max_mutation_batch=5,
        seed=kw["seed"],
        top_k=kw["top_k"],
    )
    trace = WorkloadGenerator(config).generate(folksonomy)
    return ScenarioTrace(
        scenario=SCENARIO_REBUILD_STORM,
        trace=trace,
        description=(
            f"{trace.num_mutations} mutation batches in {len(trace)} ops"
        ),
    )


def _build_chaos(folksonomy, **kw) -> ScenarioTrace:
    """A query stream plus the seeded worker-fault schedule."""
    config = _query_only_config(kw["num_operations"], kw["seed"], kw["top_k"])
    trace = WorkloadGenerator(config).generate(folksonomy)
    plan = FaultPlan.generate(
        seed=kw["seed"],
        num_shards=kw["num_shards"],
        num_operations=kw["num_operations"],
        num_faults=kw["num_faults"],
        stall_seconds=kw["stall_seconds"],
    )
    return ScenarioTrace(
        scenario=SCENARIO_CHAOS,
        trace=trace,
        fault_plan=plan,
        description="; ".join(plan.describe()),
    )


# ---------------------------------------------------------------------- #
# Chaos execution
# ---------------------------------------------------------------------- #
@dataclass
class ChaosOutcome:
    """What one chaos run did: the merged replay report, the fault log,
    recovery timing, the pool's final health and the post-revival
    quiesced probe rankings (the reconvergence evidence)."""

    scenario: ScenarioTrace
    report: WorkloadReport
    fault_log: List[str]
    recovery_seconds: float
    wall_seconds: float
    post_rankings: Tuple[int, List[list]]
    health: Dict[str, object] = field(default_factory=dict)


def run_chaos(
    save_dir,
    scenario: ScenarioTrace,
    num_workers: int = 4,
    request_timeout: float = 0.75,
    heartbeat_timeout: float = 0.25,
    recovery_timeout: float = 30.0,
) -> ChaosOutcome:
    """Replay a chaos scenario against a strict-reads process pool.

    The trace is split at each :class:`FaultAction`'s ``at_op``; every
    segment replays concurrently, the scheduled fault fires between
    segments, and the segment reports merge into one.  The pool runs
    with ``strict_reads=True`` so a degraded fan-out surfaces as a typed
    :class:`~repro.search.shardpool.ShardPoolDegraded` *error* in the
    report instead of a silently truncated ranking presented as
    complete — the property the chaos invariant asserts.

    ``recovery_seconds`` measures from just before the plan's final
    restoring action until the first fully-complete read afterwards
    (bounded by ``recovery_timeout``).  After the replay the pool
    quiesces and ranks the trace's evaluation probes — the caller
    compares them against a golden engine at 1e-9 via
    :func:`~repro.load.invariants.check_chaos`.
    """
    if scenario.scenario != SCENARIO_CHAOS:
        raise ConfigurationError(
            f"run_chaos needs a chaos scenario, got {scenario.scenario!r}"
        )
    plan = scenario.fault_plan
    if plan is None:
        raise ConfigurationError("chaos scenario carries no fault plan")
    if scenario.trace.num_mutations:
        raise ConfigurationError(
            "chaos traces must be mutation-free (the pool is read-only)"
        )

    pool = ShardProcessPool(
        save_dir,
        ShardPoolConfig(
            request_timeout=request_timeout,
            heartbeat_timeout=heartbeat_timeout,
            strict_reads=True,
        ),
    )
    if pool.num_shards != plan.num_shards:
        pool.close()
        raise ConfigurationError(
            f"fault plan covers {plan.num_shards} shard(s) but the save "
            f"has {pool.num_shards}"
        )
    try:
        started = time.perf_counter()
        reports: List[WorkloadReport] = []
        fault_log: List[str] = []
        recovery_started: Optional[float] = None
        operations = scenario.trace.operations
        cut = 0
        schedule = list(plan.actions) + [None]  # trailing segment
        last_restoring_index = max(
            (
                index
                for index, action in enumerate(plan.actions)
                if action.kind == FAULT_RESTART
            ),
            default=-1,
        )
        for index, action in enumerate(schedule):
            upto = len(operations) if action is None else action.at_op
            segment = operations[cut:upto]
            cut = upto
            if segment:
                sub_trace = WorkloadTrace(
                    operations=tuple(segment),
                    eval_queries=scenario.trace.eval_queries,
                    config=scenario.trace.config,
                )
                reports.append(
                    WorkloadRunner(pool, sub_trace).run_concurrent(num_workers)
                )
            if action is None:
                continue
            fault_log.append(action.describe())
            if action.kind == FAULT_KILL:
                pool.kill_worker(action.shard_id)
            elif action.kind == FAULT_STALL:
                pool.inject_stall(action.shard_id, action.seconds)
            else:
                if index == last_restoring_index:
                    recovery_started = time.perf_counter()
                pool.restart_worker(action.shard_id)

        # Recovery: first fully-complete read after the last restore.
        if recovery_started is None:
            recovery_started = time.perf_counter()
        probe = [list(query) for query in scenario.trace.eval_queries[:1]]
        deadline = recovery_started + recovery_timeout
        while True:
            try:
                outcome = pool.rank_batch_detailed(
                    probe, top_k=scenario.trace.config.top_k
                )
                if outcome.complete:
                    break
            except Exception:  # noqa: BLE001 - still degraded; keep probing
                pass
            if time.perf_counter() > deadline:
                break
            time.sleep(0.01)
        recovery_seconds = time.perf_counter() - recovery_started

        report = merge_workload_reports(reports, mode="chaos")
        post_rankings = quiesced_rankings(pool, scenario.trace)
        return ChaosOutcome(
            scenario=scenario,
            report=report,
            fault_log=fault_log,
            recovery_seconds=recovery_seconds,
            wall_seconds=time.perf_counter() - started,
            post_rankings=post_rankings,
            health=pool.health(),
        )
    finally:
        pool.close()
