"""Incident traces for the load harness: flash crowd, tenants, chaos.

The base :class:`~repro.load.workload.WorkloadGenerator` emits one world:
a steady 90/10 Zipf mix.  This module reshapes it into the traces that
rehearse three production incidents, each judged by its own check in
:mod:`repro.load.invariants` on top of the replay parity bar:

* :func:`flash_crowd_trace` — a sudden hot-key concentration: mid-trace,
  queries collapse onto a handful of crowd keys, the access pattern that
  makes or breaks in-flight dedup and the result cache;
* :func:`multi_tenant_trace` — queries split across :data:`TENANTS` with
  skewed traffic shares and *per-tenant* Zipf heads, feeding per-tenant
  admission quotas and latency books;
* chaos — :func:`query_only_trace` plus a seeded :class:`FaultPlan` that
  kills and stalls shard-pool workers at trace-scheduled points, then
  restores them, executed by :func:`run_chaos`.

Every builder is a plain function of ``(folksonomy, seed,
num_operations)`` returning a :class:`~repro.load.workload.WorkloadTrace`:
equal arguments yield byte-identical traces, and equal
:meth:`FaultPlan.generate` arguments equal schedules, so a chaos run is
as replayable as a parity probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

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

#: Fault kinds a :class:`FaultAction` can schedule.
FAULT_KILL = "kill"
FAULT_STALL = "stall"
FAULT_RESTART = "restart"
FAULT_KINDS = (FAULT_KILL, FAULT_STALL, FAULT_RESTART)

#: Tenants (name, traffic share) of :func:`multi_tenant_trace`.
TENANTS: Tuple[Tuple[str, float], ...] = (
    ("tenant-a", 0.6),
    ("tenant-b", 0.3),
    ("tenant-c", 0.1),
)

#: Flash crowd: the middle half of the trace collapses onto two queries.
CROWD_KEYS = 2
CROWD_FRACTION = 0.5


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


def query_only_trace(
    folksonomy, seed: int = 0, num_operations: int = 160
) -> WorkloadTrace:
    """A mutation-free 98/2 query/refresh mix: the shape a read-only pool
    can replay, and the chaos trace a :class:`FaultPlan` is laid over."""
    config = WorkloadConfig(
        num_operations=num_operations,
        query_fraction=0.98,
        refresh_fraction=0.02,
        seed=seed,
    )
    return WorkloadGenerator(config).generate(folksonomy)


def flash_crowd_trace(
    folksonomy, seed: int = 0, num_operations: int = 160
) -> WorkloadTrace:
    """Mid-trace, queries collapse onto a handful of crowd keys.

    The trace is :func:`query_only_trace`, so it also replays against the
    read-only process pool; inside the middle :data:`CROWD_FRACTION` of it
    every query is one of :data:`CROWD_KEYS` fixed queries — the
    dedup/cache stress.
    """
    base = query_only_trace(folksonomy, seed, num_operations)
    rng = np.random.default_rng(seed + 1)
    queries = [op for op in base.operations if op.kind == QUERY]
    if len(queries) < CROWD_KEYS:
        raise ConfigurationError(
            f"trace has {len(queries)} queries but the crowd needs "
            f"{CROWD_KEYS} keys"
        )
    keys = [
        queries[int(i)].query_tags
        for i in rng.choice(len(queries), size=CROWD_KEYS, replace=False)
    ]
    total = len(base.operations)
    span = int(total * CROWD_FRACTION)
    window_lo = (total - span) // 2
    window_hi = window_lo + span
    operations = []
    for op in base.operations:
        if op.kind == QUERY and window_lo <= op.index < window_hi:
            op = replace(op, query_tags=keys[int(rng.integers(len(keys)))])
        operations.append(op)
    return replace(base, operations=tuple(operations))


def multi_tenant_trace(
    folksonomy, seed: int = 0, num_operations: int = 160
) -> WorkloadTrace:
    """The steady mix with every query attributed to one of :data:`TENANTS`.

    Each tenant draws from its *own* seeded Zipf head over the shared
    vocabulary, so tenants disagree about which tags are hot — the
    shape that makes per-tenant books and quotas meaningful.  Mutations
    and refreshes stay untenanted (they are operator traffic).
    """
    shares = np.array([share for _, share in TENANTS], dtype=np.float64)
    shares = shares / shares.sum()
    generator = WorkloadGenerator(
        WorkloadConfig(num_operations=num_operations, seed=seed)
    )
    base = generator.generate(folksonomy)
    tags = sorted(folksonomy.tags)
    rng = np.random.default_rng(seed + 2)
    tenant_rngs = [
        np.random.default_rng(seed * 31 + index + 7)
        for index in range(len(TENANTS))
    ]
    tenant_probs = [
        generator._zipf_probabilities(tenant_rng, len(tags))
        for tenant_rng in tenant_rngs
    ]
    operations = []
    for op in base.operations:
        if op.kind == QUERY:
            choice = int(rng.choice(len(TENANTS), p=shares))
            query = generator._fresh_query(
                tenant_rngs[choice], tags, tenant_probs[choice]
            )
            op = replace(op, tenant=TENANTS[choice][0], query_tags=query)
        operations.append(op)
    return replace(base, operations=tuple(operations))


# ---------------------------------------------------------------------- #
# Chaos execution
# ---------------------------------------------------------------------- #
@dataclass
class ChaosOutcome:
    """What one chaos run did: the replayed trace, the merged replay
    report, the fault log, recovery timing, the pool's final health and
    the post-revival quiesced probe rankings (the reconvergence evidence)."""

    trace: WorkloadTrace
    report: WorkloadReport
    fault_log: List[str]
    recovery_seconds: float
    wall_seconds: float
    post_rankings: Tuple[int, List[list]]
    health: Dict[str, object] = field(default_factory=dict)


def run_chaos(
    save_dir,
    trace: WorkloadTrace,
    plan: FaultPlan,
    num_workers: int = 4,
    request_timeout: float = 0.75,
    heartbeat_timeout: float = 0.25,
    recovery_timeout: float = 30.0,
) -> ChaosOutcome:
    """Replay ``trace`` against a strict-reads process pool under ``plan``.

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
    if trace.num_mutations:
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
        operations = trace.operations
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
                sub_trace = replace(trace, operations=tuple(segment))
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
        probe = [list(query) for query in trace.eval_queries[:1]]
        deadline = recovery_started + recovery_timeout
        while True:
            try:
                outcome = pool.rank_batch_detailed(probe, top_k=trace.config.top_k)
                if outcome.complete:
                    break
            except Exception:  # noqa: BLE001 - still degraded; keep probing
                pass
            if time.perf_counter() > deadline:
                break
            time.sleep(0.01)
        recovery_seconds = time.perf_counter() - recovery_started

        report = merge_workload_reports(reports, mode="chaos")
        post_rankings = quiesced_rankings(pool, trace)
        return ChaosOutcome(
            trace=trace,
            report=report,
            fault_log=fault_log,
            recovery_seconds=recovery_seconds,
            wall_seconds=time.perf_counter() - started,
            post_rankings=post_rankings,
            health=pool.health(),
        )
    finally:
        pool.close()
