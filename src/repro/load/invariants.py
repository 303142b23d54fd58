"""Replay invariants: what must hold after any replay of one trace.

The contract the serving layer's read/write discipline buys, stated as
four small checks over a serial golden replay and a concurrent stress
replay of the *same* trace on *equally built* engines:

1. **errors typed** — no operation of the golden may raise, and the
   concurrent side only with an explicitly allowed exception kind;
2. **state converged** — final epoch and resource count agree (the
   mutation gate makes the concurrent final state well-defined);
3. **epochs monotone** — no replay worker ever observed the index epoch
   run backwards through its epoch-consistent snapshot reads;
4. **probes match** — after both engines quiesce, the trace's fixed
   evaluation probes rank identically to 1e-9 (tie groups may permute)
   through the one comparator loop,
   :func:`~repro.search.vsm.mismatched_probes`.

:func:`check_replay_parity` is a replay step (build both engines, run
both replays) followed by those four checks.  The three incident checks
— :func:`check_flash_crowd`, :func:`check_multi_tenant` and
:func:`check_chaos` — reuse them on their own evidence and add the
incident's floor; like the four, each returns a list of violations,
empty when the invariant holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.load.runner import (
    GoldenReplay,
    ReplayPair,
    WorkloadReport,
    replay_pair,
)
from repro.load.scenarios import ChaosOutcome
from repro.load.workload import QUERY, WorkloadTrace
from repro.search.vsm import PARITY_TOL, mismatched_probes
from repro.utils.errors import ConfigurationError

#: Flash crowd: the share of admitted queries that must be absorbed by
#: in-flight coalescing or a cache hit, and the most that may be shed.
MIN_AMORTIZATION = 0.2
MAX_SHED_RATE = 0.5
#: Chaos: a whole faulted run that takes longer than this hung somewhere.
MAX_CHAOS_WALL_SECONDS = 120.0


# ---------------------------------------------------------------------- #
# The four checks
# ---------------------------------------------------------------------- #
def _error_violations(
    label: str, report: WorkloadReport, allowed: Sequence[str]
) -> List[str]:
    """Errors typed: every failure's exception kind must be allowed."""
    bad = [failure for failure in report.failures if failure[0] not in allowed]
    if not bad:
        return []
    kinds = sorted({kind for kind, _message in bad})
    return [
        f"{label} replay raised {len(bad)} error(s) of kinds {kinds} outside "
        f"the allowed {list(allowed)}; first: {bad[0][1].splitlines()[-1]}"
    ]


def _swap_violations(replay: ReplayPair) -> List[str]:
    """A requested hot swap must land: no exception, >= 1 generation."""
    if replay.swap_error is not None:
        return [f"swap-during-replay raised: {replay.swap_error!r}"]
    if replay.swapped and replay.generations_advanced < 1:
        return [
            "swap-during-replay completed without advancing the engine "
            "generation"
        ]
    return []


def _state_violations(replay: ReplayPair) -> List[str]:
    """State converged: equal resources, epochs equal up to landed swaps.

    Each hot swap stamps the incoming engine ``old epoch + 1``, so the
    concurrent side legitimately runs ahead of the golden by exactly
    ``generations_advanced``.
    """
    serial, swaps = replay.golden.report, replay.generations_advanced
    violations = [
        f"{what} epoch diverged: serial {want} + {swaps} swap(s) expects "
        f"{want + swaps} but concurrent reached {got}"
        for what, want, got in (
            ("final", serial.final_epoch, replay.final_epoch),
            ("quiesced", replay.golden.rankings[0], replay.rankings[0]),
        )
        if got != want + swaps
    ]
    if replay.concurrent.final_resources != serial.final_resources:
        violations.append(
            f"final resource count diverged: serial {serial.final_resources} "
            f"vs concurrent {replay.concurrent.final_resources}"
        )
    return violations


def _epoch_violations(report: WorkloadReport) -> List[str]:
    """Epochs monotone: no reader saw the index epoch run backwards."""
    regressions = report.epoch_log.regressions()
    if not regressions:
        return []
    reader, seen, then = regressions[0]
    return [
        f"epoch ran backwards for {reader}: observed {seen} then {then} "
        f"({len(regressions)} regression(s) total)"
    ]


def _probe_violations(
    mismatched: List[int], trace: WorkloadTrace, reference: str
) -> List[str]:
    """Probes match: ``mismatched_probes`` against ``reference`` is empty."""
    if not mismatched:
        return []
    first = mismatched[0]
    return [
        f"{len(mismatched)} of {len(trace.eval_queries)} evaluation probes "
        f"diverged from {reference} beyond {PARITY_TOL:g} (first: probe "
        f"{first}, query {trace.eval_queries[first]!r})"
    ]


# ---------------------------------------------------------------------- #
# The parity bar: the replay step judged by the four checks
# ---------------------------------------------------------------------- #
@dataclass
class ReplayParityReport:
    """Verdict of one serial-vs-concurrent replay comparison.

    ``mismatched_probes`` lists the probes that diverged from the
    reference — the serial golden's rankings, or in swap-during-replay
    mode (``generations_advanced`` counts the hot swaps that landed
    mid-replay) :func:`scratch_rankings` under the post-swap model.
    """

    serial: WorkloadReport
    concurrent: WorkloadReport
    violations: List[str]
    mismatched_probes: List[int]
    generations_advanced: int = 0
    #: The front-end's ``stats()`` snapshot taken right after the
    #: concurrent replay drained (None when no front-end was involved) —
    #: the evidence the incident checks read coalescing/cache/shed numbers
    #: from without keeping the front-end alive past the replay.
    frontend_stats: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        """Multi-line verdict + both replay summaries (CI artefact body)."""
        lines = [
            "replay parity: " + ("OK" if self.ok else "VIOLATED"),
        ]
        if self.generations_advanced:
            lines.append(
                f"  hot swaps landed mid-replay: {self.generations_advanced}"
            )
        lines.extend(f"  violation: {violation}" for violation in self.violations)
        lines.append("-- serial golden --")
        lines.append(self.serial.summary())
        lines.append(f"-- concurrent x{self.concurrent.num_workers} --")
        lines.append(self.concurrent.summary())
        return "\n".join(lines)


def check_replay_parity(
    build_engine: Callable[[], object],
    trace: WorkloadTrace,
    num_workers: int = 4,
    golden: Optional[GoldenReplay] = None,
    frontend_config: Optional[object] = None,
    concurrent_build_engine: Optional[Callable[[], object]] = None,
    swap_during_replay: Optional[Callable[[], object]] = None,
    allowed_error_kinds: Sequence[str] = (),
) -> ReplayParityReport:
    """Replay ``trace`` serially and concurrently; verify the invariants.

    ``build_engine`` must return a *freshly built, identically configured*
    engine on every call — each replay mutates its own instance, and both
    are closed before returning.  A caller that already holds the serial
    run (several worker counts judged against one golden) passes it as
    ``golden`` (see :func:`run_golden`).

    ``concurrent_build_engine`` swaps in a different factory for the
    *concurrent* side only — the pool-backed replay mode: the serial
    golden runs on the in-process engine while the stress replay drives
    e.g. a :class:`~repro.search.shardpool.ShardProcessPool` over the
    same saved index, re-proving the invariants across process
    boundaries.  The two factories must describe the same corpus at the
    same epoch; a read-only concurrent engine (the pool) additionally
    requires a query-only trace (``refresh_fraction`` may stay — the
    pool's ``refresh`` is a no-op — but mutations would raise).

    With ``frontend_config`` (a :class:`repro.serve.FrontendConfig`), the
    *concurrent* replay routes every query through a
    :class:`~repro.serve.frontend.BatchingFrontend` wrapped around the
    concurrent engine while the serial golden stays direct, so the same
    four checks are re-proven *through the front-end*.  The front-end
    is closed before the quiesced probes are ranked.

    ``swap_during_replay`` turns on **swap mode**: the callable (e.g. a
    bound :meth:`~repro.search.lifecycle.RefitCoordinator.refit`) runs on
    a side thread *while* the concurrent replay hammers the engine —
    which must then be a folksonomy-tracking
    :class:`~repro.search.lifecycle.EngineHandle` (pass it via
    ``concurrent_build_engine``).  The four checks are the same; swap
    mode only changes two of their inputs: the expected epoch becomes
    ``serial + generations advanced``, and the probes' reference becomes
    :func:`scratch_rankings` (the refit replaced the model the golden
    ranked under).  A swap callable that raises, or that completes
    without advancing the handle's generation, is itself a violation.

    ``allowed_error_kinds`` names exception classes (by ``__name__``)
    that the **concurrent** replay may raise without violating the
    errors-typed check — replays that deliberately shed load pass
    ``("Overloaded",)`` so a typed rejection is not confused with a
    wrong answer.  The serial golden must still be error-free.
    """
    if num_workers < 1:
        raise ConfigurationError(
            f"num_workers must be >= 1, got {num_workers}"
        )
    replay = replay_pair(
        build_engine,
        trace,
        num_workers,
        golden,
        frontend_config,
        concurrent_build_engine,
        swap_during_replay,
    )
    mismatched = mismatched_probes(
        replay.rankings[1],
        replay.reference,
        truncated=trace.config.top_k is not None,
    )
    reference = "the post-swap scratch rebuild" if replay.swapped else "the golden"
    violations = (
        _swap_violations(replay)
        + _error_violations("serial", replay.golden.report, ())
        + _error_violations("concurrent", replay.concurrent, allowed_error_kinds)
        + _state_violations(replay)
        + _epoch_violations(replay.concurrent)
        + _probe_violations(mismatched, trace, reference)
    )
    return ReplayParityReport(
        serial=replay.golden.report,
        concurrent=replay.concurrent,
        violations=violations,
        mismatched_probes=mismatched,
        generations_advanced=replay.generations_advanced,
        frontend_stats=replay.frontend_stats,
    )


# ---------------------------------------------------------------------- #
# Incident checks (beyond the parity bar); each returns its violations
# ---------------------------------------------------------------------- #
def check_flash_crowd(parity: ReplayParityReport) -> List[str]:
    """Flash crowd: dedup/cache amortization, bounded shed, right answers.

    The crowd's repeats must be *absorbed* — at least
    :data:`MIN_AMORTIZATION` of admitted queries resolved by in-flight
    coalescing or a cache hit rather than a fresh engine scoring — while
    any load shedding stays typed (``Overloaded`` only), under
    :data:`MAX_SHED_RATE`, and never corrupts an answer (the parity bar's
    probe check stands in for "zero wrong answers").
    """
    violations = parity.violations + _error_violations(
        "concurrent", parity.concurrent, ("Overloaded",)
    )
    stats = parity.frontend_stats
    if stats is None:
        return violations + [
            "a flash crowd needs the front-end replay path (pass "
            "frontend_config) to measure dedup amortization"
        ]
    counters = stats.get("counters", {})
    submitted = int(counters.get("submitted", 0))
    shed = int(counters.get("shed", 0))
    hits = int((stats.get("cache") or {}).get("hits", 0))
    amortization = (int(counters.get("coalesced", 0)) + hits) / max(submitted, 1)
    shed_rate = shed / max(submitted + shed, 1)
    if amortization < MIN_AMORTIZATION:
        violations.append(
            f"crowd repeats were not amortized: {amortization:.1%} of "
            f"{submitted} admitted queries coalesced or hit the cache "
            f"(floor {MIN_AMORTIZATION:.0%})"
        )
    if shed_rate > MAX_SHED_RATE:
        violations.append(
            f"shed rate {shed_rate:.1%} exceeds the {MAX_SHED_RATE:.0%} bound"
        )
    return violations


def check_multi_tenant(parity: ReplayParityReport, trace: WorkloadTrace) -> List[str]:
    """Multi-tenant: per-tenant books exist and partition the aggregate.

    Every tenant that sent queries in ``trace`` must have a query
    sub-histogram in the concurrent report, the per-tenant counts must
    sum to exactly the tenant-attributed query count (no double-counting
    into the aggregate), and — when the replay went through the
    front-end — the admission snapshot must break pending/shed out per
    tenant.
    """
    violations = list(parity.violations)
    children = parity.concurrent.tenant_latencies(QUERY)
    tenant_queries = [
        op.tenant for op in trace.operations if op.kind == QUERY and op.tenant
    ]
    expected = set(tenant_queries)
    missing = sorted(expected - set(children))
    if missing:
        violations.append(
            f"tenants {missing} sent queries but have no latency book"
        )
    labeled = sum(child.count for child in children.values())
    aggregate = parity.concurrent.latencies[QUERY].count
    if labeled != len(tenant_queries):
        violations.append(
            f"per-tenant books hold {labeled} samples but the trace "
            f"attributed {len(tenant_queries)} queries to tenants — the "
            "breakdown does not partition the traffic"
        )
    if labeled > aggregate:
        violations.append(
            f"per-tenant books hold {labeled} samples against an aggregate "
            f"of {aggregate} — children double-counted into the total"
        )
    if parity.frontend_stats is not None:
        tenant_stats = parity.frontend_stats.get("admission", {}).get("tenants", {})
        absent = sorted(expected - set(tenant_stats))
        if absent:
            violations.append(
                f"admission stats carry no per-tenant entries for {absent}"
            )
    return violations


def check_chaos(
    outcome: ChaosOutcome,
    golden_rankings: Tuple[int, List[list]],
    max_recovery_seconds: float = 10.0,
) -> List[str]:
    """Chaos: typed degradation only, bounded time, exact reconvergence.

    Every error the faulted replay surfaced must be a typed degraded
    response (``ShardPoolDegraded`` under strict reads, ``Overloaded``
    under admission pressure) — never an untyped failure, and never a
    hang: the whole run (:data:`MAX_CHAOS_WALL_SECONDS`) and the
    post-restore recovery are wall-bounded.  After the plan's restores,
    the quiesced pool must rank the trace's evaluation probes identically
    (1e-9) to the golden engine — the revived pool serves exactly what an
    unfaulted one would — and every worker must be ready.
    """
    report, trace = outcome.report, outcome.trace
    mismatched = mismatched_probes(
        outcome.post_rankings[1],
        golden_rankings[1],
        truncated=trace.config.top_k is not None,
    )
    violations = (
        _error_violations("chaos", report, ("ShardPoolDegraded", "Overloaded"))
        + _epoch_violations(report)
        + _probe_violations(mismatched, trace, "the golden after revival")
    )
    if outcome.recovery_seconds > max_recovery_seconds:
        violations.append(
            f"post-restore recovery took {outcome.recovery_seconds:.2f}s "
            f"(bound {max_recovery_seconds:g}s)"
        )
    if outcome.wall_seconds > MAX_CHAOS_WALL_SECONDS:
        violations.append(
            f"chaos run took {outcome.wall_seconds:.1f}s "
            f"(bound {MAX_CHAOS_WALL_SECONDS:g}s) — something hung"
        )
    unhealthy = [
        worker["shard_id"]
        for worker in outcome.health.get("workers", [])
        if worker.get("state") != "ready"
    ]
    if unhealthy:
        violations.append(
            f"shard(s) {unhealthy} not ready after the self-restoring plan"
        )
    return violations
