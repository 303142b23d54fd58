"""Workload simulation and deterministic replay for the serving stack.

Everything the repo's parity suites check is serial and hand-enumerated;
this package drives the serving engines the way production would —
sustained mixed read/write traffic from many concurrent clients — while
keeping every run reproducible from one seed:

* :mod:`repro.load.workload` — seeded :class:`WorkloadGenerator` emitting
  mixed traces (Zipf-skewed queries, cache-hot repeats, add/update/remove
  batches, refresh ticks) that are valid by construction when replayed in
  order;
* :mod:`repro.load.runner` — :class:`WorkloadRunner` replaying a trace
  serially (the golden reference) or closed-loop across N worker threads
  with mutations admitted in trace order, recording per-op-kind latency
  histograms (with per-tenant sub-books), throughput and an
  epoch-observation audit; :func:`run_golden` and
  :func:`scratch_rankings` produce the two parity references (the serial
  replay's quiesced probes, a from-scratch rebuild's);
* :mod:`repro.load.scenarios` — plain functions that reshape the steady
  mix into incident traces (:func:`flash_crowd_trace`,
  :func:`multi_tenant_trace`, and :func:`query_only_trace` under a seeded
  :class:`FaultPlan` that kills/stalls shard-pool workers at
  trace-scheduled points, replayed by :func:`run_chaos`);
* :mod:`repro.load.invariants` — :func:`check_replay_parity` (the parity
  bar as four small checks: errors typed, state converged, epochs
  monotone, probes match at 1e-9) plus one check per incident —
  :func:`check_flash_crowd` (dedup amortization, bounded shed),
  :func:`check_multi_tenant` (tenant books partition the aggregate) and
  :func:`check_chaos` (typed degradation, bounded recovery, 1e-9
  reconvergence) — each returning its list of violations.
"""

from repro.load.workload import (
    MUTATE,
    QUERY,
    REFRESH,
    Operation,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
)
from repro.load.runner import (
    GoldenReplay,
    WorkloadReport,
    WorkloadRunner,
    merge_workload_reports,
    quiesced_rankings,
    run_golden,
    scratch_rankings,
)
from repro.load.scenarios import (
    FAULT_KILL,
    FAULT_KINDS,
    FAULT_RESTART,
    FAULT_STALL,
    TENANTS,
    ChaosOutcome,
    FaultAction,
    FaultPlan,
    flash_crowd_trace,
    multi_tenant_trace,
    query_only_trace,
    run_chaos,
)
from repro.load.invariants import (
    PARITY_TOL,
    ReplayParityReport,
    check_chaos,
    check_flash_crowd,
    check_multi_tenant,
    check_replay_parity,
)
from repro.utils.metrics import LatencyHistogram

__all__ = [
    "MUTATE",
    "QUERY",
    "REFRESH",
    "Operation",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadTrace",
    "LatencyHistogram",
    "WorkloadReport",
    "WorkloadRunner",
    "merge_workload_reports",
    "quiesced_rankings",
    "GoldenReplay",
    "run_golden",
    "scratch_rankings",
    "FAULT_KILL",
    "FAULT_KINDS",
    "FAULT_RESTART",
    "FAULT_STALL",
    "TENANTS",
    "ChaosOutcome",
    "FaultAction",
    "FaultPlan",
    "flash_crowd_trace",
    "multi_tenant_trace",
    "query_only_trace",
    "run_chaos",
    "PARITY_TOL",
    "ReplayParityReport",
    "check_chaos",
    "check_flash_crowd",
    "check_multi_tenant",
    "check_replay_parity",
]
