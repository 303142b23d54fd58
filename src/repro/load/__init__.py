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
  serially (the golden reference) or across N worker threads with
  mutations admitted in trace order, recording per-op-kind latency
  histograms (with per-tenant sub-books), throughput and an
  epoch-observation audit; :func:`run_golden` and
  :func:`scratch_rankings` produce the two parity references (the serial
  replay's quiesced probes, a from-scratch rebuild's);
* :mod:`repro.load.scenarios` — named, seeded production-shaped profiles
  (:data:`SCENARIO_NAMES`): flash crowds, diurnal arrival curves,
  multi-tenant skew, rebuild storms and a chaos profile whose
  :class:`FaultPlan` kills/stalls shard-pool workers at trace-scheduled
  points (:func:`run_chaos`);
* :mod:`repro.load.invariants` — :func:`check_replay_parity` (the parity
  bar as four small checks: errors typed, state converged, epochs
  monotone, probes match at 1e-9) plus per-scenario invariants via
  :func:`check_scenario` (dedup amortization, pacing fidelity, tenant
  partitioning, typed degraded modes and bounded chaos recovery).
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
    DEFAULT_TENANTS,
    FAULT_KILL,
    FAULT_KINDS,
    FAULT_RESTART,
    FAULT_STALL,
    SCENARIO_CHAOS,
    SCENARIO_DIURNAL,
    SCENARIO_FLASH_CROWD,
    SCENARIO_MULTI_TENANT,
    SCENARIO_NAMES,
    SCENARIO_REBUILD_STORM,
    ChaosOutcome,
    FaultAction,
    FaultPlan,
    ScenarioTrace,
    build_scenario,
    run_chaos,
)
from repro.load.invariants import (
    PARITY_TOL,
    ReplayParityReport,
    ScenarioVerdict,
    check_chaos,
    check_diurnal,
    check_flash_crowd,
    check_multi_tenant,
    check_rebuild_storm,
    check_replay_parity,
    check_scenario,
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
    "DEFAULT_TENANTS",
    "FAULT_KILL",
    "FAULT_KINDS",
    "FAULT_RESTART",
    "FAULT_STALL",
    "SCENARIO_CHAOS",
    "SCENARIO_DIURNAL",
    "SCENARIO_FLASH_CROWD",
    "SCENARIO_MULTI_TENANT",
    "SCENARIO_NAMES",
    "SCENARIO_REBUILD_STORM",
    "ChaosOutcome",
    "FaultAction",
    "FaultPlan",
    "ScenarioTrace",
    "build_scenario",
    "run_chaos",
    "PARITY_TOL",
    "ReplayParityReport",
    "ScenarioVerdict",
    "check_chaos",
    "check_diurnal",
    "check_flash_crowd",
    "check_multi_tenant",
    "check_rebuild_storm",
    "check_replay_parity",
    "check_scenario",
]
