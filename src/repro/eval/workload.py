"""Workload replay sweeps: throughput, scenarios, parity enforced.

:func:`workload_sweep` is to the workload subsystem what
:func:`repro.eval.shardpool.pool_sweep` is to the process pool: it replays
one deterministic trace serially (the golden reference, ``Workers == 0``) and
then concurrently at increasing worker counts, verifies every concurrent
run against the golden with :func:`repro.load.check_replay_parity`, and
returns rows for :func:`repro.eval.reporting.format_table` — throughput,
query latency quantiles and error counts per run.  A fast replay that
diverged from the golden raises instead of reporting.

:func:`scenario_sweep` runs the named production-shaped profiles from
:mod:`repro.load.scenarios` — flash crowd, diurnal pacing, multi-tenant
skew, rebuild storm, chaos fault injection — each under its *own*
invariant (:func:`repro.load.check_scenario`) on top of the parity bar,
and reports per-scenario latency, shed-rate and degradation columns.

Engines are one space per process; N shards appear only as a save layout
and a pool size — the chaos leg replays over a
:class:`~repro.search.shardpool.ShardProcessPool` of an N-shard save.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.load.invariants import (
    ScenarioVerdict,
    check_replay_parity,
    check_scenario,
)
from repro.load.runner import WorkloadReport, quiesced_rankings, run_golden
from repro.load.scenarios import (
    SCENARIO_CHAOS,
    SCENARIO_FLASH_CROWD,
    SCENARIO_MULTI_TENANT,
    SCENARIO_NAMES,
    build_scenario,
    run_chaos,
)
from repro.load.workload import QUERY, WorkloadTrace
from repro.serve.frontend import FrontendConfig
from repro.utils.errors import ConfigurationError


def _report_row(report: WorkloadReport) -> Dict[str, object]:
    queries = report.latencies[QUERY]
    return {
        "Workers": report.num_workers,
        "Mode": report.mode,
        "Seconds": round(report.wall_seconds, 6),
        "Ops/s": round(report.ops_per_second, 1),
        "Query p50": f"{queries.quantile(0.5) * 1e3:.2f}ms",
        "Query p99": f"{queries.quantile(0.99) * 1e3:.2f}ms",
        "Errors": len(report.errors),
    }


def workload_sweep(
    build_engine: Callable[[], object],
    trace: WorkloadTrace,
    worker_counts: Sequence[int] = (1, 2, 4),
    frontend_config=None,
) -> Tuple[List[Dict[str, object]], List[WorkloadReport]]:
    """Replay ``trace`` at each worker count; return table rows + reports.

    ``build_engine`` must produce a freshly built, identically configured
    engine per call (each replay mutates its own instance).  The serial
    golden runs once and every concurrent run is parity-checked against
    it — errors, state divergence, probe-ranking drift beyond 1e-9 or
    an epoch regression all raise :class:`ConfigurationError`.  Returned
    reports are ordered like the rows: golden first, then one per worker
    count.  ``frontend_config`` (a :class:`repro.serve.FrontendConfig`)
    routes every concurrent replay's queries through a micro-batching
    front-end — the serial golden stays direct — so the sweep proves the
    batching path against the same invariants.
    """
    if not worker_counts:
        raise ConfigurationError("workload_sweep needs >= 1 worker count")
    if any(count < 1 for count in worker_counts):
        raise ConfigurationError(
            f"worker counts must be >= 1, got {tuple(worker_counts)}"
        )

    golden = run_golden(build_engine, trace)
    rows = [_report_row(golden.report)]
    reports = [golden.report]
    for num_workers in worker_counts:
        verdict = check_replay_parity(
            build_engine,
            trace,
            num_workers=num_workers,
            golden=golden,
            frontend_config=frontend_config,
        )
        if not verdict.ok:
            raise ConfigurationError(
                f"{num_workers}-worker replay violated invariants:\n"
                + "\n".join(verdict.violations)
            )
        rows.append(_report_row(verdict.concurrent))
        reports.append(verdict.concurrent)
    return rows, reports


def _scenario_row(
    name: str, report: WorkloadReport, verdict: ScenarioVerdict
) -> Dict[str, object]:
    queries = report.latencies[QUERY]
    return {
        "Scenario": name,
        "Workers": report.num_workers,
        "Seconds": round(report.wall_seconds, 6),
        "Ops/s": round(report.ops_per_second, 1),
        "Query p50": f"{queries.quantile(0.5) * 1e3:.2f}ms",
        "Query p99": f"{queries.quantile(0.99) * 1e3:.2f}ms",
        "Shed rate": f"{verdict.details.get('shed_rate', 0.0):.1%}",
        "Degraded": int(verdict.details.get("degraded_errors", 0)),
        "Errors": len(report.errors),
    }


def scenario_sweep(
    build_engine: Callable[[], object],
    folksonomy,
    scenario_names: Sequence[str] = SCENARIO_NAMES,
    seed: int = 0,
    num_workers: int = 4,
    frontend_config=None,
    save_dir: Optional[str] = None,
    **scenario_kwargs,
) -> Tuple[List[Dict[str, object]], List[ScenarioVerdict]]:
    """Run each named scenario under its invariant; return rows + verdicts.

    Every scenario trace is built from one ``seed`` over ``folksonomy``
    (``scenario_kwargs`` forward to
    :func:`repro.load.scenarios.build_scenario`), replayed at
    ``num_workers``, and judged by :func:`repro.load.check_scenario` on
    top of the parity bar — any violation raises
    :class:`ConfigurationError` instead of reporting.  The flash-crowd
    and multi-tenant legs replay through the micro-batching front-end
    (``frontend_config`` or a default) because their invariants read the
    dedup/admission books; diurnal replays paced because its trace is
    stamped; chaos needs ``save_dir`` (an N-shard save) and
    is skipped with a raise if it is requested without one.  Rows are
    :func:`repro.eval.reporting.format_table`-ready: per-scenario wall
    time, throughput, query quantiles, shed rate and degraded-read
    counts.
    """
    if not scenario_names:
        raise ConfigurationError("scenario_sweep needs >= 1 scenario name")
    if num_workers < 1:
        raise ConfigurationError(
            f"num_workers must be >= 1, got {num_workers}"
        )
    rows: List[Dict[str, object]] = []
    verdicts: List[ScenarioVerdict] = []
    for name in scenario_names:
        scenario = build_scenario(
            name, folksonomy, seed=seed, **scenario_kwargs
        )
        if name == SCENARIO_CHAOS:
            if save_dir is None:
                raise ConfigurationError(
                    "the chaos scenario replays over a ShardProcessPool; "
                    "pass save_dir= (an N-shard save directory)"
                )
            with build_engine() as golden_engine:
                golden_rankings = quiesced_rankings(
                    golden_engine, scenario.trace
                )
            outcome = run_chaos(
                save_dir, scenario, num_workers=num_workers
            )
            verdict = check_scenario(
                scenario, chaos=outcome, golden_rankings=golden_rankings
            )
            report = outcome.report
        else:
            use_frontend = name in (
                SCENARIO_FLASH_CROWD,
                SCENARIO_MULTI_TENANT,
            )
            config = frontend_config
            if use_frontend and config is None:
                config = FrontendConfig()
            parity = check_replay_parity(
                build_engine,
                scenario.trace,
                num_workers=num_workers,
                frontend_config=config if use_frontend else None,
                allowed_error_kinds=("Overloaded",)
                if use_frontend
                else (),
            )
            verdict = check_scenario(scenario, parity=parity)
            report = parity.concurrent
        if not verdict.ok:
            raise ConfigurationError(
                f"scenario {name!r} violated its invariant:\n"
                + "\n".join(verdict.violations)
            )
        rows.append(_scenario_row(name, report, verdict))
        verdicts.append(verdict)
    return rows, verdicts
