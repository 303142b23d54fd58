"""Trace replay: serial golden runs and concurrent stress runs.

:class:`WorkloadRunner` replays a :class:`~repro.load.workload.WorkloadTrace`
against a serving engine (any :class:`~repro.search.vsm.RankEngine`):

* **serially** — one thread, trace order; the replay every other run is
  judged against;
* **concurrently** — N worker threads pull operations from a shared
  cursor.  Queries execute wherever they land; mutation batches pass
  through an ordering gate that admits them strictly in ``mutation_seq``
  order, so the final index state is *defined* to equal the serial
  replay's (queries interleave freely in between — that interleaving is
  the stress).

Both replays are closed-loop: an operation is dispatched as soon as a
worker is free, never held back to a scheduled arrival time.

Every operation is timed into a per-kind :class:`LatencyHistogram`
(log-spaced buckets, mergeable across workers without locks), every query
goes through the engine's epoch-consistent ``snapshot_rank_batch`` and
feeds an :class:`~repro.search.incremental.EpochObservationLog`, and every
worker exception is captured — a :class:`WorkloadReport` then carries
throughput, latency quantiles, the epoch audit and the error list back to
the invariant checker.
"""

from __future__ import annotations

import threading
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.load.workload import MUTATE, QUERY, REFRESH, Operation, WorkloadTrace
from repro.search.engine import SearchEngine
from repro.search.incremental import EpochObservationLog
from repro.search.vsm import RankEngine
from repro.serve.frontend import BatchingFrontend
from repro.utils.errors import ConfigurationError
from repro.utils.metrics import LatencyHistogram
from repro.utils.timing import format_duration


@dataclass
class WorkloadReport:
    """What one replay did: timing, latency, epoch audit, errors."""

    mode: str
    num_workers: int
    wall_seconds: float
    op_counts: Dict[str, int]
    latencies: Dict[str, LatencyHistogram]
    #: One ``(exception class name, message)`` entry per failed operation
    #: — the typed-failure ledger the incident checks assert over (e.g. a
    #: chaos replay may only ever see ShardPoolDegraded/Overloaded kinds
    #: here, never a bare RuntimeError).
    failures: List[Tuple[str, str]]
    epoch_log: EpochObservationLog
    final_epoch: int
    final_resources: int
    quiesce_seconds: float = 0.0

    @property
    def errors(self) -> List[str]:
        """The failure messages, in recording order."""
        return [message for _kind, message in self.failures]

    @property
    def error_kinds(self) -> List[str]:
        """The failures' exception class names, parallel to :attr:`errors`."""
        return [kind for kind, _message in self.failures]

    @property
    def total_operations(self) -> int:
        return sum(self.op_counts.values())

    @property
    def ops_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_operations / self.wall_seconds

    def summary(self) -> str:
        """Multi-line human-readable report (the CI latency artefact)."""
        lines = [
            f"replay mode={self.mode} workers={self.num_workers}: "
            f"{self.total_operations} ops in "
            f"{format_duration(self.wall_seconds)} "
            f"({self.ops_per_second:,.0f} ops/s), "
            f"quiesce {format_duration(self.quiesce_seconds)}",
            f"final state: epoch={self.final_epoch} "
            f"resources={self.final_resources} "
            f"errors={len(self.errors)}",
        ]
        for kind in sorted(self.latencies):
            lines.append(f"  {kind:<8s} {self.latencies[kind].summary()}")
        regressions = self.epoch_log.regressions()
        lines.append(
            f"  epochs   {len(self.epoch_log)} observations, "
            f"max={self.epoch_log.max_epoch}, "
            f"regressions={len(regressions)}"
        )
        for error in self.errors[:3]:
            lines.append(f"  error: {error.splitlines()[-1]}")
        return "\n".join(lines)

    def tenant_latencies(self, kind: str) -> Dict[str, LatencyHistogram]:
        """Per-label sub-histograms of one op kind (per-tenant books)."""
        histogram = self.latencies.get(kind)
        return histogram.children() if histogram is not None else {}


def merge_workload_reports(
    reports: Sequence[WorkloadReport], mode: str = "merged"
) -> WorkloadReport:
    """Fold several replay reports into one (the chaos-segment merge).

    Wall times and op counts add, error lists (and their typed kinds)
    concatenate in order, per-kind latency histograms merge with their
    labelled children intact, and the epoch observations replay into one
    combined audit log.  Final state comes from the *last* report — the
    segments are one trace replayed in order, so the last segment's
    quiesced state is the run's.
    """
    if not reports:
        raise ConfigurationError("cannot merge zero workload reports")
    latencies: Dict[str, LatencyHistogram] = {}
    op_counts: Dict[str, int] = {}
    failures: List[Tuple[str, str]] = []
    epoch_log = EpochObservationLog()
    wall = 0.0
    for report in reports:
        wall += report.wall_seconds
        for kind, count in report.op_counts.items():
            op_counts[kind] = op_counts.get(kind, 0) + count
        for kind, histogram in report.latencies.items():
            latencies.setdefault(kind, LatencyHistogram()).merge(histogram)
        failures.extend(report.failures)
        for reader, epoch in report.epoch_log.observations():
            epoch_log.record(reader, epoch)
    last = reports[-1]
    return WorkloadReport(
        mode=mode,
        num_workers=max(report.num_workers for report in reports),
        wall_seconds=wall,
        op_counts=op_counts,
        latencies=latencies,
        failures=failures,
        epoch_log=epoch_log,
        final_epoch=last.final_epoch,
        final_resources=last.final_resources,
        quiesce_seconds=last.quiesce_seconds,
    )


class _MutationGate:
    """Admits mutation batches strictly in ``mutation_seq`` order."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._completed = 0

    def await_turn(self, seq: int) -> None:
        with self._cond:
            while self._completed < seq:
                self._cond.wait()

    def complete(self) -> None:
        with self._cond:
            self._completed += 1
            self._cond.notify_all()


class _SharedCursor:
    """Hands trace operations to workers exactly once, in trace order."""

    def __init__(self, operations) -> None:
        self._operations = operations
        self._next = 0
        self._lock = threading.Lock()

    def next_op(self) -> Optional[Operation]:
        with self._lock:
            if self._next >= len(self._operations):
                return None
            op = self._operations[self._next]
            self._next += 1
            return op


class WorkloadRunner:
    """Replays one trace against one engine, serially or concurrently."""

    def __init__(self, engine: RankEngine, trace: WorkloadTrace) -> None:
        self.engine = engine
        self.trace = trace

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def run_serial(self) -> WorkloadReport:
        """Replay the trace on the calling thread, in trace order.

        This is the golden reference: with mutations ordered and queries
        deterministic, two serial replays of one trace on equal engines
        are byte-identical.
        """
        epoch_log = EpochObservationLog()
        failures: List[Tuple[str, str]] = []
        latencies = self._empty_latencies()
        started = time.perf_counter()
        for op in self.trace.operations:
            self._execute(op, "serial", latencies, epoch_log, failures)
        wall = time.perf_counter() - started
        return self._finish("serial", 0, wall, latencies, epoch_log, failures)

    def run_concurrent(self, num_workers: int, frontend=None) -> WorkloadReport:
        """Replay the trace across ``num_workers`` threads.

        Workers pull operations from a shared cursor; queries execute
        immediately while mutation batches wait at the ordering gate for
        their ``mutation_seq`` turn — so the final state matches the
        serial replay while reads and writes genuinely race in between.

        With ``frontend`` (a :class:`repro.serve.BatchingFrontend` built
        around this runner's engine), queries are *submitted* instead of
        executed: each
        worker blocks on its own future, scored in its own thread or
        shared with an identical in-flight request.  The observed
        epoch then comes from the resolved
        :class:`~repro.serve.frontend.QueryResponse`, so the epoch audit
        covers the front-end end to end.  Mutations and refreshes
        keep going straight to the engine — the front-end is a read-only
        surface.  The caller owns the front-end's lifecycle (it is not
        closed here).

        The replay is closed-loop: a worker dispatches its next operation
        as soon as the previous one returns, with no arrival pacing.
        """
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        epoch_log = EpochObservationLog()
        failures: List[Tuple[str, str]] = []
        cursor = _SharedCursor(self.trace.operations)
        gate = _MutationGate()
        worker_latencies = [self._empty_latencies() for _ in range(num_workers)]
        started = time.perf_counter()

        def worker(worker_id: int) -> None:
            latencies = worker_latencies[worker_id]
            while True:
                op = cursor.next_op()
                if op is None:
                    return
                self._execute(
                    op,
                    f"worker-{worker_id}",
                    latencies,
                    epoch_log,
                    failures,
                    gate=gate,
                    frontend=frontend,
                )

        threads = [
            threading.Thread(
                target=worker, args=(worker_id,), name=f"workload-{worker_id}"
            )
            for worker_id in range(num_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started

        merged = self._empty_latencies()
        for latencies in worker_latencies:
            for kind, histogram in latencies.items():
                merged[kind].merge(histogram)
        return self._finish(
            "concurrent", num_workers, wall, merged, epoch_log, failures
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _empty_latencies() -> Dict[str, LatencyHistogram]:
        return {kind: LatencyHistogram() for kind in (QUERY, MUTATE, REFRESH)}

    def _execute(
        self,
        op: Operation,
        reader: str,
        latencies: Dict[str, LatencyHistogram],
        epoch_log: EpochObservationLog,
        failures: List[Tuple[str, str]],
        gate: Optional[_MutationGate] = None,
        frontend=None,
    ) -> None:
        if op.kind == MUTATE and gate is not None:
            # Wait *outside* the timed region: the gate models trace
            # ordering, not engine latency.
            gate.await_turn(op.mutation_seq)
        started = time.perf_counter()
        try:
            if op.kind == QUERY:
                if frontend is not None:
                    response = frontend.submit(
                        list(op.query_tags),
                        top_k=op.top_k,
                        tenant=op.tenant or None,
                    ).result()
                    epoch_log.record(reader, response.epoch)
                else:
                    epoch, _results = self.engine.snapshot_rank_batch(
                        [list(op.query_tags)], top_k=op.top_k
                    )
                    epoch_log.record(reader, epoch)
            elif op.kind == MUTATE:
                self.engine.apply_mutations(
                    added=op.added, updated=op.updated, removed=op.removed
                )
            elif op.kind == REFRESH:
                self.engine.refresh()
            else:
                raise ConfigurationError(f"unknown operation kind {op.kind!r}")
        except Exception as exc:  # noqa: BLE001 - replay must survive + report
            # One entry, one list.append: atomic under the GIL, so racing
            # workers need no lock to keep kind and message together.
            failures.append(
                (
                    type(exc).__name__,
                    f"op {op.index} ({op.kind}): {traceback.format_exc()}",
                )
            )
        finally:
            if op.kind == MUTATE and gate is not None:
                gate.complete()
            latencies[op.kind].record(
                time.perf_counter() - started, label=op.tenant or None
            )

    def _finish(
        self,
        mode: str,
        num_workers: int,
        wall: float,
        latencies: Dict[str, LatencyHistogram],
        epoch_log: EpochObservationLog,
        failures: List[Tuple[str, str]],
    ) -> WorkloadReport:
        quiesce_started = time.perf_counter()
        self.engine.refresh()
        quiesce = time.perf_counter() - quiesce_started
        return WorkloadReport(
            mode=mode,
            num_workers=num_workers,
            wall_seconds=wall,
            op_counts=self.trace.op_counts(),
            latencies=latencies,
            failures=failures,
            epoch_log=epoch_log,
            final_epoch=self.engine.epoch,
            final_resources=self.engine.num_indexed_resources,
            quiesce_seconds=quiesce,
        )


def quiesced_rankings(
    engine: RankEngine, trace: WorkloadTrace
) -> Tuple[int, List[List]]:
    """The engine's post-quiesce answers to the trace's evaluation probes.

    Refreshes the engine, then ranks ``trace.eval_queries`` through the
    epoch-consistent snapshot read — the pair the invariant checker
    compares between serial and concurrent replays.
    """
    engine.refresh()
    return engine.snapshot_rank_batch(
        [list(query) for query in trace.eval_queries],
        top_k=trace.config.top_k,
    )


class GoldenReplay(NamedTuple):
    """A serial golden run: its report and its engine's quiesced probes."""

    report: WorkloadReport
    #: The :func:`~repro.load.runner.quiesced_rankings` pair.
    rankings: Tuple[int, List[list]]


def run_golden(
    build_engine: Callable[[], RankEngine], trace: WorkloadTrace
) -> GoldenReplay:
    """Replay ``trace`` serially on a fresh engine (closed on return).

    The reference every concurrent replay is judged against; a caller
    comparing several worker counts runs it once and hands it to each
    :func:`check_replay_parity` call as ``golden=``.
    """
    with build_engine() as engine:
        report = WorkloadRunner(engine, trace).run_serial()
        return GoldenReplay(report, quiesced_rankings(engine, trace))


def scratch_rankings(engine: RankEngine, trace: WorkloadTrace) -> List[list]:
    """Probe rankings of a from-scratch build of ``engine``'s final corpus.

    The oracle for fold-in and journal replay, and the only one that
    survives a refit: ``engine`` (a folksonomy-tracking
    :class:`~repro.search.lifecycle.EngineHandle`) has its final
    folksonomy rebuilt under its final concept model, then quiesced and
    ranked on the trace's evaluation probes.
    """
    folksonomy, model = engine.folksonomy, engine.concept_model
    if folksonomy is None or model is None:
        raise ConfigurationError(
            "a scratch rebuild needs a folksonomy-tracking EngineHandle; "
            f"got {type(engine).__name__} without one"
        )
    scratch = SearchEngine.build(folksonomy, model)
    return quiesced_rankings(scratch, trace)[1]


@dataclass
class ReplayPair:
    """One golden + concurrent replay of a trace, engines already closed.

    The evidence :func:`repro.load.invariants.check_replay_parity` judges.
    """

    golden: GoldenReplay
    concurrent: WorkloadReport
    #: The concurrent engine's epoch once any swap had joined (the
    #: report's final epoch is captured when the replay drains, which a
    #: late swap can outlive) and its quiesced probe rankings.
    final_epoch: int
    rankings: Tuple[int, List[list]]
    #: What the probes must equal: the golden's rankings, or after a
    #: requested swap (``swapped``) :func:`scratch_rankings`.
    reference: List[list]
    swapped: bool
    swap_error: Optional[Exception]
    generations_advanced: int
    frontend_stats: Optional[Dict[str, object]]


def replay_pair(
    build_engine,
    trace,
    num_workers,
    golden,
    frontend_config,
    concurrent_build_engine,
    swap_during_replay,
) -> ReplayPair:
    """Run (or adopt) the golden, then the concurrent side; close engines.

    The replay step of :func:`repro.load.invariants.check_replay_parity`,
    which documents the arguments.
    """
    if golden is None:
        golden = run_golden(build_engine, trace)
    with (concurrent_build_engine or build_engine)() as engine:
        generation_before = engine.generation
        swap_errors: List[Exception] = []

        def run_swap() -> None:
            try:
                swap_during_replay()
            except Exception as error:  # noqa: BLE001 - reported, not raised
                swap_errors.append(error)

        # A plain thread, not an executor: a process-mode refit forks from
        # it, and a child forked off an executor worker dies at exit.
        swap_thread = None
        if swap_during_replay is not None:
            swap_thread = threading.Thread(
                target=run_swap, name="swap-during-replay", daemon=True
            )
            swap_thread.start()
        with ExitStack() as stack:
            frontend = None
            if frontend_config is not None:
                frontend = stack.enter_context(
                    BatchingFrontend(engine, frontend_config, name="replay")
                )
            concurrent = WorkloadRunner(engine, trace).run_concurrent(
                num_workers, frontend=frontend
            )
            if swap_thread is not None:
                # Joined with the front-end still open: the refit's swap
                # must land on a *serving* front-end to prove zero-pause.
                swap_thread.join()
            frontend_stats = frontend.stats() if frontend is not None else None

        if swap_thread is None:
            reference = golden.rankings[1]
        else:
            # The golden ranks under the pre-refit concept model and is
            # incomparable; fold-in through the new model must instead
            # equal a scratch build of the final corpus under it.
            reference = scratch_rankings(engine, trace)
        return ReplayPair(
            golden=golden,
            concurrent=concurrent,
            final_epoch=engine.epoch,
            rankings=quiesced_rankings(engine, trace),
            reference=reference,
            swapped=swap_thread is not None,
            swap_error=swap_errors[0] if swap_errors else None,
            generations_advanced=engine.generation - generation_before,
            frontend_stats=frontend_stats,
        )
