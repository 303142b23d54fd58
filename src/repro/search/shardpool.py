"""Process-per-shard serving pool: parallel fan-out that escapes the GIL.

A :class:`~repro.search.engine.SearchEngine` holds one space per process;
N shards exist only as a save layout (``save(..., num_shards=N)``).  This
opt-in module serves such a save with N worker processes, one shard each:

* :func:`_shard_worker_main` — the worker entry point.  Each worker loads
  exactly one shard from the engine save layout
  (``shard_manifest.json`` + ``shard-NNNN/`` directories) via
  :meth:`SearchEngine.load_shard`, which memory-maps the shard's raw
  ``.npy`` arrays (zero-copy open, near-instant start), then answers
  ranking requests over a pipe.
* :class:`ShardProcessPool` — the coordinator.  It fans
  ``snapshot_rank_batch`` batches out to all workers over a lightweight
  pickle-over-pipe protocol (request ids, typed error frames, per-worker
  heartbeat and timeouts) and heap-merges the per-shard top-k lists with
  :func:`~repro.search.sharding.merge_topk` under the engine-wide
  tie-break, so pool rankings equal the monolithic engine's to 1e-9.

A stalled or dead worker never hangs a read: the fan-out runs against a
deadline, failures come back as typed :class:`ShardFailure` entries on a
:class:`PoolResult` (or as a :class:`ShardPoolDegraded` exception when
``strict_reads`` is set), and :meth:`ShardProcessPool.restart_worker`
brings a shard back online without touching the rest of the pool.

The pool is **read-only**: every response carries the shard's epoch, the
coordinator asserts all shards agree with the manifest epoch, and
mutations are rejected — route writes through
:meth:`SearchEngine.load <repro.search.engine.SearchEngine.load>` of the
whole save, re-save, and restart the pool.  The pool is a
:class:`~repro.search.vsm.RankEngine`, so
:class:`~repro.serve.frontend.BatchingFrontend` and the workload replay
subsystem sit in front of it unchanged.

Wire protocol (pickled tuples; first element is the frame kind):

====================================  =======================================
coordinator → worker                  worker → coordinator
====================================  =======================================
``("rank", req_id, queries, top_k)``  ``("ok", req_id, epoch, results)`` or
                                      ``("error", req_id, detail)``
``("ping", req_id)``                  ``("pong", req_id)``
``("sleep", req_id, seconds)``        ``("pong", req_id)`` after the stall
``("stop",)``                         —
—                                     ``("ready", shard_id, epoch,
                                      num_docs, load_seconds)`` at startup,
                                      ``("fatal", detail)`` before dying
====================================  =======================================

Responses are matched by request id, so late frames from a worker that
recovered after a timeout are discarded instead of being misattributed to
the current request.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.search.matrix_space import validate_top_k
from repro.search.concurrency import process_context
from repro.search.engine import SearchEngine
from repro.search.sharding import merge_topk, read_shard_manifest
from repro.search.vsm import RankedResult, RankEngine, query_tag_list
from repro.utils.errors import ConfigurationError, ReproError

__all__ = [
    "PoolResult",
    "ShardFailure",
    "ShardPoolConfig",
    "ShardPoolDegraded",
    "ShardPoolError",
    "ShardProcessPool",
]

#: Worker states reported by :meth:`ShardProcessPool.health`.
WORKER_READY = "ready"
WORKER_STALLED = "stalled"
WORKER_DEAD = "dead"

#: Failure kinds a :class:`ShardFailure` can carry.
FAILURE_KINDS = ("dead", "timeout", "stalled", "error", "unavailable")


class ShardPoolError(ReproError):
    """Raised when the pool cannot be started or operated at all."""


@dataclass(frozen=True)
class ShardFailure:
    """One shard's typed failure during a fan-out.

    ``kind`` is one of :data:`FAILURE_KINDS`:

    * ``dead`` — the worker process exited (or its pipe closed).
    * ``timeout`` — the worker was alive but did not answer within the
      request deadline; it is marked stalled for subsequent reads.
    * ``stalled`` — the worker was already marked stalled and failed the
      pre-read heartbeat, so the read skipped it without waiting.
    * ``error`` — the worker answered with a typed error frame (or an
      epoch that contradicts the manifest).
    * ``unavailable`` — the worker never reached the ready state.
    """

    shard_id: int
    kind: str
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"unknown shard failure kind {self.kind!r}"
            )


class ShardPoolDegraded(ShardPoolError):
    """A strict read observed shard failures instead of full coverage."""

    def __init__(self, failures: Sequence[ShardFailure]) -> None:
        self.failures: Tuple[ShardFailure, ...] = tuple(failures)
        detail = "; ".join(
            f"shard {f.shard_id}: {f.kind} ({f.detail})" for f in self.failures
        )
        super().__init__(f"degraded pool read: {detail}")


@dataclass(frozen=True)
class PoolResult:
    """A fan-out's full outcome: merged rankings plus per-shard status.

    ``results`` holds one merged ranking per query, covering every shard
    in ``shard_epochs``; shards listed in ``failures`` contributed
    nothing.  ``complete`` distinguishes a trustworthy global ranking
    from a degraded one.
    """

    epoch: int
    results: List[List[RankedResult]]
    shard_epochs: Dict[int, int]
    failures: Tuple[ShardFailure, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ShardPoolConfig:
    """Tuning knobs for :class:`ShardProcessPool`.

    All timeouts are in seconds: ``request_timeout`` bounds one fan-out,
    ``startup_timeout`` bounds one worker's load-and-ready handshake,
    and ``heartbeat_timeout`` bounds the ping that probes a previously
    stalled worker before a read.  With ``strict_reads`` a degraded
    fan-out raises :class:`ShardPoolDegraded` instead of returning the
    surviving shards' merge.
    """

    request_timeout: float = 30.0
    startup_timeout: float = 60.0
    heartbeat_timeout: float = 1.0
    strict_reads: bool = False

    def __post_init__(self) -> None:
        for name in ("request_timeout", "startup_timeout", "heartbeat_timeout"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} must be > 0, got {value!r}")


def _try_send(conn, frame) -> None:
    """Best-effort send: a coordinator that vanished is not our problem."""
    try:
        conn.send(frame)
    except (BrokenPipeError, OSError):
        pass


def _shard_worker_main(directory, shard_id, conn) -> None:
    """Worker entry point: load one shard, answer frames until ``stop``.

    Module-level (not a closure) so ``spawn`` start methods can pickle
    it.  All request handling is wrapped: a per-request exception yields
    a typed ``error`` frame and the worker keeps serving; only a failure
    to load the shard (or a lost pipe) ends the process, announced with
    a ``fatal`` frame when the pipe still works.
    """
    try:
        started = time.perf_counter()
        engine = SearchEngine.load_shard(directory, shard_id)
        load_seconds = time.perf_counter() - started
        conn.send(
            (
                "ready",
                shard_id,
                engine.epoch,
                engine.num_indexed_resources,
                load_seconds,
            )
        )
    except BaseException as exc:  # noqa: BLE001 - must report, then die
        _try_send(conn, ("fatal", f"{type(exc).__name__}: {exc}"))
        return
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return
        kind = frame[0]
        if kind == "stop":
            return
        if kind == "ping":
            _try_send(conn, ("pong", frame[1]))
        elif kind == "sleep":
            # Fault-injection hook: emulate a stalled worker (GC pause,
            # page-fault storm) without patching the engine.
            time.sleep(float(frame[2]))
            _try_send(conn, ("pong", frame[1]))
        elif kind == "rank":
            req_id, queries, top_k = frame[1], frame[2], frame[3]
            try:
                epoch, results = engine.snapshot_rank_batch(queries, top_k)
            except Exception as exc:  # noqa: BLE001 - typed error frame
                _try_send(
                    conn, ("error", req_id, f"{type(exc).__name__}: {exc}")
                )
            else:
                _try_send(conn, ("ok", req_id, epoch, results))
        else:
            req_id = frame[1] if len(frame) > 1 else None
            _try_send(conn, ("error", req_id, f"unknown frame kind {kind!r}"))


class _WorkerHandle:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = (
        "shard_id",
        "process",
        "conn",
        "state",
        "epoch",
        "num_documents",
        "load_seconds",
        "restarts",
    )

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process = None
        self.conn = None
        self.state = WORKER_DEAD
        self.epoch: Optional[int] = None
        self.num_documents = 0
        self.load_seconds: Optional[float] = None
        self.restarts = -1  # first spawn brings this to 0


class ShardProcessPool(RankEngine):
    """Serve a saved index with one OS process per shard.

    Opens the directory written by :meth:`SearchEngine.save`,
    spawns ``num_shards`` workers (each memory-mapping exactly one shard),
    and exposes the same epoch-tagged read surface as the in-process
    engine::

        with ShardProcessPool(save_dir) as pool:
            epoch, results = pool.snapshot_rank_batch(queries, top_k=10)

    Because the heavy scoring happens in separate interpreters, the
    shards genuinely run in parallel.  :meth:`rank_batch_detailed` returns the
    typed :class:`PoolResult` (merged rankings plus per-shard failures);
    :meth:`snapshot_rank_batch` flattens that to ``(epoch, results)``
    for drop-in use behind :class:`~repro.serve.frontend.BatchingFrontend`
    or the workload replay runner, counting degraded reads in
    :meth:`health`.  Result caching is the front-end's (keyed on the
    pool's epoch).

    Thread-safe: concurrent reads are serialized over the pipes by an
    internal lock (the workers themselves are the parallelism).  Always
    :meth:`close` the pool (or use it as a context manager) — worker
    processes are not daemons of the calling code's lifecycle.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        config: Optional[ShardPoolConfig] = None,
    ) -> None:
        self._directory = Path(directory)
        self._config = config or ShardPoolConfig()
        manifest = read_shard_manifest(self._directory)
        self.name = str(manifest["name"])
        self._shard_dirs = [
            self._directory / entry["directory"]
            for entry in manifest["shards"]
        ]
        if not self._shard_dirs:
            raise ShardPoolError("manifest lists no shards")
        self._epoch = int(manifest.get("epoch", 0))
        self._ctx = process_context()
        self._lock = threading.Lock()
        self._req_ids = itertools.count(1)
        self._degraded_reads = 0
        self._closed = False
        self._workers = [
            _WorkerHandle(shard_id)
            for shard_id in range(len(self._shard_dirs))
        ]
        try:
            for worker in self._workers:
                self._spawn(worker)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Startup / lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, worker: _WorkerHandle) -> None:
        """(Re)start one worker and wait for its ready handshake."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(self._directory, worker.shard_id, child_conn),
            name=f"{self.name}-shard{worker.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.restarts += 1
        deadline = time.monotonic() + self._config.startup_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not parent_conn.poll(max(remaining, 0)):
                self._mark_dead(worker)
                raise ShardPoolError(
                    f"shard {worker.shard_id} worker not ready within "
                    f"{self._config.startup_timeout}s"
                )
            try:
                frame = parent_conn.recv()
            except (EOFError, OSError):
                self._mark_dead(worker)
                raise ShardPoolError(
                    f"shard {worker.shard_id} worker died during startup"
                )
            if frame[0] == "fatal":
                self._mark_dead(worker)
                raise ShardPoolError(
                    f"shard {worker.shard_id} worker failed to load: "
                    f"{frame[1]}"
                )
            if frame[0] == "ready":
                _, shard_id, epoch, num_documents, load_seconds = frame
                if epoch != self._epoch:
                    self._mark_dead(worker)
                    raise ShardPoolError(
                        f"shard {shard_id} loaded epoch {epoch} but the "
                        f"manifest says {self._epoch}; the save is torn — "
                        "re-save the engine"
                    )
                worker.state = WORKER_READY
                worker.epoch = epoch
                worker.num_documents = int(num_documents)
                worker.load_seconds = float(load_seconds)
                return
            # Anything else at startup is a stale frame from a previous
            # incarnation's pipe; impossible on a fresh Pipe, drop it.

    def _mark_dead(self, worker: _WorkerHandle) -> None:
        worker.state = WORKER_DEAD
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        if worker.process is not None and worker.process.is_alive():
            worker.process.terminate()

    def restart_worker(self, shard_id: int) -> None:
        """Respawn one shard's worker (after a kill, crash, or stall).

        The fresh worker re-loads the shard from disk and must hand back
        the manifest epoch, so a successful restart restores exact-parity
        serving for that shard; the rest of the pool is untouched.
        """
        worker = self._worker(shard_id)
        with self._lock:
            self._mark_dead(worker)
            if worker.process is not None:
                worker.process.join(timeout=self._config.startup_timeout)
            self._spawn(worker)

    def close(self) -> None:
        """Stop every worker (idempotent); the save directory is untouched."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.conn is not None:
                _try_send(worker.conn, ("stop",))
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=2.0)
            self._mark_dead(worker)  # closes the pipe, terminates a straggler
            if worker.process is not None:
                worker.process.join(timeout=2.0)

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """The manifest epoch every response is validated against."""
        return self._epoch

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    @property
    def num_indexed_resources(self) -> int:
        """Resources across all shards (from the workers' handshakes)."""
        return sum(worker.num_documents for worker in self._workers)

    def health(self) -> Dict[str, object]:
        """Pool-level and per-worker status for dashboards and tests."""
        return {
            "epoch": self._epoch,
            "num_shards": self.num_shards,
            "degraded_reads": self._degraded_reads,
            "workers": [
                {
                    "shard_id": worker.shard_id,
                    "state": worker.state,
                    "num_documents": worker.num_documents,
                    "load_seconds": worker.load_seconds,
                    "restarts": max(worker.restarts, 0),
                }
                for worker in self._workers
            ],
        }

    def worker_load_seconds(self) -> List[float]:
        """Per-shard cold-start load times (benchmark instrumentation)."""
        return [worker.load_seconds or 0.0 for worker in self._workers]

    def _worker(self, shard_id: int) -> _WorkerHandle:
        if not 0 <= shard_id < len(self._workers):
            raise ConfigurationError(
                f"shard_id {shard_id} outside [0, {len(self._workers)})"
            )
        return self._workers[shard_id]

    # ------------------------------------------------------------------ #
    # Fault injection (testing / failure drills)
    # ------------------------------------------------------------------ #
    def inject_stall(self, shard_id: int, seconds: float) -> None:
        """Make one worker sleep — a failure drill for the timeout path.

        The worker processes frames serially, so the next read's request
        queues behind the sleep and times out, exactly like a real stall
        (GC pause, page-fault storm).  Used by the worker-failure tests;
        never call it in production serving.
        """
        worker = self._worker(shard_id)
        with self._lock:
            if worker.conn is None:
                raise ShardPoolError(f"shard {shard_id} worker is dead")
            worker.conn.send(("sleep", next(self._req_ids), float(seconds)))

    def kill_worker(self, shard_id: int) -> None:
        """Kill one worker process outright — a failure drill for crashes.

        SIGKILL, not a clean stop: the handle is deliberately left in its
        current state so the *read path* discovers the death (the closed
        pipe surfaces as a typed ``"dead"`` :class:`ShardFailure` on the
        next fan-out), exactly as a real OOM-kill or segfault would be
        discovered.  Recover with :meth:`restart_worker`.  Used by the
        chaos scenario; never call it in production serving.
        """
        worker = self._worker(shard_id)
        with self._lock:
            if worker.process is None or not worker.process.is_alive():
                raise ShardPoolError(
                    f"shard {shard_id} worker is not running; nothing to kill"
                )
            worker.process.kill()
            worker.process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def snapshot_rank_batch(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int] = None,
    ) -> Tuple[int, List[List[RankedResult]]]:
        """Epoch-consistent batched ranking: ``(epoch, results)``.

        The drop-in surface :class:`~repro.serve.frontend.BatchingFrontend`
        and the replay runner expect.  The pool is immutable, so every
        read is trivially epoch-consistent; shard failures degrade the
        result (missing shards contribute no candidates) unless
        ``strict_reads`` is set, in which case they raise
        :class:`ShardPoolDegraded`.  Use :meth:`rank_batch_detailed` when
        the caller needs the failure list itself.
        """
        outcome = self.rank_batch_detailed(queries, top_k)
        return outcome.epoch, outcome.results

    def rank_batch_detailed(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int] = None,
    ) -> PoolResult:
        """Fan a batch out to every live worker; return the typed outcome.

        Never hangs: the whole fan-out runs against
        ``config.request_timeout``, a worker that misses the deadline is
        marked stalled (and heartbeat-probed before the next read), and
        a dead pipe is detected immediately.  With ``strict_reads`` any
        failure raises :class:`ShardPoolDegraded`; otherwise the
        surviving shards' lists are merged and the failures ride along
        on the :class:`PoolResult`.
        """
        if self._closed:
            raise ShardPoolError("pool is closed")
        validate_top_k(top_k)
        queries = [query_tag_list(tags) for tags in queries]
        if not queries:
            return PoolResult(self._epoch, [], {}, ())
        with self._lock:
            outcome = self._fan_out(queries, top_k)
            if outcome.failures:
                self._degraded_reads += 1
        if outcome.failures and self._config.strict_reads:
            raise ShardPoolDegraded(outcome.failures)
        return outcome

    def _fan_out(self, queries, top_k) -> PoolResult:
        """One locked fan-out/merge round; caller holds ``_lock``."""
        req_id = next(self._req_ids)
        failures: List[ShardFailure] = []
        pending: Dict[object, _WorkerHandle] = {}

        def fail(worker: _WorkerHandle, kind: str, detail: str) -> None:
            failures.append(ShardFailure(worker.shard_id, kind, detail))

        for worker in self._workers:
            if worker.state == WORKER_DEAD or worker.conn is None:
                fail(
                    worker,
                    "dead" if worker.epoch is not None else "unavailable",
                    "worker process is down; call restart_worker()",
                )
                continue
            if worker.state == WORKER_STALLED and not self._revive(worker):
                if worker.state == WORKER_DEAD:
                    fail(worker, "dead", "worker died while stalled")
                else:
                    fail(worker, "stalled", "worker missed the heartbeat; skipped")
                continue
            try:
                worker.conn.send(("rank", req_id, queries, top_k))
            except (BrokenPipeError, OSError):
                self._mark_dead(worker)
                fail(worker, "dead", "pipe closed on send")
                continue
            pending[worker.conn] = worker

        shard_results: Dict[int, List[List[RankedResult]]] = {}
        shard_epochs: Dict[int, int] = {}
        deadline = time.monotonic() + self._config.request_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            ready = mp_connection.wait(list(pending), timeout=remaining)
            if not ready:
                break
            for conn in ready:
                worker = pending[conn]
                try:
                    frame = conn.recv()
                except (EOFError, OSError):
                    self._mark_dead(worker)
                    fail(worker, "dead", "pipe closed mid-request (worker killed?)")
                    del pending[conn]
                    continue
                kind = frame[0]
                if kind == "fatal":
                    self._mark_dead(worker)
                    fail(worker, "dead", str(frame[1]))
                    del pending[conn]
                elif kind == "ok":
                    if frame[1] != req_id:
                        continue  # stale reply from before a timeout
                    _, _, epoch, results = frame
                    if epoch != self._epoch:
                        fail(
                            worker,
                            "error",
                            f"worker epoch {epoch} contradicts pool "
                            f"epoch {self._epoch}",
                        )
                    else:
                        shard_results[worker.shard_id] = results
                        shard_epochs[worker.shard_id] = epoch
                    del pending[conn]
                elif kind == "error":
                    if frame[1] is not None and frame[1] != req_id:
                        continue
                    fail(worker, "error", str(frame[2]))
                    del pending[conn]
                # pong or other stale frames: drop, keep waiting

        for conn, worker in list(pending.items()):
            if worker.process is not None and not worker.process.is_alive():
                self._mark_dead(worker)
                fail(worker, "dead", "worker process exited")
            else:
                worker.state = WORKER_STALLED
                fail(
                    worker,
                    "timeout",
                    f"no reply within {self._config.request_timeout}s; "
                    "marked stalled",
                )

        ordered = sorted(shard_results)
        merged = [
            merge_topk(
                [shard_results[shard_id][index] for shard_id in ordered],
                top_k,
            )
            for index in range(len(queries))
        ]
        return PoolResult(self._epoch, merged, shard_epochs, tuple(failures))

    def _revive(self, worker: _WorkerHandle) -> bool:
        """Heartbeat-probe a stalled worker; True if it is serving again.

        Stale frames queued while the worker was stalled (late replies to
        timed-out requests) are drained first, so they can never be
        mistaken for the pong.
        """
        conn = worker.conn
        if conn is None:
            return False
        try:
            while conn.poll(0):
                conn.recv()  # drain and discard stale frames
            ping_id = next(self._req_ids)
            conn.send(("ping", ping_id))
            deadline = time.monotonic() + self._config.heartbeat_timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(max(remaining, 0)):
                    return False
                frame = conn.recv()
                if frame[0] == "pong" and frame[1] == ping_id:
                    worker.state = WORKER_READY
                    return True
                if frame[0] == "fatal":
                    self._mark_dead(worker)
                    return False
        except (BrokenPipeError, EOFError, OSError):
            self._mark_dead(worker)
            return False

    def __repr__(self) -> str:
        states = ",".join(worker.state for worker in self._workers)
        return (
            f"ShardProcessPool(name={self.name!r}, "
            f"num_shards={self.num_shards}, epoch={self._epoch}, "
            f"workers=[{states}])"
        )
