"""Micro-batching front-end: concurrent single queries, batched engine calls.

The batched scoring path (``rank_batch``) pays the per-call costs — the
read lock, the cache pass, a pool engine's IPC round trip — once for a
whole query set and scores duplicate queries once, but production traffic
arrives as concurrent *single* queries — each client submits one tag query
and waits for its own answer.
:class:`BatchingFrontend` closes that gap:

* :meth:`BatchingFrontend.submit` is the client surface — it enqueues one
  query and immediately returns a :class:`~concurrent.futures.Future`;
* a dedicated batcher thread coalesces everything that arrives within a
  micro-batch window (flush on ``max_batch_size`` distinct queries or
  ``max_wait_ms`` after the oldest enqueue, whichever first) into one
  epoch-consistent ``snapshot_rank_batch`` call against the engine;
* identical in-flight queries (canonical tag multiset + ``top_k``) are
  *deduplicated* — scored once, fanned out to every waiter;
* an :class:`~repro.serve.admission.AdmissionController` bounds the
  in-flight queue and sheds the overflow with typed
  :class:`~repro.serve.admission.Overloaded` errors;
* every stage records into a :class:`~repro.utils.metrics.MetricsRegistry`
  (queue wait, engine call, end-to-end latency, batch-size distribution,
  shed/error counters) ready for Prometheus-style scraping.

The front-end works against any :class:`~repro.search.vsm.RankEngine`;
the engine's :meth:`~repro.search.vsm.RankEngine.health` is folded into
:meth:`BatchingFrontend.stats` under ``engine_health``, so one scrape
covers the whole serving column.

Result caching
--------------
When the engine carries its own :class:`~repro.search.cache.QueryCache`
(one passed as ``SearchEngine(..., cache=...)``), the front-end *stays out of the way*: the
engine probes and fills that cache inside its read lock with per-batch
dedup, so each unique query counts exactly one hit or miss — a
front-end-level probe of the same cache would double-count every lookup.
When the engine has no cache, the front-end owns one and probes it before
a query enters a batch (a hit resolves the future without touching the
engine at all) and fills it after the batch returns, keyed by the exact
epoch the batch was scored against, so a stale entry can never be served.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from threading import Condition, Thread
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.search.cache import DEFAULT_MAX_ENTRIES, QueryCache
from repro.search.matrix_space import validate_top_k
from repro.search.vsm import RankedResult, RankEngine
from repro.serve.admission import AdmissionController
from repro.utils.errors import ConfigurationError, ReproError
from repro.utils.metrics import MetricsRegistry


class FrontendClosed(ReproError):
    """A query was submitted to a front-end that has been closed."""


@dataclass(frozen=True)
class FrontendConfig:
    """Tuning knobs of the micro-batch window and the admission bound.

    ``max_batch_size`` counts *distinct* queries per engine call (a
    hundred waiters on one hot query are scored once, so they never
    delay the flush); ``max_wait_ms`` bounds how long the oldest request
    may sit waiting for company, trading per-query latency for batch
    amortization (``0`` flushes greedily: whatever has accumulated by the
    time the batcher thread is free forms the batch).  ``cache_entries``
    sizes the front-end-owned result cache and is only consulted when the
    engine does not bring its own (``0``/``None`` disables it).
    ``tenant_max_pending`` caps how many tickets any one tenant-tagged
    submitter may hold (``None`` disables per-tenant quotas), so a single
    tenant's burst sheds against its own allowance before it can exhaust
    ``max_pending`` for everyone.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_pending: int = 1024
    cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES
    tenant_max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0.0):
            raise ConfigurationError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.cache_entries is not None and self.cache_entries < 0:
            raise ConfigurationError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.tenant_max_pending is not None and self.tenant_max_pending < 1:
            raise ConfigurationError(
                "tenant_max_pending must be >= 1, got "
                f"{self.tenant_max_pending}"
            )


class QueryResponse(NamedTuple):
    """What a resolved future carries: results plus their provenance."""

    epoch: int
    results: List[RankedResult]
    cached: bool


class _Request:
    """One waiter: its query, its future, and when it entered the queue."""

    __slots__ = ("key", "tags", "top_k", "future", "enqueued", "tenant")

    def __init__(
        self,
        key: Tuple[Tuple[str, ...], Optional[int]],
        tags: List[str],
        top_k: Optional[int],
        future: "Future[QueryResponse]",
        enqueued: float,
        tenant: Optional[str] = None,
    ) -> None:
        self.key = key
        self.tags = tags
        self.top_k = top_k
        self.future = future
        self.enqueued = enqueued
        self.tenant = tenant


class BatchingFrontend:
    """Coalesces concurrent ``submit`` calls into batched engine reads.

    Construct it around a built engine and use it as a context manager
    (or call :meth:`close`) so the batcher thread is released::

        with BatchingFrontend(engine, FrontendConfig(max_wait_ms=2)) as fe:
            future = fe.submit(["jazz", "piano"], top_k=10)
            response = future.result()      # QueryResponse(epoch, results, cached)

    Thread-safe: any number of threads may submit concurrently; one
    internal batcher thread executes batches strictly in formation order,
    so two batches never interleave on the engine and per-client response
    order follows submission order.
    """

    def __init__(
        self,
        engine: RankEngine,
        config: Optional[FrontendConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "frontend",
    ) -> None:
        if not isinstance(engine, RankEngine):
            raise ConfigurationError(
                "BatchingFrontend needs a RankEngine; "
                f"{type(engine).__name__} is not one"
            )
        self.engine = engine
        self.config = config or FrontendConfig()
        self.metrics = metrics or MetricsRegistry()
        self.name = name
        self.admission = AdmissionController(
            self.config.max_pending,
            tenant_max_pending=self.config.tenant_max_pending,
        )
        if engine.cache is not None:
            # The engine probes/fills its own cache inside the read lock
            # (with per-batch dedup); a second probe here would count
            # every lookup twice.
            self.cache: Optional[QueryCache] = engine.cache
            self._cache_is_engines = True
        elif self.config.cache_entries:
            self.cache = QueryCache(self.config.cache_entries)
            self._cache_is_engines = False
        else:
            self.cache = None
            self._cache_is_engines = False
        # Lifecycle-managed engines (an EngineHandle) announce hot
        # generation swaps; the front-end flushes its cache — a new
        # generation is a new concept model — and counts the event.
        engine.add_swap_listener(self._on_generation_swap)
        self._cond = Condition()
        self._pending: List[_Request] = []
        self._closed = False
        self._thread = Thread(
            target=self._batch_loop, name=f"{name}-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query_tags: Sequence[str],
        top_k: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> "Future[QueryResponse]":
        """Enqueue one query; returns a future for its ranked results.

        ``tenant`` attributes the request for per-tenant admission quotas
        and stats; untagged requests count only against the global bound.
        Raises :class:`~repro.serve.admission.Overloaded` immediately when
        the in-flight bound (global or tenant quota) is hit — the request
        is shed, not queued — and :class:`FrontendClosed` after
        :meth:`close`.
        """
        validate_top_k(top_k)
        tags = list(query_tags)
        key = (tuple(sorted(tags)), top_k)
        try:
            depth = self.admission.admit(tenant=tenant)
        except Exception:
            self.metrics.increment("shed")
            raise
        future: "Future[QueryResponse]" = Future()
        request = _Request(
            key, tags, top_k, future, time.perf_counter(), tenant=tenant
        )
        with self._cond:
            if self._closed:
                self.admission.release(tenant=tenant)
                raise FrontendClosed(
                    f"front-end {self.name!r} is closed; no new queries"
                )
            self._pending.append(request)
            self._cond.notify_all()
        self.metrics.increment("submitted")
        self.metrics.set_gauge("queue_depth", depth)
        return future

    def query(
        self,
        query_tags: Sequence[str],
        top_k: Optional[int] = None,
    ) -> List[RankedResult]:
        """Synchronous convenience: submit and wait for the results."""
        return self.submit(query_tags, top_k=top_k).result().results

    def stats(self) -> Dict[str, object]:
        """One dict: metrics snapshot, admission state, cache stats.

        The engine's ``health()`` (the process pool's worker states, an
        :class:`~repro.search.lifecycle.EngineHandle`'s
        generation/epoch/staleness snapshot — which separates the
        ``fold_in_due`` and ``refit_due`` verdicts) is included under
        ``engine_health``, so drift alarms and generation swaps surface
        through the same endpoint as the front-end's own metrics.
        """
        payload = self.metrics.snapshot()
        payload["admission"] = {
            "pending": self.admission.pending,
            "max_pending": self.admission.max_pending,
            "shed": self.admission.shed,
            "tenant_max_pending": self.admission.tenant_max_pending,
            "tenants": self.admission.tenant_stats(),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
            payload["cache_owner"] = (
                "engine" if self._cache_is_engines else "frontend"
            )
        payload["engine_generation"] = self.engine.generation
        payload["engine_health"] = self.engine.health()
        return payload

    def _on_generation_swap(self, generation: int) -> None:
        """Swap-listener hook: flush the owned cache, count the event."""
        self.metrics.increment("generation_swaps")
        self.metrics.set_gauge("engine_generation", generation)
        if self.cache is not None and not self._cache_is_engines:
            self.cache.invalidate_generation(generation)

    def close(self) -> None:
        """Drain every pending request, then stop the batcher (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        self.engine.remove_swap_listener(self._on_generation_swap)

    def __enter__(self) -> "BatchingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batcher thread
    # ------------------------------------------------------------------ #
    def _batch_loop(self) -> None:
        try:
            while True:
                batch = self._collect_batch()
                if batch is None:
                    return
                self._execute_batch(batch)
        except BaseException as error:  # noqa: BLE001 - never die silently
            # A batcher bug must not strand waiters on futures that will
            # never resolve: fail everything pending, refuse new work.
            with self._cond:
                self._closed = True
                stranded = self._pending
                self._pending = []
                self._cond.notify_all()
            self.metrics.increment("errors", len(stranded))
            self._fail(stranded, error)
            raise

    def _collect_batch(
        self,
    ) -> Optional["OrderedDict[Tuple, List[_Request]]"]:
        """Block until a batch forms; ``None`` once closed and drained.

        The window starts at the *oldest* pending request: flush when
        ``max_batch_size`` distinct queries have accumulated, when
        ``max_wait_ms`` has elapsed, or when the front-end is closing
        (close still drains, so no future is ever abandoned).  Requests
        beyond the size limit stay queued, in order, for the next batch;
        duplicates of a query already in the batch always ride along.
        """
        max_wait = self.config.max_wait_ms / 1000.0
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            deadline = self._pending[0].enqueued + max_wait
            while not self._closed:
                distinct = len({request.key for request in self._pending})
                if distinct >= self.config.max_batch_size:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            groups: "OrderedDict[Tuple, List[_Request]]" = OrderedDict()
            overflow: List[_Request] = []
            for request in self._pending:
                if request.key in groups:
                    groups[request.key].append(request)
                elif len(groups) < self.config.max_batch_size:
                    groups[request.key] = [request]
                else:
                    overflow.append(request)
            self._pending = overflow
            return groups

    def _execute_batch(
        self, groups: "OrderedDict[Tuple, List[_Request]]"
    ) -> None:
        try:
            self._execute_batch_inner(groups)
        except BaseException as error:  # noqa: BLE001 - fail, don't strand
            stranded = [
                request
                for requests in groups.values()
                for request in requests
                if not request.future.done()
            ]
            self.metrics.increment("errors", len(stranded))
            self._fail(stranded, error)
            if not isinstance(error, Exception):
                # SystemExit/KeyboardInterrupt must still tear the
                # batcher down (the loop's handler drains the queue);
                # this batch's waiters were failed above first.
                raise

    def _execute_batch_inner(
        self, groups: "OrderedDict[Tuple, List[_Request]]"
    ) -> None:
        dispatched = time.perf_counter()
        waiters = sum(len(requests) for requests in groups.values())
        self.metrics.increment("batches")
        self.metrics.increment("coalesced", waiters - len(groups))
        self.metrics.observe_size("batch_distinct_queries", len(groups))
        self.metrics.observe_size("batch_waiters", waiters)
        for requests in groups.values():
            for request in requests:
                self.metrics.observe_latency(
                    "stage.queue", dispatched - request.enqueued
                )

        # Everything below resolves the whole batch against ONE epoch, so
        # a client pipelining several submits can never observe the epoch
        # run backwards across its own futures: batches execute strictly
        # in order and the engine's epoch is monotone, so batch N+1's
        # epoch >= batch N's.
        own_cache = self.cache is not None and not self._cache_is_engines
        hits: "OrderedDict[Tuple, List[RankedResult]]" = OrderedDict()
        misses: "OrderedDict[Tuple, List[_Request]]" = groups
        probe_epoch = 0
        if own_cache:
            probe_epoch = self.engine.epoch
            misses = OrderedDict()
            for key, requests in groups.items():
                sorted_tags, top_k = key
                hit = self.cache.get(
                    QueryCache.canonical_key(sorted_tags, top_k, probe_epoch)
                )
                if hit is None:
                    misses[key] = requests
                else:
                    hits[key] = hit
        if not misses:
            for key, results in hits.items():
                self._resolve(groups[key], probe_epoch, results, cached=True)
            return

        try:
            epoch, ranked = self._rank_keys(misses)
            if own_cache and hits and epoch != probe_epoch:
                # A mutation landed between the cache probe and the
                # snapshot: the hits describe an older index state than
                # the misses.  Re-rank the *whole* batch in one snapshot
                # call so every waiter still shares one epoch (rare:
                # costs one wasted engine call only when a write races
                # the window).
                misses = groups
                epoch, ranked = self._rank_keys(misses)
                hits.clear()  # resolved below from the re-rank instead
        except Exception as error:  # noqa: BLE001 - fail only the misses
            # Cache hits are still valid answers for the epoch they were
            # probed at; only the queries that needed the engine fail.
            for key, results in hits.items():
                self._resolve(groups[key], probe_epoch, results, cached=True)
            stranded = [
                request
                for key, requests in misses.items()
                if key not in hits
                for request in requests
            ]
            self.metrics.increment("errors", len(stranded))
            self._fail(stranded, error)
            return

        for key, results in zip(misses, ranked):
            sorted_tags, top_k = key
            sliced = results if top_k is None else results[:top_k]
            if own_cache:
                self.cache.put(
                    QueryCache.canonical_key(sorted_tags, top_k, epoch),
                    sliced,
                )
            self._resolve(misses[key], epoch, sliced, cached=False)
        for key, results in hits.items():
            # Only reached when epoch == probe_epoch: hits and misses
            # describe the same index state.
            self._resolve(groups[key], probe_epoch, results, cached=True)

    def _rank_keys(
        self, grouped: "OrderedDict[Tuple, List[_Request]]"
    ) -> Tuple[int, List[list]]:
        """One epoch-consistent engine call covering every key.

        Keys may carry different ``top_k`` values but an engine call
        takes one, so the batch is scored at the *widest* requested depth
        (``None`` if any key wants the full ranking) and each key's
        results are sliced down afterwards — sound because a ranking is a
        strict total order (descending score, ascending resource id), so
        a top-k list is a prefix of any deeper list.  One call means one
        epoch for the whole batch, the property the monotonicity argument
        above rests on.
        """
        top_ks = [key[1] for key in grouped]
        effective = None if any(k is None for k in top_ks) else max(top_ks)
        queries = [requests[0].tags for requests in grouped.values()]
        started = time.perf_counter()
        epoch, ranked = self.engine.snapshot_rank_batch(
            queries, top_k=effective
        )
        self.metrics.observe_latency(
            "stage.engine", time.perf_counter() - started
        )
        if len(ranked) != len(queries):
            raise ConfigurationError(
                f"engine returned {len(ranked)} result lists for "
                f"{len(queries)} queries; the batch cannot be resolved"
            )
        return epoch, ranked

    def _resolve(
        self,
        requests: List[_Request],
        epoch: int,
        results: Sequence[RankedResult],
        cached: bool,
    ) -> None:
        """Fan one scored result list out to every waiter on the query."""
        for request in requests:
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(
                    QueryResponse(epoch, list(results), cached)
                )
            self._finish(request)

    def _fail(self, requests: List[_Request], error: BaseException) -> None:
        """Resolve every waiter exceptionally; tickets are still released."""
        for request in requests:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(error)
            self._finish(request)

    def _finish(self, request: _Request) -> None:
        depth = self.admission.release(tenant=request.tenant)
        self.metrics.increment("completed")
        self.metrics.set_gauge("queue_depth", depth)
        self.metrics.observe_latency(
            "stage.total", time.perf_counter() - request.enqueued
        )

    def __repr__(self) -> str:
        return (
            f"BatchingFrontend(name={self.name!r}, "
            f"engine={type(self.engine).__name__}, "
            f"max_batch_size={self.config.max_batch_size}, "
            f"max_wait_ms={self.config.max_wait_ms})"
        )
