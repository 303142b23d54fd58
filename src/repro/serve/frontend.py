"""Serving front-end: admission, cache, in-flight dedup, dispatched on arrival.

Production traffic arrives as concurrent *single* queries.
:class:`BatchingFrontend` serves each one in the thread that submits it
and starts no thread of its own: :meth:`~BatchingFrontend.submit`
validates the query, takes an admission ticket (shedding the overflow
with typed :class:`~repro.serve.admission.Overloaded` errors), probes the
front-end's own result cache, then either attaches to an identical
in-flight request or runs one ``snapshot_rank_batch([tags], top_k)``
itself; it fills the cache at the epoch the engine returned, resolves
the :class:`~concurrent.futures.Future` of every request that attached,
and releases their tickets.  Every stage records into a
:class:`~repro.utils.metrics.MetricsRegistry` ready for Prometheus-style
scraping.

**Epoch rule.**  The in-flight map is keyed like the cache: canonical
tag multiset, ``top_k`` and the engine epoch read at the probe.  A
request attaches only to a read started at the epoch it observed itself,
and that read returns an epoch at least as new, so a waiter never gets
an answer older than a write it had already seen, and a client that
waits for each answer before its next query sees its epochs run forwards.

**One cache owner.**  The front-end's
:class:`~repro.search.cache.QueryCache` is the only result cache in the
stack: no engine caches.  It is probed at the epoch read before the
engine call and filled at the epoch the engine returned, so a stale
entry can never be served.  A hot swap flushes nothing: the swapped-in
generation starts at ``old epoch + 1``, a key the old one never filled,
and the old generation's entries age out of the LRU end.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence

from repro.search.cache import DEFAULT_MAX_ENTRIES, QueryCache
from repro.search.matrix_space import validate_top_k
from repro.search.vsm import RankedResult, RankEngine, query_tag_list
from repro.serve.admission import AdmissionController, Overloaded
from repro.utils.errors import ConfigurationError, ReproError
from repro.utils.metrics import MetricsRegistry


class FrontendClosed(ReproError):
    """A query was submitted to a front-end that has been closed."""


@dataclass(frozen=True)
class FrontendConfig:
    """The admission bound, tenant quota and front-end cache size.

    ``tenant_max_pending`` caps the tickets any one tenant may hold
    (``None``: no quota), so one tenant's burst sheds against its own
    allowance before it exhausts ``max_pending`` for everyone.
    ``cache_entries`` sizes the front-end's result cache (``0``/``None``
    disables it).  ``max_wait_ms`` is kept only so ``max_wait_ms=0.0``
    call sites still construct; queries are dispatched on arrival, and any
    other value is refused.
    """

    max_pending: int = 1024
    cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES
    tenant_max_pending: Optional[int] = None
    max_wait_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.max_wait_ms != 0.0:
            raise ConfigurationError(
                f"max_wait_ms={self.max_wait_ms}: the micro-batch window is "
                "gone (each query is scored on arrival); 0.0 is the only "
                "accepted value"
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


class _Request(NamedTuple):
    """One waiter: its future, its tenant, and when it was admitted."""

    future: "Future[QueryResponse]"
    tenant: Optional[str]
    admitted: float


class BatchingFrontend:
    """Admission, cache and in-flight dedup in front of a ranking engine.

    Construct it around a built engine; it starts no thread, and
    :meth:`close` (or the context manager) only refuses further work::

        with BatchingFrontend(engine) as fe:
            future = fe.submit(["jazz", "piano"], top_k=10)
            response = future.result()      # QueryResponse(epoch, results, cached)

    Thread-safe: any number of threads may submit concurrently.  Each
    scores its own query; one that finds an identical query in flight
    waits on that request's answer instead of scoring it again.
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
        self.cache: Optional[QueryCache] = (
            QueryCache(self.config.cache_entries) if self.config.cache_entries else None
        )
        self._lock = threading.Lock()
        self._in_flight: Dict[Hashable, List[_Request]] = {}
        self._closed = False

    def submit(
        self,
        query_tags: Sequence[str],
        top_k: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> "Future[QueryResponse]":
        """Serve one query in this thread; returns its resolved future.

        The future is still pending only when the query attached to an
        identical request another thread is scoring.  ``tenant``
        attributes the request for per-tenant admission quotas and stats.
        Raises :class:`~repro.serve.admission.Overloaded` when the
        in-flight bound (global or tenant quota) is hit — the request is
        shed, not queued — and :class:`FrontendClosed` after
        :meth:`close`.  Engine errors resolve the future exceptionally.
        """
        validate_top_k(top_k)
        tags = query_tag_list(query_tags)
        if self._closed:
            raise FrontendClosed(f"front-end {self.name!r} is closed; no new queries")
        try:
            depth = self.admission.admit(tenant=tenant)
        except Overloaded:
            self.metrics.increment("shed")
            raise
        self.metrics.increment("submitted")
        self.metrics.set_gauge("queue_depth", depth)
        request = _Request(Future(), tenant, time.perf_counter())
        probe_epoch = self.engine.epoch
        key = QueryCache.canonical_key(tags, top_k, probe_epoch)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self._settle([request], QueryResponse(probe_epoch, hit, True))
                return request.future
        with self._lock:
            waiters = self._in_flight.get(key)
            if waiters is not None:
                waiters.append(request)
                self.metrics.increment("coalesced")
                return request.future
            self._in_flight[key] = [request]
        try:
            started = time.perf_counter()
            epoch, (results,) = self.engine.snapshot_rank_batch([tags], top_k=top_k)
            self.metrics.observe_latency("stage.engine", time.perf_counter() - started)
            if self.cache is not None:
                self.cache.put(QueryCache.canonical_key(tags, top_k, epoch), results)
        except BaseException as error:  # noqa: BLE001 - waiters must resolve
            waiters = self._detach(key)
            self.metrics.increment("errors", len(waiters))
            self._settle(waiters, error=error)
            if not isinstance(error, Exception):
                raise
            return request.future
        self._settle(self._detach(key), QueryResponse(epoch, results, False))
        return request.future

    def query(
        self,
        query_tags: Sequence[str],
        top_k: Optional[int] = None,
    ) -> List[RankedResult]:
        """Synchronous convenience: submit and wait for the results."""
        return self.submit(query_tags, top_k=top_k).result().results

    def stats(self) -> Dict[str, object]:
        """Metrics snapshot, admission state, cache stats and, under
        ``engine_health``, the engine's ``health()`` (pool worker states, a
        lifecycle handle's generation and drift verdicts) in one dict."""
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
        payload["engine_generation"] = self.engine.generation
        payload["engine_health"] = self.engine.health()
        return payload

    def close(self) -> None:
        """Refuse new queries (idempotent); requests in flight finish."""
        self._closed = True

    def __enter__(self) -> "BatchingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _detach(self, key: Hashable) -> List[_Request]:
        """Take the request that scored ``key`` and every one attached to it."""
        with self._lock:
            return self._in_flight.pop(key)

    def _settle(
        self,
        requests: List[_Request],
        response: Optional[QueryResponse] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Release each ticket, then resolve its future.

        The books are closed first, so a caller woken by its future
        already sees its ticket returned.  Each waiter gets its own copy
        of the result list.
        """
        for request in requests:
            depth = self.admission.release(tenant=request.tenant)
            self.metrics.increment("completed")
            self.metrics.set_gauge("queue_depth", depth)
            self.metrics.observe_latency(
                "stage.total", time.perf_counter() - request.admitted
            )
            if not request.future.set_running_or_notify_cancel():
                continue
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(
                    response._replace(results=list(response.results))
                )

    def __repr__(self) -> str:
        return (
            f"BatchingFrontend(name={self.name!r}, "
            f"engine={type(self.engine).__name__}, "
            f"max_pending={self.config.max_pending})"
        )
