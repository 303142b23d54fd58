"""Admission control: a bounded queue that sheds load instead of queueing.

A front-end that scores each query as it arrives still admits unbounded
concurrent work unless something says no.  :class:`AdmissionController`
is that something: it tracks how many requests are in flight (submitted,
not yet resolved) and rejects new submissions with a typed
:class:`Overloaded` error once ``max_pending`` is reached — the client
gets an immediate, retryable signal instead of a latency cliff, and the
front-end's memory stays bounded no matter how hard the storm.

The controller is deliberately a counter, not a queue: tickets are
released when the request resolves (result or error), so ``pending``
equals the true in-flight depth, requests waiting on an identical
in-flight read included.

Multi-tenant fairness rides on the same counter: with
``tenant_max_pending`` set, each tenant additionally holds at most that
many tickets, so one tenant's flash crowd sheds against *its own* quota
(``Overloaded.scope == "tenant"``) before it can starve the global pool
everyone else shares.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.utils.errors import ConfigurationError, ReproError


class Overloaded(ReproError):
    """The front-end shed a request because its queue is saturated.

    Carries the observed depth and the configured limit so callers (and
    load-shedding telemetry) can report how far over the line the system
    was, and clients can implement informed backoff.  ``scope`` says
    *which* limit fired — ``"global"`` for the shared pool, ``"tenant"``
    when a per-tenant quota rejected the request (``tenant`` then names
    the offender), so a quota-shed tenant knows retrying elsewhere won't
    help.
    """

    def __init__(
        self,
        pending: int,
        max_pending: int,
        scope: str = "global",
        tenant: Optional[str] = None,
    ) -> None:
        where = f"tenant {tenant!r} quota" if scope == "tenant" else "queue"
        super().__init__(
            f"serving {where} saturated: {pending} requests in flight "
            f"(limit {max_pending}); retry with backoff"
        )
        self.pending = pending
        self.max_pending = max_pending
        self.scope = scope
        self.tenant = tenant


class AdmissionController:
    """Bounded in-flight tickets with a shed counter.

    :meth:`admit` hands out one ticket or raises :class:`Overloaded`;
    :meth:`release` returns it when the request resolves.  Both are O(1)
    under one mutex, so admission never becomes the bottleneck it guards
    against.  When constructed with ``tenant_max_pending``, tenant-tagged
    admissions are additionally capped per tenant, and per-tenant
    pending/shed books are kept for :meth:`tenant_stats`.
    """

    def __init__(
        self,
        max_pending: int,
        tenant_max_pending: Optional[int] = None,
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if tenant_max_pending is not None and tenant_max_pending < 1:
            raise ConfigurationError(
                f"tenant_max_pending must be >= 1, got {tenant_max_pending}"
            )
        self._max_pending = int(max_pending)
        self._tenant_max_pending = (
            None if tenant_max_pending is None else int(tenant_max_pending)
        )
        self._lock = threading.Lock()
        self._pending = 0
        self._shed = 0
        self._tenant_pending: Dict[str, int] = {}
        self._tenant_shed: Dict[str, int] = {}

    @property
    def max_pending(self) -> int:
        return self._max_pending

    @property
    def tenant_max_pending(self) -> Optional[int]:
        return self._tenant_max_pending

    @property
    def pending(self) -> int:
        """Requests currently holding a ticket."""
        with self._lock:
            return self._pending

    @property
    def shed(self) -> int:
        """Requests rejected since construction."""
        with self._lock:
            return self._shed

    def admit(self, tenant: Optional[str] = None) -> int:
        """Take one ticket; raises :class:`Overloaded` at a limit.

        The global limit is checked first (a full queue sheds everyone),
        then the tenant quota when ``tenant`` is given and a quota is
        configured.  Returns the in-flight depth *including* the new
        request, which the front-end mirrors into its queue-depth gauge
        without a second lock round-trip.
        """
        with self._lock:
            if self._pending >= self._max_pending:
                self._shed += 1
                if tenant:
                    self._tenant_shed[tenant] = (
                        self._tenant_shed.get(tenant, 0) + 1
                    )
                raise Overloaded(self._pending, self._max_pending)
            if tenant and self._tenant_max_pending is not None:
                held = self._tenant_pending.get(tenant, 0)
                if held >= self._tenant_max_pending:
                    self._shed += 1
                    self._tenant_shed[tenant] = (
                        self._tenant_shed.get(tenant, 0) + 1
                    )
                    raise Overloaded(
                        held,
                        self._tenant_max_pending,
                        scope="tenant",
                        tenant=tenant,
                    )
            self._pending += 1
            if tenant:
                self._tenant_pending[tenant] = (
                    self._tenant_pending.get(tenant, 0) + 1
                )
            return self._pending

    def release(self, count: int = 1, tenant: Optional[str] = None) -> int:
        """Return ``count`` tickets; returns the remaining depth.

        ``tenant`` must match the tag the tickets were admitted under so
        the per-tenant books stay a partition of the global gauge.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        with self._lock:
            if count > self._pending:
                raise ConfigurationError(
                    f"released {count} tickets with only {self._pending} "
                    "in flight"
                )
            if tenant:
                held = self._tenant_pending.get(tenant, 0)
                if count > held:
                    raise ConfigurationError(
                        f"released {count} tickets for tenant {tenant!r} "
                        f"with only {held} in flight"
                    )
                self._tenant_pending[tenant] = held - count
            self._pending -= count
            return self._pending

    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant ``{"pending": ..., "shed": ...}`` snapshot."""
        with self._lock:
            names = set(self._tenant_pending) | set(self._tenant_shed)
            return {
                name: {
                    "pending": self._tenant_pending.get(name, 0),
                    "shed": self._tenant_shed.get(name, 0),
                }
                for name in sorted(names)
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AdmissionController(pending={self._pending}, "
                f"max_pending={self._max_pending}, shed={self._shed})"
            )
