"""Staleness accounting for incrementally updated engines.

Fold-in updates keep online serving cheap: new resources are mapped through
the *frozen* concept model without re-running the offline tensor analysis.
The trade-off (well known from the LSI fold-in literature) is that the
latent model itself slowly drifts away from the corpus it was fitted on.
This module quantifies that drift:

* every mutation of a :class:`~repro.search.engine.SearchEngine` bumps its
  *epoch* and a set of staleness counters,
* a :class:`RefreshPolicy` turns those counters into a *refit due* signal,
* :class:`StalenessReport` is the snapshot handed to operators,
* :class:`EpochObservationLog` records the epochs concurrent readers
  actually observed (via the engines' ``snapshot_rank_batch``), so the
  workload replay suite can assert that epoch-consistent reads never run
  backwards under mixed read/write traffic.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, fields
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class RefreshPolicy:
    """When is a full Tucker refit warranted?

    :meth:`refit_due` says when the latent model itself has drifted too
    far from the corpus; a :class:`~repro.search.lifecycle.RefitCoordinator`
    should then rebuild it in the background and hot-swap.  The cheap
    lazy statistics refresh needs no policy: it is due whenever the
    engine's space has pending mutations (``StalenessReport.fold_in_due``
    reads ``MatrixConceptSpace.is_stale``), and any read drives it.

    Parameters
    ----------
    max_delta_fraction:
        Refit once the resources added/removed/updated since the last full
        fit exceed this fraction of the corpus size at fit time (default
        10%, the usual fold-in rule of thumb).
    max_delta_ops:
        Optional absolute cap on mutated resources regardless of corpus
        size; ``None`` disables it.
    """

    max_delta_fraction: float = 0.1
    max_delta_ops: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_delta_fraction <= 0.0:
            raise ConfigurationError(
                f"max_delta_fraction must be positive, got {self.max_delta_fraction}"
            )
        if self.max_delta_ops is not None and self.max_delta_ops < 1:
            raise ConfigurationError(
                f"max_delta_ops must be >= 1 when given, got {self.max_delta_ops}"
            )

    def refit_due(self, delta_ops: int, baseline_resources: int) -> bool:
        """Whether the accumulated drift warrants a full Tucker refit."""
        if self.max_delta_ops is not None and delta_ops >= self.max_delta_ops:
            return True
        if baseline_resources <= 0:
            return delta_ops > 0
        return delta_ops / baseline_resources >= self.max_delta_fraction

    def as_dict(self) -> Dict[str, object]:
        """The persisted form (engine and shard-manifest saves)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, object]]) -> "RefreshPolicy":
        """Inverse of :meth:`as_dict`; absent keys take the field defaults
        and unknown keys are ignored, so saves that predate a field (or the
        whole block), or carry one since removed, still load."""
        names = {field.name for field in fields(cls)}
        return cls(
            **{key: value for key, value in (payload or {}).items() if key in names}
        )


@dataclass(frozen=True)
class StalenessReport:
    """A snapshot of how far an engine has drifted from its last full fit.

    Attributes
    ----------
    epoch:
        Monotone mutation counter; bumped once per successful mutation
        batch, persisted with the engine.
    resources_added / resources_removed / resources_updated:
        Resource-level mutation counts since the last full fit.
    baseline_resources:
        Corpus size when the concept model was last fitted.
    current_resources:
        Corpus size now.
    refit_due:
        The attached :class:`RefreshPolicy`'s full-refit verdict.
    fold_in_due:
        Mutations are pending and the lazy idf/norm statistics are stale.
        Distinct from ``refit_due`` — clearing it costs milliseconds, not
        a Tucker fit.
    """

    epoch: int
    resources_added: int
    resources_removed: int
    resources_updated: int
    baseline_resources: int
    current_resources: int
    refit_due: bool
    fold_in_due: bool = False

    @property
    def delta_ops(self) -> int:
        """Total mutated resources since the last full fit."""
        return self.resources_added + self.resources_removed + self.resources_updated

    @property
    def delta_fraction(self) -> float:
        """Mutated resources relative to the fit-time corpus size."""
        if self.baseline_resources <= 0:
            return float(self.delta_ops > 0)
        return self.delta_ops / self.baseline_resources

    def as_dict(self) -> Dict[str, object]:
        """Plain dict view (used by persistence and reports)."""
        return {
            "epoch": self.epoch,
            "resources_added": self.resources_added,
            "resources_removed": self.resources_removed,
            "resources_updated": self.resources_updated,
            "baseline_resources": self.baseline_resources,
            "current_resources": self.current_resources,
            "delta_fraction": self.delta_fraction,
            "refit_due": self.refit_due,
            "fold_in_due": self.fold_in_due,
        }

    def summary(self) -> str:
        """One line for logs: epoch, drift and both maintenance verdicts."""
        return (
            f"epoch {self.epoch}: +{self.resources_added} "
            f"-{self.resources_removed} ~{self.resources_updated} resources "
            f"({self.delta_fraction:.1%} of the {self.baseline_resources} "
            f"fitted) -> refit {'DUE' if self.refit_due else 'not due'}, "
            f"fold-in {'DUE' if self.fold_in_due else 'not due'}"
        )


class EpochObservationLog:
    """A thread-safe log of the index epochs observed by snapshot reads.

    Workload replay workers record ``(reader, epoch)`` after every
    epoch-consistent query (``snapshot_rank_batch``).  Because an engine's
    epoch is a monotone mutation counter and each worker issues its reads
    sequentially, any *decrease* within one reader's observation stream
    proves a torn read — a query that scored against state older than one
    it had already seen — which is exactly the anomaly the serving layer's
    read/write discipline must rule out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._observations: List[Tuple[Hashable, int]] = []

    def record(self, reader: Hashable, epoch: int) -> None:
        """Append one observation for ``reader`` (any hashable worker id)."""
        with self._lock:
            self._observations.append((reader, int(epoch)))

    def observations(self) -> List[Tuple[Hashable, int]]:
        """All observations in arrival order (a copy)."""
        with self._lock:
            return list(self._observations)

    def __len__(self) -> int:
        with self._lock:
            return len(self._observations)

    @property
    def max_epoch(self) -> int:
        """The newest epoch any reader observed (-1 with no observations)."""
        with self._lock:
            if not self._observations:
                return -1
            return max(epoch for _, epoch in self._observations)

    def regressions(self) -> List[Tuple[Hashable, int, int]]:
        """Per-reader monotonicity violations: ``(reader, seen, then)``.

        Empty means every reader observed a non-decreasing epoch sequence —
        the pass verdict for the concurrent-replay invariant suite.
        """
        last_seen: Dict[Hashable, int] = {}
        violations: List[Tuple[Hashable, int, int]] = []
        for reader, epoch in self.observations():
            previous = last_seen.get(reader)
            if previous is not None and epoch < previous:
                violations.append((reader, previous, epoch))
            last_seen[reader] = epoch
        return violations
