"""Evaluation of the streaming-update workload: replaying delta batches.

The paper's evaluation covers a static corpus; incremental serving adds a
new axis — how does the engine behave while the corpus drifts under it?
:func:`replay_deltas` replays a stream of
:class:`~repro.tagging.delta.FolksonomyDelta` batches against a serving
:class:`~repro.core.pipeline.OfflineIndex`, timing each fold-in (and the
lazy refresh the next query pays) and recording the staleness trajectory,
so Table-VI-style "online stays cheap" claims can be checked for the
mutable path too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import OfflineIndex
from repro.search.incremental import StalenessReport
from repro.tagging.delta import FolksonomyDelta
from repro.utils.errors import ConfigurationError


@dataclass
class DeltaReplayStep:
    """Measurements for one replayed delta batch."""

    batch: int
    delta_size: int
    apply_seconds: float
    refresh_seconds: float
    staleness: StalenessReport

    @property
    def total_seconds(self) -> float:
        return self.apply_seconds + self.refresh_seconds


@dataclass
class DeltaReplayReport:
    """The full trajectory of a delta replay."""

    steps: List[DeltaReplayStep] = field(default_factory=list)

    @property
    def total_apply_seconds(self) -> float:
        return sum(step.apply_seconds for step in self.steps)

    @property
    def total_refresh_seconds(self) -> float:
        return sum(step.refresh_seconds for step in self.steps)

    @property
    def total_seconds(self) -> float:
        return self.total_apply_seconds + self.total_refresh_seconds

    @property
    def refit_due_after(self) -> Optional[int]:
        """Index of the first batch whose staleness crossed the policy, if any."""
        for position, step in enumerate(self.steps):
            if step.staleness.refit_due:
                return position
        return None

    def timing_rows(self) -> List[Dict[str, object]]:
        """Rows for :func:`repro.eval.reporting.format_table`."""
        return [
            {
                "Batch": step.batch,
                "Delta size": step.delta_size,
                "Apply (s)": round(step.apply_seconds, 6),
                "Refresh (s)": round(step.refresh_seconds, 6),
                "Drift": f"{step.staleness.delta_fraction:.1%}",
                "Refit due": step.staleness.refit_due,
            }
            for step in self.steps
        ]


def replay_deltas(
    index: OfflineIndex,
    deltas: Sequence[FolksonomyDelta],
    eager_refresh: bool = True,
) -> DeltaReplayReport:
    """Apply ``deltas`` in order to ``index``, timing every fold-in.

    With ``eager_refresh=True`` (default) each batch's lazy idf/norm
    recompute is forced immediately after the apply and timed separately,
    so the report splits "queueing the mutation" from "paying the refresh"
    — the two costs a serving process actually schedules.
    """
    if index.folksonomy is None:
        raise ConfigurationError(
            "delta replay needs an index that carries its folksonomy"
        )
    report = DeltaReplayReport()
    for batch, delta in enumerate(deltas):
        started = time.perf_counter()
        staleness = index.apply_delta(delta)
        applied = time.perf_counter()
        if eager_refresh:
            index.engine.refresh()
        finished = time.perf_counter()
        report.steps.append(
            DeltaReplayStep(
                batch=batch,
                delta_size=len(delta),
                apply_seconds=applied - started,
                refresh_seconds=finished - applied,
                staleness=staleness,
            )
        )
    return report
