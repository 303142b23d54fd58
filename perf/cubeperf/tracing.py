"""In-memory spans recorded around calls into ``src/repro``.

No span lives inside the library yet (that is a later issue), so the tree
is built from outside: the span of a workload operation is the parent, and
the layer calls that operation is made of are *replayed* on the same input
right after it and recorded as its children (``"replayed": true``).  A
layer's self time is its span minus those children.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np


class Tracer:
    """Collects spans; safe to record from several client threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        # next() on a count is atomic under the GIL, len(list) + append is not.
        self._ids = itertools.count()

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        replayed: bool = False,
    ) -> Iterator[int]:
        """Time the body; yields the span id for children to name as parent."""
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "op": op,
        }
        if replayed:
            record["replayed"] = True
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["id"]  # type: ignore[misc]
        finally:
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every finished span called ``name``, in record order."""
        return np.array(
            [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        )

    def self_times(self, name: str) -> np.ndarray:
        """Per span called ``name``: its duration minus its children's."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = (
                    children.get(span["parent"], 0.0)
                    + span["end"]
                    - span["start"]
                )
        return np.array(
            [
                s["end"] - s["start"] - children.get(s["id"], 0.0)
                for s in self.spans
                if s["name"] == name
            ]
        )

    def write(self, path: Path, **header: object) -> None:
        """Dump ``{**header, "spans": [...]}`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({**header, "spans": self.spans}), encoding="utf-8"
        )
