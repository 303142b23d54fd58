"""Social tagging system substrate.

This subpackage models the data layer of a social tagging service
(Delicious, Bibsonomy, Last.fm in the paper): users annotate resources with
free-form tags, producing a set of ``(user, tag, resource)`` assignments
called a *folksonomy*.

* :mod:`repro.tagging.entities` — value objects for users, tags, resources
  and tag assignments.
* :mod:`repro.tagging.folksonomy` — the in-memory triple store: int32 id
  columns over sorted interned vocabularies, with tag bags and
  tensor/matrix export derived from them.
* :mod:`repro.tagging.delta` — incremental assignment deltas
  (:class:`FolksonomyDelta`), merged into the sorted columns.
* :mod:`repro.tagging.cleaning` — the cleaning pipeline of Section VI-A
  (system-tag removal, lower-casing, iterative minimum-support filtering).
* :mod:`repro.tagging.io` — TSV / JSON-lines readers and writers.
* :mod:`repro.tagging.store` — directory-based persistence of datasets with
  their metadata and statistics.
* :mod:`repro.tagging.stats` — corpus statistics (Table II).
"""

from repro.tagging.entities import TagAssignment, PostKey
from repro.tagging.folksonomy import Folksonomy
from repro.tagging.delta import FolksonomyDelta, FolksonomyDeltaBuilder
from repro.tagging.cleaning import CleaningConfig, CleaningReport, clean_folksonomy
from repro.tagging.stats import DatasetStatistics, compute_statistics
from repro.tagging.io import (
    read_assignments_tsv,
    write_assignments_tsv,
    read_assignments_jsonl,
    write_assignments_jsonl,
)
from repro.tagging.store import FolksonomyStore

__all__ = [
    "TagAssignment",
    "PostKey",
    "Folksonomy",
    "FolksonomyDelta",
    "FolksonomyDeltaBuilder",
    "CleaningConfig",
    "CleaningReport",
    "clean_folksonomy",
    "DatasetStatistics",
    "compute_statistics",
    "read_assignments_tsv",
    "write_assignments_tsv",
    "read_assignments_jsonl",
    "write_assignments_jsonl",
    "FolksonomyStore",
]
