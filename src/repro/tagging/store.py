"""Directory-based persistence for folksonomy datasets.

A :class:`FolksonomyStore` manages a directory of named datasets.  Each
dataset is stored as

* ``<name>/assignments.tsv`` — the assignment log,
* ``<name>/metadata.json`` — dataset name, statistics and free-form metadata.

The store is what the example scripts use to cache generated
corpora between runs, playing the role of the crawled dumps the paper's
authors kept on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.tagging.folksonomy import Folksonomy
from repro.tagging.io import read_assignments_tsv, write_assignments_tsv
from repro.tagging.stats import compute_statistics
from repro.utils.errors import DataFormatError

PathLike = Union[str, Path]

_ASSIGNMENTS_FILE = "assignments.tsv"
_METADATA_FILE = "metadata.json"


@dataclass(frozen=True)
class DatasetRecord:
    """Metadata describing one stored dataset."""

    name: str
    num_users: int
    num_tags: int
    num_resources: int
    num_assignments: int
    metadata: Dict[str, object]


class FolksonomyStore:
    """Saves and loads folksonomies under a root directory."""

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def _dataset_dir(self, name: str) -> Path:
        safe = name.strip()
        if not safe or "/" in safe or safe.startswith("."):
            raise DataFormatError(f"invalid dataset name {safe!r}")
        return self._root / safe

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def save(
        self,
        folksonomy: Folksonomy,
        name: Optional[str] = None,
        metadata: Optional[Dict[str, object]] = None,
        overwrite: bool = True,
    ) -> DatasetRecord:
        """Persist ``folksonomy`` under ``name`` (defaults to its own name)."""
        name = name or folksonomy.name
        directory = self._dataset_dir(name)
        if directory.exists() and not overwrite:
            raise DataFormatError(f"dataset {name!r} already exists")
        directory.mkdir(parents=True, exist_ok=True)

        write_assignments_tsv(folksonomy.assignments, directory / _ASSIGNMENTS_FILE)
        stats = compute_statistics(folksonomy)
        record = DatasetRecord(
            name=name,
            num_users=stats.num_users,
            num_tags=stats.num_tags,
            num_resources=stats.num_resources,
            num_assignments=stats.num_assignments,
            metadata=dict(metadata or {}),
        )
        payload = {
            "name": record.name,
            "statistics": {
                "num_users": record.num_users,
                "num_tags": record.num_tags,
                "num_resources": record.num_resources,
                "num_assignments": record.num_assignments,
            },
            "metadata": record.metadata,
        }
        with (directory / _METADATA_FILE).open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        return record

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def exists(self, name: str) -> bool:
        directory = self._dataset_dir(name)
        return (directory / _ASSIGNMENTS_FILE).exists()

    def load(self, name: str) -> Folksonomy:
        """Load the dataset stored under ``name``."""
        directory = self._dataset_dir(name)
        assignments_path = directory / _ASSIGNMENTS_FILE
        if not assignments_path.exists():
            raise DataFormatError(f"no dataset named {name!r} in {self._root}")
        assignments = list(read_assignments_tsv(assignments_path))
        return Folksonomy(assignments, name=name)

    def describe(self, name: str) -> DatasetRecord:
        """Load only the metadata record of a stored dataset."""
        directory = self._dataset_dir(name)
        metadata_path = directory / _METADATA_FILE
        if not metadata_path.exists():
            raise DataFormatError(f"no metadata for dataset {name!r}")
        with metadata_path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        stats = payload.get("statistics", {})
        return DatasetRecord(
            name=payload.get("name", name),
            num_users=int(stats.get("num_users", 0)),
            num_tags=int(stats.get("num_tags", 0)),
            num_resources=int(stats.get("num_resources", 0)),
            num_assignments=int(stats.get("num_assignments", 0)),
            metadata=dict(payload.get("metadata", {})),
        )

    def list_datasets(self) -> List[str]:
        """Names of all datasets currently stored, sorted."""
        names = []
        for child in sorted(self._root.iterdir()):
            if child.is_dir() and (child / _ASSIGNMENTS_FILE).exists():
                names.append(child.name)
        return names

    def delete(self, name: str) -> None:
        """Remove a stored dataset (no error if it does not exist)."""
        directory = self._dataset_dir(name)
        if not directory.exists():
            return
        for child in directory.iterdir():
            child.unlink()
        directory.rmdir()

    def load_or_create(self, name: str, factory) -> Folksonomy:
        """Load ``name`` if present, otherwise build it with ``factory`` and save it.

        ``factory`` is a zero-argument callable returning a
        :class:`Folksonomy`; this is the caching hook the examples use.
        """
        if self.exists(name):
            return self.load(name)
        folksonomy = factory()
        self.save(folksonomy, name=name)
        return folksonomy
