"""Versioned on-disk generations of serving indexes.

An :class:`IndexSnapshotStore` manages one line of immutable
:class:`~repro.core.pipeline.OfflineIndex` publishes::

    root/
      gen-0001/         <- a published index (first fit or a refit output)
      gen-0002/         <- the next one
      CURRENT           <- atomic pointer at the serving generation

Every publish is saved with ``include_folksonomy=True``, so a restored
index can keep folding :class:`~repro.tagging.delta.FolksonomyDelta`
batches in via ``OfflineIndex.apply_delta`` and the next refit can fit
from it.  A serving process checkpoints its mutation stream by publishing
the next generation, restarts from :meth:`load_current`, and bounds disk
with :meth:`gc_generations`.

The lifecycle pipeline (:mod:`repro.search.lifecycle`) publishes ``gen-N``
first, swaps it into serving, then flips the ``CURRENT`` pointer — a
restart that reads :meth:`load_current` can therefore never observe a
generation that wasn't fully on disk, and :meth:`gc_generations` never
deletes the pointed-at generation.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import List, Optional, Union

from repro.core.pipeline import OfflineIndex
from repro.utils.errors import ConfigurationError, NotFittedError

_GENERATION_DIR_PATTERN = re.compile(r"^gen-(\d{4,})$")

#: File under the store root holding the atomic current-generation pointer.
CURRENT_POINTER_NAME = "CURRENT"


class IndexSnapshotStore:
    """Publishes and restores numbered index generations under a root dir."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def _generation_dir(self, generation: int) -> Path:
        return self._root / f"gen-{generation:04d}"

    def publish(
        self,
        index: OfflineIndex,
        generation: Optional[int] = None,
        make_current: bool = True,
        num_shards: int = 1,
    ) -> Path:
        """Write ``index`` as generation ``generation`` (next free by default).

        Publishing stages then renames, so a torn write never becomes a
        listed generation.  ``make_current=False`` defers
        the pointer flip — the lifecycle coordinator publishes first,
        swaps serving, and only then calls :meth:`set_current`, so the
        pointer always names a generation that is actually serving.
        """
        if index.folksonomy is None:
            raise ConfigurationError(
                "published generations persist the folksonomy so the next "
                "refit can fit from them; this index carries none"
            )
        if generation is None:
            latest = self.latest_generation()
            generation = 1 if latest is None else latest + 1
        if generation < 1:
            raise ConfigurationError(f"generation must be >= 1, got {generation}")
        directory = self._generation_dir(generation)
        if directory.exists():
            raise ConfigurationError(
                f"generation {generation} already published under {self._root}; "
                "generations are immutable — publish the next number instead"
            )
        staging = self._root / f".staging-gen-{generation:04d}"
        if staging.exists():
            shutil.rmtree(staging)
        index.save(staging, include_folksonomy=True, num_shards=num_shards)
        staging.replace(directory)
        if make_current:
            self.set_current(generation)
        return directory

    def set_current(self, generation: int) -> None:
        """Atomically point ``CURRENT`` at a published generation."""
        directory = self._generation_dir(generation)
        if not directory.exists():
            raise ConfigurationError(
                f"cannot mark generation {generation} current: nothing "
                f"published at {directory}"
            )
        pointer = self._root / CURRENT_POINTER_NAME
        # Write-then-rename: readers of the pointer see the old generation
        # or the new one, never a torn file.
        staging = self._root / f".{CURRENT_POINTER_NAME}.tmp"
        staging.write_text(
            json.dumps({"generation": generation, "path": directory.name}),
            encoding="utf-8",
        )
        os.replace(staging, pointer)

    def current_generation(self) -> Optional[int]:
        """The pointed-at generation, or ``None`` before any pointer flip."""
        pointer = self._root / CURRENT_POINTER_NAME
        if not pointer.exists():
            return None
        payload = json.loads(pointer.read_text(encoding="utf-8"))
        return int(payload["generation"])

    def generations(self) -> List[int]:
        """Numbers of all published generations, ascending."""
        found = []
        for child in self._root.iterdir():
            match = _GENERATION_DIR_PATTERN.match(child.name)
            if match and child.is_dir():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_generation(self) -> Optional[int]:
        generations = self.generations()
        return generations[-1] if generations else None

    def load_generation(self, generation: int) -> OfflineIndex:
        directory = self._generation_dir(generation)
        if not directory.exists():
            raise NotFittedError(
                f"no generation {generation} published under {self._root}"
            )
        return OfflineIndex.load(directory)

    def load_current(self) -> OfflineIndex:
        """Restore the generation the ``CURRENT`` pointer names."""
        generation = self.current_generation()
        if generation is None:
            raise NotFittedError(
                f"no current generation under {self._root}; publish one first"
            )
        return self.load_generation(generation)

    def retire_generation(self, generation: int) -> None:
        """Delete one stale published generation (the current one is refused)."""
        if generation == self.current_generation():
            raise ConfigurationError(
                f"generation {generation} is the current serving generation; "
                "flip the pointer before retiring it"
            )
        directory = self._generation_dir(generation)
        if not directory.exists():
            raise NotFittedError(
                f"no generation {generation} published under {self._root}"
            )
        shutil.rmtree(directory)

    def gc_generations(self, keep_last: int = 2) -> List[int]:
        """Retire all but the newest ``keep_last`` generations.

        The current generation is always kept, even when it has fallen
        outside the newest window (a rolled-back pointer must stay
        loadable).  Returns the generations dropped.
        """
        if keep_last < 1:
            raise ConfigurationError(f"keep_last must be >= 1, got {keep_last}")
        generations = self.generations()
        current = self.current_generation()
        doomed = [
            generation
            for generation in generations[:-keep_last]
            if generation != current
        ]
        for generation in doomed:
            shutil.rmtree(self._generation_dir(generation))
        return doomed
