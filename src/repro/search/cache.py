"""An LRU result cache for the online query path.

Tag queries are heavily repeated in folksonomy workloads (head queries,
dashboard refreshes, pagination), and a ranked result list is immutable
between index mutations.  :class:`QueryCache` exploits both facts: results
are cached under the *canonicalized tag multiset* — ``["rock", "jazz"]``
and ``["jazz", "rock"]`` share an entry — together with ``top_k`` and the
engine's mutation *epoch*.  Because the epoch is part of the key, a stale
entry can never be served after a mutation or a hot swap: epochs are
strictly monotone across both (a swapped-in generation starts at ``old
epoch + 1``, a key the old generation never served), so nothing is ever
flushed — dead entries simply age out of the LRU end.

Its one owner is :class:`~repro.serve.frontend.BatchingFrontend`, which
probes it at the epoch it read and fills it at the epoch the engine
returned.  The cache is bounded by entry count (``max_entries``),
evicting from the LRU end.

The cache is thread-safe: one lock guards the ordered map *and* the
hit/miss/eviction counters, so it can be probed from many serving
threads and :meth:`stats` always returns a consistent snapshot (hits +
misses equals the number of lookups even mid-storm).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.search.vsm import RankedResult
from repro.utils.errors import ConfigurationError

#: Default number of cached result lists.
DEFAULT_MAX_ENTRIES = 1024


class QueryCache:
    """A bounded LRU map from canonical query keys to ranked result lists."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Tuple[RankedResult, ...]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def canonical_key(
        query_tags: Sequence[str], top_k: Optional[int], epoch: int
    ) -> Tuple[Tuple[str, ...], Optional[int], int]:
        """The cache key: sorted tag multiset + result size + index epoch.

        Sorting canonicalizes tag *order* while preserving multiplicity
        (``["a", "a"]`` and ``["a"]`` weigh tags differently and must not
        collide); the epoch ties the entry to one immutable index state.
        """
        return (tuple(sorted(query_tags)), top_k, int(epoch))

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[List[RankedResult]]:
        """The cached result list for ``key``, or ``None`` on a miss.

        A hit returns a fresh list (entries are immutable named tuples), so
        callers may mutate the returned list without corrupting the cache.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return list(entry)

    def put(self, key: Hashable, results: Sequence[RankedResult]) -> None:
        """Store ``results`` under ``key``, evicting LRU entries while the
        entry count is exceeded."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = tuple(results)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        with self._lock:
            lookups = self._hits + self._misses
            return self._hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        """A plain-dict snapshot for reports and logs.

        Every field is read under one lock acquisition, so the snapshot is
        internally consistent even while other threads keep mutating the
        cache (``hits + misses`` always equals the lookups performed up to
        one instant).
        """
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }
