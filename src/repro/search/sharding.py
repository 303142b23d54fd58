"""Sharding primitives: resource placement, top-k merge, the save manifest.

N shards are a save layout and a pool size, never an in-process engine:
:meth:`SearchEngine.save(..., num_shards=N) <repro.search.engine.SearchEngine.save>`
partitions the one space at write time and
:class:`~repro.search.shardpool.ShardProcessPool` serves one shard per
worker process.  This module is what both shard *with*:

* :class:`ShardRouter` — a stable hash (CRC-32) of the resource id places
  every resource on exactly one of N shards, identically in every process
  that ever routes for the same corpus.
* :func:`merge_topk` — heap-merges per-shard top-k lists under the
  engine-wide deterministic tie-break (descending score, ascending
  resource id); the pool's fan-out merge.
* :func:`read_shard_manifest` — the one reader of ``shard_manifest.json``,
  the file that ties a save directory's ``shard-NNNN/`` array dirs to the
  router, the concept model and the serving metadata.  Every engine save
  uses this layout (``num_shards=1`` writes ``shard-0000/``), so any saved
  index opens whole (``SearchEngine.load``), one shard per process
  (``SearchEngine.load_shard``) or under a ``ShardProcessPool``.

Each shard is a :meth:`MatrixConceptSpace.partition` slice that keeps the
*corpus-wide* vocabulary, idf vector and ``num_resources``, so it scores
its rows bit-for-bit like the unsharded space does.
"""

from __future__ import annotations

import heapq
import json
import zlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.search.matrix_space import validate_top_k
from repro.search.vsm import RankedResult
from repro.utils.errors import ConfigurationError, NotFittedError

#: Manifest file of an engine save directory.
SHARD_MANIFEST_FILENAME = "shard_manifest.json"

#: Bumped whenever the on-disk engine layout changes incompatibly.
SHARD_MANIFEST_VERSION = 1


def read_shard_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """The validated ``shard_manifest.json`` payload of a save directory."""
    path = Path(directory)
    manifest_path = path / SHARD_MANIFEST_FILENAME
    if not manifest_path.exists():
        if (path / "engine.json").exists():
            raise ConfigurationError(
                f"{path} holds the retired single-file engine layout "
                "(engine.json); re-save the index with the current code"
            )
        raise NotFittedError(f"no saved engine manifest under {path}")
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != SHARD_MANIFEST_VERSION:
        raise ConfigurationError(
            f"unsupported shard manifest version {version!r}"
        )
    router = ShardRouter.from_json(payload["router"])
    if len(payload["shards"]) != router.num_shards:
        raise ConfigurationError(
            f"manifest lists {len(payload['shards'])} shards but the router "
            f"expects {router.num_shards}"
        )
    return payload


class ShardRouter:
    """Stable placement of resources onto shards.

    Routing hashes the resource id with CRC-32 — deterministic across
    Python processes and runs (unlike the salted builtin ``hash``) — so the
    shard that indexed a resource is always the shard that serves, updates
    and removes it, in every process that loads the same manifest.  CRC-32
    spreads folksonomy-style ids (short strings with numeric suffixes)
    close to uniformly, which keeps the partition balanced without any
    shared placement table.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self._num_shards = int(num_shards)

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_of(self, resource: str) -> int:
        """The shard index owning ``resource`` (stable across processes)."""
        return zlib.crc32(resource.encode("utf-8")) % self._num_shards

    def to_json(self) -> Dict[str, object]:
        return {"algorithm": "crc32", "num_shards": self._num_shards}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ShardRouter":
        algorithm = payload.get("algorithm")
        if algorithm != "crc32":
            raise ConfigurationError(
                f"unsupported shard routing algorithm {algorithm!r}"
            )
        return cls(int(payload["num_shards"]))

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={self._num_shards})"


def merge_topk(
    shard_results: Sequence[Sequence[RankedResult]],
    top_k: Optional[int] = None,
) -> List[RankedResult]:
    """Heap-merge per-shard ranked lists into one global top-k.

    Every input list must already be sorted by the engine-wide total order
    — descending score, ties by ascending resource id — which is exactly
    what :func:`~repro.search.matrix_space.select_top_k` produces.  Because
    that order is *strict* (resource ids are globally unique) the k-way
    heap merge reproduces the monolithic ranking exactly, including when
    scores tie at the rank-k boundary: each shard already widened its own
    boundary tie group through
    :func:`~repro.search.matrix_space.boundary_tie_candidates` and kept its
    lowest-id members, so the global cut below keeps the globally lowest
    ids of the tie.  Ranks are renumbered to the merged positions.
    """
    validate_top_k(top_k)
    lists = [results for results in shard_results if results]
    if not lists:
        return []
    if len(lists) == 1:
        sliced = lists[0] if top_k is None else lists[0][:top_k]
        return [
            RankedResult(result.resource, result.score, position)
            for position, result in enumerate(sliced, start=1)
        ]
    out: List[RankedResult] = []
    ordered = heapq.merge(
        *lists, key=lambda result: (-result.score, result.resource)
    )
    for result in ordered:
        if top_k is not None and len(out) >= top_k:
            break
        out.append(RankedResult(result.resource, result.score, len(out) + 1))
    return out
