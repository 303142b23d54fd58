"""Concept-space information retrieval engine (Section III).

Resources and queries are represented as sparse tf-idf vectors (the paper's
plain idf) over the set of distilled concepts and ranked by cosine
similarity; a tag outside the concepts adds nothing.  The engine is
deliberately a classical VSM stack — the paper's point is that once concept
distillation has been done offline, online query processing is just cheap
dot products (Table VI).

* :mod:`repro.search.matrix_space` — the scoring backend: tf-idf weighting
  (Eq. 1-3) and cosine (Eq. 4) as term-major tf postings over stable row
  slots with idf applied per query term, one refresh routine for builds
  and fold-in mutations, raw ``.npy`` + JSON persistence.
* :mod:`repro.search.engine` — the user-facing query interface: a concept
  model over one matrix space, mutation fold-in and the on-disk engine
  layout (N shards are a save layout, partitioned at write time).
* :mod:`repro.search.vsm` / :mod:`repro.search.inverted_index` — the
  :class:`~repro.search.vsm.RankEngine` protocol every engine implements,
  plus the fit-once dict-loop reference of the same model (a test and
  benchmark oracle, not a serving path).
* :mod:`repro.search.incremental` — staleness accounting for incrementally
  updated engines (epochs, refresh policy, fold-in drift reports).
* :mod:`repro.search.sharding` — what saves and the pool shard with: the
  stable resource router, the heap top-k merge and the save-manifest
  reader.
* :mod:`repro.search.shardpool` — the opt-in process-per-shard serving
  pool: N is its size, one worker process per shard of an N-shard save
  (memory-mapped arrays, pipe IPC, typed failure handling).
* :mod:`repro.search.cache` — the LRU query result cache the serving
  front-end (:mod:`repro.serve.frontend`) owns.
* :mod:`repro.search.concurrency` — the reader/writer lock behind the
  engine's query-vs-mutation discipline.
* :mod:`repro.search.lifecycle` — engine lifecycle management: the
  swappable :class:`~repro.search.lifecycle.EngineHandle`, the replayable
  :class:`~repro.search.lifecycle.DeltaJournal`, and the
  :class:`~repro.search.lifecycle.RefitCoordinator` running background
  Tucker refits with double-buffered hot swaps.
"""

from repro.search.vsm import ConceptVectorSpace, RankedResult, RankEngine
from repro.search.inverted_index import InvertedIndex
from repro.search.concurrency import ReadWriteLock
from repro.search.matrix_space import (
    MatrixConceptSpace,
    boundary_tie_candidates,
    select_top_k,
)
from repro.search.incremental import (
    EpochObservationLog,
    RefreshPolicy,
    StalenessReport,
)
from repro.search.engine import SearchEngine
from repro.search.sharding import ShardRouter, merge_topk
from repro.search.shardpool import (
    PoolResult,
    ShardFailure,
    ShardPoolConfig,
    ShardPoolDegraded,
    ShardPoolError,
    ShardProcessPool,
)
from repro.search.lifecycle import (
    BackgroundRefit,
    DeltaJournal,
    EngineHandle,
    JournalEntry,
    RefitCoordinator,
    RefitResult,
    SwapReport,
    fold_mutations_into_folksonomy,
    replay_entries,
)

__all__ = [
    "ConceptVectorSpace",
    "RankedResult",
    "RankEngine",
    "InvertedIndex",
    "ReadWriteLock",
    "MatrixConceptSpace",
    "boundary_tie_candidates",
    "select_top_k",
    "EpochObservationLog",
    "RefreshPolicy",
    "StalenessReport",
    "SearchEngine",
    "ShardRouter",
    "merge_topk",
    "PoolResult",
    "ShardFailure",
    "ShardPoolConfig",
    "ShardPoolDegraded",
    "ShardPoolError",
    "ShardProcessPool",
    "BackgroundRefit",
    "DeltaJournal",
    "EngineHandle",
    "JournalEntry",
    "RefitCoordinator",
    "RefitResult",
    "SwapReport",
    "fold_mutations_into_folksonomy",
    "replay_entries",
]
