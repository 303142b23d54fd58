"""Deterministic mixed-workload trace generation.

A :class:`WorkloadGenerator` turns a folksonomy into a reproducible stream
of serving operations — the traffic shape the ROADMAP's "heavy traffic
from many concurrent clients" north star demands but the hand-enumerated
parity suites never produce:

* **Zipf-skewed queries** — tag popularity in folksonomies is heavy-tailed,
  so query tags are drawn from a Zipf distribution over the vocabulary
  (a deterministic, seeded permutation decides which tags form the head);
* **cache-hot repeats** — a fraction of queries repeats a recently issued
  query verbatim, the access pattern the LRU result cache exists for;
* **mutations** — add/update/remove batches over the live resource set,
  generated against a simulated corpus so that every batch is valid when
  the trace is replayed *in order*;
* **refresh ticks** — explicit eager refreshes interleaved into the
  stream, forcing the lazily-folded statistics path to run mid-traffic.

Everything is derived from one integer seed through one
:class:`numpy.random.Generator`, so two generators with equal config and
seed emit byte-identical traces — the property that makes a trace a
*golden* artefact: replay it serially for the reference answer, replay it
concurrently for the stress run, and compare.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.errors import ConfigurationError

#: Operation kinds appearing in a trace.
QUERY = "query"
MUTATE = "mutate"
REFRESH = "refresh"


@dataclass(frozen=True)
class Operation:
    """One replayable serving operation.

    ``kind`` selects which payload fields are meaningful: queries carry
    ``query_tags`` and ``top_k``; mutations carry the three buckets plus
    ``mutation_seq`` — their zero-based position among the trace's
    mutations, which a concurrent replayer uses to apply them in exactly
    the serial order (queries carry no ordering constraint).

    ``tenant`` attributes the operation to a named client (empty =
    untenanted); :func:`repro.load.scenarios.multi_tenant_trace` stamps
    it, and the replay runner threads it through per-tenant admission
    and latency books.
    """

    index: int
    kind: str
    query_tags: Tuple[str, ...] = ()
    top_k: Optional[int] = None
    added: Dict[str, Dict[str, float]] = field(default_factory=dict)
    updated: Dict[str, Dict[str, float]] = field(default_factory=dict)
    removed: Tuple[str, ...] = ()
    mutation_seq: int = -1
    tenant: str = ""


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a generated workload trace.

    The operation mix is ``query_fraction`` queries, ``refresh_fraction``
    eager refresh ticks, and mutations for the remainder — the default is
    the paper-serving-realistic 90/10 read/write split with occasional
    refresh ticks.
    """

    num_operations: int = 400
    query_fraction: float = 0.9
    refresh_fraction: float = 0.02
    zipf_exponent: float = 1.1
    hot_fraction: float = 0.3
    hot_window: int = 16
    min_query_tags: int = 1
    max_query_tags: int = 3
    unknown_tag_fraction: float = 0.05
    top_k: Optional[int] = 10
    add_weight: float = 0.5
    update_weight: float = 0.3
    remove_weight: float = 0.2
    max_mutation_batch: int = 3
    max_bag_tags: int = 4
    min_live_resources: int = 8
    num_eval_queries: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_operations < 1:
            raise ConfigurationError(
                f"num_operations must be >= 1, got {self.num_operations}"
            )
        if not 0.0 <= self.query_fraction <= 1.0:
            raise ConfigurationError(
                f"query_fraction must be in [0, 1], got {self.query_fraction}"
            )
        if not 0.0 <= self.refresh_fraction <= 1.0:
            raise ConfigurationError(
                f"refresh_fraction must be in [0, 1], got {self.refresh_fraction}"
            )
        if self.query_fraction + self.refresh_fraction > 1.0:
            raise ConfigurationError(
                "query_fraction + refresh_fraction must not exceed 1.0"
            )
        if self.zipf_exponent <= 0.0:
            raise ConfigurationError(
                f"zipf_exponent must be positive, got {self.zipf_exponent}"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        if self.hot_window < 1:
            raise ConfigurationError(
                f"hot_window must be >= 1, got {self.hot_window}"
            )
        if not 1 <= self.min_query_tags <= self.max_query_tags:
            raise ConfigurationError(
                "need 1 <= min_query_tags <= max_query_tags, got "
                f"{self.min_query_tags}..{self.max_query_tags}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ConfigurationError(
                f"top_k must be >= 1 when given, got {self.top_k}"
            )
        weights = (self.add_weight, self.update_weight, self.remove_weight)
        if min(weights) < 0.0 or sum(weights) <= 0.0:
            raise ConfigurationError(
                "mutation weights must be non-negative with a positive sum"
            )
        if self.max_mutation_batch < 1:
            raise ConfigurationError(
                f"max_mutation_batch must be >= 1, got {self.max_mutation_batch}"
            )
        if self.min_live_resources < 1:
            raise ConfigurationError(
                f"min_live_resources must be >= 1, got {self.min_live_resources}"
            )


@dataclass(frozen=True)
class WorkloadTrace:
    """A generated operation stream plus its fixed evaluation probes.

    ``eval_queries`` are fresh (never-replayed) queries sampled from the
    same Zipf head; after a replay quiesces, ranking them against the
    final index is the parity probe the invariant checker compares across
    serial and concurrent runs.
    """

    operations: Tuple[Operation, ...]
    eval_queries: Tuple[Tuple[str, ...], ...]
    config: WorkloadConfig

    @property
    def num_mutations(self) -> int:
        """Mutation batches in the trace (== the final epoch delta)."""
        return sum(1 for op in self.operations if op.kind == MUTATE)

    def op_counts(self) -> Dict[str, int]:
        """Operations per kind (for reports and mix assertions)."""
        counts: Dict[str, int] = {}
        for op in self.operations:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.operations)


class WorkloadGenerator:
    """Seeded generator of :class:`WorkloadTrace` streams over a corpus."""

    def __init__(self, config: Optional[WorkloadConfig] = None) -> None:
        self.config = config or WorkloadConfig()

    def generate(self, folksonomy) -> WorkloadTrace:
        """Generate one deterministic trace over ``folksonomy``.

        The generator simulates the live resource set as it emits
        mutations, so a trace replayed *in operation order* never issues
        an invalid batch (no duplicate adds, no removes of missing
        resources, never draining the corpus below
        ``min_live_resources``).  Concurrent replayers must therefore
        apply mutations in ``mutation_seq`` order — which is also what
        makes their final state comparable to the serial golden replay.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        tags = sorted(folksonomy.tags)
        if not tags:
            raise ConfigurationError("cannot generate a workload over zero tags")
        zipf_probs = self._zipf_probabilities(rng, len(tags))

        live = sorted(folksonomy.resources)
        if len(live) < config.min_live_resources:
            raise ConfigurationError(
                f"corpus has {len(live)} resources but the workload floor is "
                f"{config.min_live_resources}"
            )
        operations: List[Operation] = []
        hot_queries: List[Tuple[str, ...]] = []
        mutation_seq = 0
        fresh_counter = 0

        # Clamp + renormalise: with query_fraction + refresh_fraction at
        # exactly 1.0 the float remainder can be a tiny negative, which
        # rng.choice rejects as a malformed probability vector.
        kind_probs = np.array(
            [
                config.query_fraction,
                config.refresh_fraction,
                max(
                    0.0,
                    1.0 - config.query_fraction - config.refresh_fraction,
                ),
            ]
        )
        kind_probs = kind_probs / kind_probs.sum()
        for index in range(config.num_operations):
            kind = [QUERY, REFRESH, MUTATE][
                int(rng.choice(3, p=kind_probs))
            ]
            if kind == MUTATE and len(live) <= config.min_live_resources:
                # Too close to the floor for a guaranteed-valid batch;
                # degrade to a query so the trace length stays exact.
                kind = QUERY
            if kind == QUERY:
                query = self._draw_query(rng, tags, zipf_probs, hot_queries)
                hot_queries.append(query)
                del hot_queries[: -config.hot_window]
                operations.append(
                    Operation(
                        index=index,
                        kind=QUERY,
                        query_tags=query,
                        top_k=config.top_k,
                    )
                )
            elif kind == REFRESH:
                operations.append(Operation(index=index, kind=REFRESH))
            else:
                added, updated, removed, fresh_counter = self._draw_mutation(
                    rng, tags, zipf_probs, live, fresh_counter
                )
                for resource in removed:
                    live.remove(resource)
                for resource in added:
                    self._insort(live, resource)
                operations.append(
                    Operation(
                        index=index,
                        kind=MUTATE,
                        added=added,
                        updated=updated,
                        removed=tuple(removed),
                        mutation_seq=mutation_seq,
                    )
                )
                mutation_seq += 1

        eval_queries = tuple(
            self._fresh_query(rng, tags, zipf_probs)
            for _ in range(config.num_eval_queries)
        )
        return WorkloadTrace(
            operations=tuple(operations),
            eval_queries=eval_queries,
            config=config,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _zipf_probabilities(
        self, rng: np.random.Generator, num_tags: int
    ) -> np.ndarray:
        """Zipf weights over the tag list, head chosen by a seeded shuffle.

        Without the shuffle the lexicographically-smallest tags would
        always form the head, which would correlate query popularity with
        the ranking tie-break order; the permutation decorrelates them
        while staying fully determined by the seed.
        """
        ranks = rng.permutation(num_tags) + 1
        weights = 1.0 / np.power(ranks.astype(np.float64), self.config.zipf_exponent)
        return weights / weights.sum()

    def _fresh_query(
        self,
        rng: np.random.Generator,
        tags: Sequence[str],
        zipf_probs: np.ndarray,
    ) -> Tuple[str, ...]:
        config = self.config
        size = int(
            rng.integers(config.min_query_tags, config.max_query_tags + 1)
        )
        size = min(size, len(tags))
        chosen = rng.choice(len(tags), size=size, replace=False, p=zipf_probs)
        query = [tags[i] for i in chosen]
        if rng.random() < config.unknown_tag_fraction:
            # An out-of-vocabulary tag exercises the unknown-term path:
            # it maps to no concept and adds nothing to the query.
            query.append(f"wl-unknown-{int(rng.integers(1000))}")
        return tuple(query)

    def _draw_query(
        self,
        rng: np.random.Generator,
        tags: Sequence[str],
        zipf_probs: np.ndarray,
        hot_queries: Sequence[Tuple[str, ...]],
    ) -> Tuple[str, ...]:
        if hot_queries and rng.random() < self.config.hot_fraction:
            return hot_queries[int(rng.integers(len(hot_queries)))]
        return self._fresh_query(rng, tags, zipf_probs)

    def _draw_bag(
        self,
        rng: np.random.Generator,
        tags: Sequence[str],
        zipf_probs: np.ndarray,
    ) -> Dict[str, float]:
        size = int(rng.integers(1, self.config.max_bag_tags + 1))
        size = min(size, len(tags))
        chosen = rng.choice(len(tags), size=size, replace=False, p=zipf_probs)
        return {tags[i]: float(rng.integers(1, 4)) for i in chosen}

    def _draw_mutation(
        self,
        rng: np.random.Generator,
        tags: Sequence[str],
        zipf_probs: np.ndarray,
        live: List[str],
        fresh_counter: int,
    ) -> Tuple[
        Dict[str, Dict[str, float]],
        Dict[str, Dict[str, float]],
        List[str],
        int,
    ]:
        config = self.config
        weights = np.array(
            [config.add_weight, config.update_weight, config.remove_weight]
        )
        weights = weights / weights.sum()
        batch_size = int(rng.integers(1, config.max_mutation_batch + 1))
        added: Dict[str, Dict[str, float]] = {}
        updated: Dict[str, Dict[str, float]] = {}
        removed: List[str] = []
        touched: set = set()
        headroom = len(live) - config.min_live_resources
        for _ in range(batch_size):
            op = int(rng.choice(3, p=weights))
            if op == 0:
                resource = f"wl-{fresh_counter:05d}"
                fresh_counter += 1
                added[resource] = self._draw_bag(rng, tags, zipf_probs)
                touched.add(resource)
                headroom += 1
                continue
            # update/remove need an untouched live victim; fall back to an
            # add when the batch already touched everything reachable.
            candidates = [r for r in live if r not in touched]
            if not candidates or (op == 2 and headroom <= 0):
                resource = f"wl-{fresh_counter:05d}"
                fresh_counter += 1
                added[resource] = self._draw_bag(rng, tags, zipf_probs)
                touched.add(resource)
                headroom += 1
                continue
            victim = candidates[int(rng.integers(len(candidates)))]
            touched.add(victim)
            if op == 1:
                updated[victim] = self._draw_bag(rng, tags, zipf_probs)
            else:
                removed.append(victim)
                headroom -= 1
        return added, updated, removed, fresh_counter

    @staticmethod
    def _insort(live: List[str], resource: str) -> None:
        """Insert keeping ``live`` sorted (victim draws stay deterministic)."""
        bisect.insort(live, resource)
