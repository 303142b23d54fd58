"""The four workloads: inputs from a seed, set-up, timed rounds, checks.

A workload object is built from ``(seed, sizes)`` and nothing else; the
library under test only ever receives the generated inputs, never a
workload name.  The four workloads use only ``CubeLSIPipeline.fit``,
``SearchEngine.build/search/rank_batch/apply_mutations/refresh``,
``BatchingFrontend``, ``WorkloadGenerator`` and the dataset generators, so
a simplicity PR that deletes an optional layer does not have to touch
them (the optional layers are probed in :mod:`cubeperf.ladder`).

All serving loops are *closed*: a client sends its next request only after
the previous reply.  An open-loop rate ladder was prototyped and rejected —
see ``perf/README.md``.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.concepts import distill_concepts
from repro.core.distances import (
    pairwise_distances_materialized,
    pairwise_distances_shortcut,
    sigma_from_core,
    tag_distance_matrix,
)
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.datasets.profiles import (
    BIBSONOMY_PROFILE,
    DELICIOUS_PROFILE,
    generate_profile_dataset,
    scaled_profile,
)
from repro.datasets.queries import build_query_workload
from repro.load import (
    MUTATE,
    QUERY,
    WorkloadConfig,
    WorkloadGenerator,
    quiesced_rankings,
)
from repro.search.engine import SearchEngine
from repro.search.matrix_space import MatrixConceptSpace
from repro.serve import BatchingFrontend, FrontendConfig
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.tensor.hosvd import hosvd
from repro.tensor.tucker import tucker_als

from cubeperf import oracle
from cubeperf.tracing import Tracer

TOP_K = 10
QUERY_MIXES = 4
NUM_CONCEPTS = 45
#: A client gives up on a reply after this long; the run must end in 180 s.
REPLY_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Sizes:
    """Corpus and trace sizes; ``FULL`` is the benchmark, ``QUICK`` a smoke."""

    setup_reps: int
    fit_scale: float
    warm_scale: float
    serving_users: int
    serving_resources: int
    serving_posts: float
    model_scale: float
    steady_queries: int
    steady_warmup: int
    frontend_queries: int
    mixed_scale: float
    mixed_ops: int
    judged_queries: int
    probes: int
    rung_sample: int


#: Rounds were cut to fit the driver's time cap (92 runs in 3420 s): the
#: serving corpus keeps the paper's Bibsonomy size, the offline corpus is
#: delicious at scale 2.0 (one fit ~3.7 s, three per run) instead of 3.0.
FULL = Sizes(
    setup_reps=3,
    fit_scale=2.0,
    warm_scale=0.25,
    serving_users=730,
    serving_resources=35700,
    serving_posts=120.0,
    model_scale=1.0,
    steady_queries=1500,
    steady_warmup=200,
    frontend_queries=2400,
    mixed_scale=2.0,
    mixed_ops=2000,
    judged_queries=64,
    probes=50,
    rung_sample=500,
)

QUICK = Sizes(
    setup_reps=1,
    fit_scale=0.5,
    warm_scale=0.2,
    serving_users=150,
    serving_resources=600,
    serving_posts=25.0,
    model_scale=0.5,
    steady_queries=300,
    steady_warmup=50,
    frontend_queries=300,
    mixed_scale=0.5,
    mixed_ops=300,
    judged_queries=32,
    probes=40,
    rung_sample=60,
)


class Round(NamedTuple):
    """One pass over the workload's operations."""

    latencies: np.ndarray  # seconds, one per operation
    wall: float  # seconds the round's operations took together
    failed: int  # operations that raised or were shed


def pipeline() -> CubeLSIPipeline:
    return CubeLSIPipeline(num_concepts=NUM_CONCEPTS, seed=0)


def clean(folksonomy):
    return clean_folksonomy(folksonomy, CleaningConfig(min_assignments=5))[0]


class Workload:
    """What :func:`cubeperf.runner.run_workload` drives."""

    name = ""
    clients = 1
    generate_s = 0.0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.absent: List[str] = []
        self._reported: Set[str] = set()

    def note_failure(self, error: BaseException) -> None:
        """Print the first traceback of each failure type; the op counts as failed."""
        kind = type(error).__name__
        if kind not in self._reported:
            self._reported.add(kind)
            traceback.print_exception(error, file=sys.stderr)

    def judged(self, corpus, num_queries: int):
        """Queries with ground-truth relevance over ``corpus`` (for ``ndcg10``)."""
        return build_query_workload(
            self.dataset,
            num_queries=num_queries,
            seed=self.seed + 1000,
            folksonomy=corpus,
        )

    def set_up(self) -> None:
        """Program-side set-up; may be called several times."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed operations before the first round."""

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """``(answers checked, answers wrong)``."""
        raise NotImplementedError

    def ndcg10(self) -> float:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# fit_offline
# --------------------------------------------------------------------- #
class FitOffline(Workload):
    name = "fit_offline"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        started = time.perf_counter()
        self.dataset = generate_profile_dataset(
            DELICIOUS_PROFILE, scale=sizes.fit_scale, seed=seed
        )
        self.warm_dataset = generate_profile_dataset(
            DELICIOUS_PROFILE, scale=sizes.warm_scale, seed=seed
        )
        self.generate_s = time.perf_counter() - started
        self.first_index = None
        self.last_index = None

    def set_up(self) -> None:
        self.cleaned = clean(self.dataset.folksonomy)
        # The discarded warm-up fit: BLAS threads, lazy imports, allocator.
        self.warm_index = pipeline().fit(clean(self.warm_dataset.folksonomy))

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        started = time.perf_counter()
        failed = 0
        try:
            if tracer is None:
                index = pipeline().fit(self.cleaned)
                elapsed = time.perf_counter() - started
            else:
                index = self._staged_fit(tracer)
                elapsed = float(tracer.durations("fit_offline.fit")[-1])
            self.first_index = self.first_index or index
            self.last_index = index
        except Exception as error:  # noqa: BLE001 - count, report, keep going
            self.note_failure(error)
            failed = 1
            elapsed = time.perf_counter() - started
        return Round(np.array([elapsed]), elapsed, failed)

    def _staged_fit(self, tracer: Tracer):
        """``pipeline().fit`` replayed stage by stage, one span per layer call.

        Needs the ranks of a prior fit, so a traced round follows an
        untraced one.  HOSVD (the ALS initialiser) and the matrix compile
        run inside their parents; they are replayed alone afterwards and
        recorded as children so the parents' self time can be read off.
        """
        cleaned = self.cleaned
        ranks = self.last_index.cubelsi_result.ranks
        with tracer.span("fit_offline.fit", op=0) as root:
            with tracer.span("tagging.to_tensor", root, 0):
                tensor = cleaned.to_tensor()
            with tracer.span("tensor.tucker_als", root, 0) as als:
                decomposition = tucker_als(
                    tensor, ranks=ranks, max_iter=25, tol=1e-6, seed=0
                )
            with tracer.span("core.tag_distances", root, 0):
                distances = tag_distance_matrix(decomposition)
            with tracer.span("core.distill_concepts", root, 0):
                concept_model = distill_concepts(
                    distances,
                    tags=cleaned.tags,
                    num_concepts=min(NUM_CONCEPTS, cleaned.num_tags),
                    seed=0,
                )
            with tracer.span("search.engine_build", root, 0) as build:
                engine = SearchEngine.build(cleaned, concept_model)
        with tracer.span("tensor.hosvd", als, 0, replayed=True):
            hosvd(tensor, ranks=ranks, seed=0)
        reference = oracle.DictLoopOracle.of_folksonomy(concept_model, cleaned)
        with tracer.span("search.matrix_compile", build, 0, replayed=True):
            MatrixConceptSpace.compile(reference.space)
        self.traced_tensor = tensor
        self.traced_decomposition = decomposition
        return OfflineIndex(concept_model=concept_model, engine=engine, timings={})

    @cached_property
    def judged_queries(self):
        return self.judged(self.cleaned, 4 * self.sizes.judged_queries)

    def check(self) -> Tuple[int, int]:
        """Theorem-1 shortcut == materialised distances; fits are repeatable."""
        if self.last_index is None:
            return 2, 2
        decomposition = self.warm_index.cubelsi_result.decomposition
        shortcut = pairwise_distances_shortcut(
            decomposition.factors[1], sigma_from_core(decomposition.core)
        )
        gap = np.max(np.abs(shortcut - pairwise_distances_materialized(decomposition)))
        wrong = int(not gap <= 1e-9)
        probes = [list(q.tags) for q in self.judged_queries][: self.sizes.probes]
        wrong += int(
            oracle.count_mismatches(
                self.last_index.engine.rank_batch(probes, top_k=TOP_K),
                self.first_index.engine.rank_batch(probes, top_k=TOP_K),
                TOP_K,
            )
            > 0
        )
        return 2, wrong

    def ndcg10(self) -> float:
        return oracle.ndcg10(self.last_index.engine.search, self.judged_queries)


# --------------------------------------------------------------------- #
# The serving corpus shared by query_steady and query_frontend
# --------------------------------------------------------------------- #
class ServingInputs(NamedTuple):
    dataset: object  # the big corpus, generated clean (no noise tags)
    model_dataset: object  # the stock-profile corpus the concept model is fit on
    generate_s: float


@lru_cache(maxsize=2)
def serving_inputs(seed: int, sizes: Sizes) -> ServingInputs:
    """The paper-sized Bibsonomy serving corpus and its set-up-fit corpus."""
    started = time.perf_counter()
    profile = scaled_profile(
        BIBSONOMY_PROFILE,
        base_users=sizes.serving_users,
        base_resources=sizes.serving_resources,
        mean_posts_per_user=sizes.serving_posts,
    )
    dataset = generate_profile_dataset(
        profile, scale=1.0, seed=seed, include_noise_tags=False
    )
    model_dataset = generate_profile_dataset(
        BIBSONOMY_PROFILE, scale=sizes.model_scale, seed=seed
    )
    return ServingInputs(dataset, model_dataset, time.perf_counter() - started)


class _Serving(Workload):
    """Set-up, judged queries and the oracle shared by both query workloads."""

    num_queries = 0
    hot_fraction = 0.0
    trace_seed_offset = 0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        inputs = serving_inputs(seed, sizes)
        self.dataset, self.model_dataset, self.generate_s = inputs
        self.corpus = self.dataset.folksonomy
        started = time.perf_counter()
        # A trace's Zipf head is a seeded permutation of ~76 tags, and three
        # of them draw 40% of the queries: which tags a seed favours decides
        # how many rows a round scores.  A round is therefore QUERY_MIXES
        # traces with different heads, so its cost depends less on the seed.
        self.queries = []
        for mix in range(QUERY_MIXES):
            trace = WorkloadGenerator(
                WorkloadConfig(
                    num_operations=self.num_queries // QUERY_MIXES,
                    query_fraction=1.0,
                    refresh_fraction=0.0,
                    hot_fraction=self.hot_fraction,
                    top_k=TOP_K,
                    seed=seed + self.trace_seed_offset + 1000 * mix,
                )
            ).generate(self.corpus)
            self.queries.extend(list(op.query_tags) for op in trace.operations)
        self.generate_s += time.perf_counter() - started

    def set_up(self) -> None:
        self.concept_model = (
            pipeline().fit(clean(self.model_dataset.folksonomy)).concept_model
        )
        self.engine = SearchEngine.build(self.corpus, self.concept_model)

    @cached_property
    def judged_queries(self):
        return self.judged(self.corpus, self.sizes.judged_queries)


# --------------------------------------------------------------------- #
# query_steady
# --------------------------------------------------------------------- #
class QuerySteady(_Serving):
    name = "query_steady"
    trace_seed_offset = 1

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.num_queries = sizes.steady_queries
        super().__init__(seed, sizes)

    def warm_up(self) -> None:
        for tags in self.queries[: self.sizes.steady_warmup]:
            self.engine.search(tags, top_k=TOP_K)

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        engine = self.engine
        latencies = np.empty(len(self.queries))
        failed = 0
        for position, tags in enumerate(self.queries):
            started = time.perf_counter()
            try:
                if tracer is None:
                    engine.search(tags, top_k=TOP_K)
                else:
                    with tracer.span("search.engine_search", op=position) as span:
                        engine.search(tags, top_k=TOP_K)
            except Exception as error:  # noqa: BLE001 - count, report, go on
                self.note_failure(error)
                failed += 1
            latencies[position] = time.perf_counter() - started
            if tracer is not None:
                self._replay_layers(tracer, span, position, tags)
        # The sum, not the loop's wall: a traced round interleaves replays.
        return Round(latencies, float(latencies.sum()), failed)

    def _replay_layers(self, tracer: Tracer, parent: int, position: int, tags) -> None:
        """The two layer calls ``engine.search`` is made of, on the same input."""
        engine = self.engine
        with tracer.span("core.query_concepts", parent, position, replayed=True):
            bag = engine.query_concepts(tags)
        if bag:
            with tracer.span("search.matrix_rank", parent, position, replayed=True):
                engine.matrix_space.rank(bag, top_k=TOP_K)

    def check(self) -> Tuple[int, int]:
        reference = oracle.DictLoopOracle.of_folksonomy(
            self.concept_model, self.corpus
        )
        probes = self.queries[: self.sizes.probes]
        wrong = oracle.count_mismatches(
            [self.engine.search(tags, top_k=TOP_K) for tags in probes],
            [reference.rank(tags, TOP_K) for tags in probes],
            TOP_K,
        )
        return len(probes), wrong

    def ndcg10(self) -> float:
        return oracle.ndcg10(self.engine.search, self.judged_queries)


# --------------------------------------------------------------------- #
# query_frontend
# --------------------------------------------------------------------- #
class QueryFrontend(_Serving):
    name = "query_frontend"
    clients = 2
    hot_fraction = 0.3
    trace_seed_offset = 2

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.num_queries = sizes.frontend_queries
        super().__init__(seed, sizes)
        self.responses: List[List[object]] = []
        self.frontend_stats: Dict[str, object] = {}
        self.frontend_metrics = None

    def run_round(
        self,
        tracer: Optional[Tracer] = None,
        config: Optional[FrontendConfig] = None,
        clients: Optional[int] = None,
    ) -> Round:
        """A fresh front-end (cold cache); client ``c`` takes ``queries[c::n]``."""
        clients = clients or self.clients
        parts = [self.queries[c::clients] for c in range(clients)]
        latencies = [np.empty(len(part)) for part in parts]
        responses: List[List[object]] = [[None] * len(part) for part in parts]
        failures = [0] * clients
        frontend = BatchingFrontend(self.engine, config or FrontendConfig())

        def client(c: int) -> None:
            for position, tags in enumerate(parts[c]):
                started = time.perf_counter()
                try:
                    if tracer is None:
                        future = frontend.submit(tags, top_k=TOP_K)
                        reply = future.result(REPLY_TIMEOUT_S)
                    else:
                        op = position * clients + c
                        with tracer.span("serve.frontend_query", op=op) as span:
                            with tracer.span("serve.submit", span, op):
                                future = frontend.submit(tags, top_k=TOP_K)
                            reply = future.result(REPLY_TIMEOUT_S)
                    responses[c][position] = reply
                except Exception as error:  # noqa: BLE001 - shed or failed
                    self.note_failure(error)
                    failures[c] += 1
                latencies[c][position] = time.perf_counter() - started

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(clients)
        ]
        try:
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            self.frontend_stats = frontend.stats()
            self.frontend_metrics = frontend.metrics
        finally:
            frontend.close()
        # Back in submission order: response i answers queries[i].
        merged: List[object] = [None] * len(self.queries)
        for c in range(clients):
            merged[c::clients] = responses[c]
        self.responses = merged
        self.client_latencies = np.empty(len(self.queries))
        for c in range(clients):
            self.client_latencies[c::clients] = latencies[c]
        return Round(np.concatenate(latencies), wall, sum(failures))

    def check(self) -> Tuple[int, int]:
        """Every response of the last round vs direct ``engine.rank_batch``."""
        want = self.engine.rank_batch(self.queries, top_k=TOP_K)
        answered = [
            (reply.results, reference)
            for reply, reference in zip(self.responses, want)
            if reply is not None  # unanswered ones were counted as failed ops
        ]
        wrong = oracle.count_mismatches(
            [got for got, _ in answered], [ref for _, ref in answered], TOP_K
        )
        return len(answered), wrong

    def ndcg10(self) -> float:
        with BatchingFrontend(self.engine, FrontendConfig()) as frontend:
            return oracle.ndcg10(frontend.query, self.judged_queries)


# --------------------------------------------------------------------- #
# mixed_rw
# --------------------------------------------------------------------- #
class MixedRW(Workload):
    name = "mixed_rw"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        started = time.perf_counter()
        self.dataset = generate_profile_dataset(
            DELICIOUS_PROFILE, scale=sizes.mixed_scale, seed=seed
        )
        # The trace is drawn over the cleaned corpus; cleaning here (and
        # again, timed, in set_up) keeps input synthesis out of setup_s.
        self.trace = WorkloadGenerator(
            WorkloadConfig(num_operations=sizes.mixed_ops, seed=seed + 3)
        ).generate(clean(self.dataset.folksonomy))
        self.generate_s = time.perf_counter() - started
        kinds = [op.kind for op in self.trace.operations]
        self.kinds = np.array(kinds)
        #: a query that directly follows a mutation batch pays the lazy refresh
        self.fresh = np.array(
            [
                kind == QUERY and position > 0 and kinds[position - 1] == MUTATE
                for position, kind in enumerate(kinds)
            ]
        )
        self.end_states: List[Tuple[int, int]] = []

    def set_up(self) -> None:
        self.cleaned = clean(self.dataset.folksonomy)
        self.concept_model = pipeline().fit(self.cleaned).concept_model
        self.engine = SearchEngine.build(self.cleaned, self.concept_model)

    @staticmethod
    def dispatch(engine, op) -> None:
        if op.kind == QUERY:
            engine.search(list(op.query_tags), top_k=op.top_k)
        elif op.kind == MUTATE:
            engine.apply_mutations(
                added=op.added, updated=op.updated, removed=op.removed
            )
        else:
            engine.refresh()

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        """Serial replay against a fresh engine, one raw timer per op."""
        engine = SearchEngine.build(self.cleaned, self.concept_model)
        operations = self.trace.operations
        latencies = np.empty(len(operations))
        failed = 0
        round_started = time.perf_counter()
        for position, op in enumerate(operations):
            started = time.perf_counter()
            try:
                if tracer is None:
                    self.dispatch(engine, op)
                else:
                    with tracer.span(f"search.{op.kind}", op=position):
                        self.dispatch(engine, op)
            except Exception as error:  # noqa: BLE001 - count, report, go on
                self.note_failure(error)
                failed += 1
            latencies[position] = time.perf_counter() - started
        wall = time.perf_counter() - round_started
        self.engine = engine
        self.end_states.append((engine.epoch, engine.num_indexed_resources))
        self.last_latencies = latencies
        self.last_wall = wall
        return Round(latencies, wall, failed)

    def final_tag_bags(self) -> Dict[str, Dict[str, float]]:
        """The corpus state the trace ends in, replayed on plain dicts."""
        bags: Dict[str, Dict[str, float]] = {
            r: dict(self.cleaned.tag_bag(r)) for r in self.cleaned.resources
        }
        for op in self.trace.operations:
            if op.kind == MUTATE:
                bags.update(op.added)
                bags.update(op.updated)
                for resource in op.removed:
                    del bags[resource]
        return bags

    def check(self) -> Tuple[int, int]:
        """Quiesced probes vs an oracle of the final state; rounds agree."""
        _, got = quiesced_rankings(self.engine, self.trace)
        reference = oracle.DictLoopOracle(self.concept_model, self.final_tag_bags())
        want = [
            reference.rank(list(tags), self.trace.config.top_k)
            for tags in self.trace.eval_queries
        ]
        wrong = oracle.count_mismatches(got, want, self.trace.config.top_k)
        wrong += int(len(set(self.end_states)) != 1)
        return len(want) + 1, wrong

    def ndcg10(self) -> float:
        """Quality at first build: trace-added resources carry no judgments."""
        engine = SearchEngine.build(self.cleaned, self.concept_model)
        judged = self.judged(self.cleaned, 4 * self.sizes.judged_queries)
        return oracle.ndcg10(engine.search, judged)


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (FitOffline, QuerySteady, QueryFrontend, MixedRW)
}
