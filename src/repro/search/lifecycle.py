"""Engine lifecycle: swappable handles, mutation journals, background refits.

The serving stack takes live mutations (LSI-style fold-in through the
*frozen* concept model), and :class:`~repro.search.incremental.RefreshPolicy`
can say when that drift warrants a full Tucker refit — but until now the
refit itself had nowhere to run without stopping the world.  This module
closes the loop with three pieces:

* :class:`EngineHandle` — every serving path reads the *current* engine
  through a handle instead of holding it directly.  The read side is
  lock-free in the sense that matters: picking up the current generation
  is one atomic attribute load, and pinning it for the duration of a call
  touches only that generation's own counter — no global lock, and a
  writer never blocks a reader.  :meth:`EngineHandle.swap` installs a new
  generation atomically (double-buffering) and retires the old one only
  after its in-flight readers drain.
* :class:`DeltaJournal` — an ordered, replayable log of every mutation
  batch applied since the last published generation.  Replaying the journal
  onto a freshly refitted engine reproduces fold-in state at 1e-9 parity
  (the PR 2 invariant: fold-in equals scratch rebuild under one frozen
  model), which is what lets a refit run on a *trailing* corpus while
  serving keeps mutating.
* :class:`RefitCoordinator` — the control loop: capture the handle's
  (immutable) folksonomy together with a journal mark, run the full
  Tucker-ALS refit on it in a **background process** (the fit is
  CPU-bound Python + BLAS; a process sidesteps the GIL and memory
  spikes), replay the journal entries that arrived meanwhile onto the
  fresh engine, publish it as a new generation of an
  :class:`~repro.core.snapshots.IndexSnapshotStore`, and hot-swap it in.

Generation/epoch model
----------------------
A *generation* is one engine instance (one concept model); the handle's
generation number increments on every swap.  The *epoch* is the mutation
counter serving reads are audited against.  A swap stamps the incoming
engine with ``old epoch + 1``, so the epoch stream stays strictly monotone
across generations and no ``(epoch, query)`` cache key can collide between
two generations.  Readers observe: same generation => same concept model;
epoch never decreases, ever.

Journal parity requires *integral* tag-bag weights (a folksonomy counts
distinct users per (tag, resource); a fractional weight has no assignment
representation).  The workload generator emits integral weights; handles
fed fractional bags refuse folksonomy tracking loudly rather than drifting
silently.
"""

from __future__ import annotations

import shutil
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.search.concurrency import process_context
from repro.search.vsm import RankEngine
from repro.tagging.delta import FolksonomyDelta
from repro.tagging.entities import TagAssignment
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError, NotFittedError
from repro.utils.metrics import MetricsRegistry

#: User-id prefix of assignments synthesized from journal tag bags.  A bag
#: ``{tag: n}`` becomes assignments by n distinct ``jrnl-*`` users, so the
#: rebuilt ``tag_bag`` equals the journaled bag exactly.
JOURNAL_USER_PREFIX = "jrnl"

#: Weights further than this from an integer cannot be represented as a
#: set of assignments and are rejected by folksonomy tracking.
_INTEGRAL_TOL = 1e-9

#: How long a retired (or closing) generation waits for its pinned readers
#: before its engine is leaked to them instead of closed under them.
DRAIN_TIMEOUT_SECONDS = 30.0

#: Published generations the snapshot store keeps after a refit (the one
#: being served plus one to roll back to).
KEEP_GENERATIONS = 2


# ---------------------------------------------------------------------- #
# Journal
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class JournalEntry:
    """One mutation batch as applied: the three buckets plus its position.

    ``seq`` is absolute (1-based, never reused), so marks taken with
    :meth:`DeltaJournal.mark` stay valid across truncations.
    """

    seq: int
    added: Mapping[str, Mapping[str, float]]
    updated: Mapping[str, Mapping[str, float]]
    removed: Tuple[str, ...]


def _freeze_buckets(
    added: Optional[Mapping[str, Mapping[str, float]]],
    updated: Optional[Mapping[str, Mapping[str, float]]],
    removed: Optional[Iterable[str]],
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, float]], Tuple[str, ...]]:
    """Deep-copy one batch so the journal owns its payload.

    Callers may recycle or mutate their bag dicts after ``apply_mutations``
    returns; a journal that aliased them would replay corrupted history.
    """
    return (
        {resource: dict(bag) for resource, bag in (added or {}).items()},
        {resource: dict(bag) for resource, bag in (updated or {}).items()},
        tuple(dict.fromkeys(removed or [])),
    )


class DeltaJournal:
    """A thread-safe ordered log of mutation batches since the last publish.

    The journal is the replay medium of the refit pipeline: a background
    refit fits on a captured corpus, then replays ``entries_since(mark)``
    onto the fresh engine to catch up with everything serving applied
    meanwhile.  Sequence numbers are absolute so a mark taken before the
    fit stays meaningful after a concurrent ``truncate_through``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[JournalEntry] = []
        self._next_seq = 1

    def append(
        self,
        added: Optional[Mapping[str, Mapping[str, float]]] = None,
        updated: Optional[Mapping[str, Mapping[str, float]]] = None,
        removed: Optional[Iterable[str]] = None,
    ) -> int:
        """Record one applied batch; returns its sequence number."""
        frozen_added, frozen_updated, frozen_removed = _freeze_buckets(
            added, updated, removed
        )
        if not frozen_added and not frozen_updated and not frozen_removed:
            raise ConfigurationError("refusing to journal an empty mutation batch")
        with self._lock:
            entry = JournalEntry(
                seq=self._next_seq,
                added=frozen_added,
                updated=frozen_updated,
                removed=frozen_removed,
            )
            self._entries.append(entry)
            self._next_seq += 1
            return entry.seq

    def mark(self) -> int:
        """The newest appended sequence number (0 before any append).

        ``entries_since(mark())`` is empty *now*; entries appended later
        come after the mark — the capture point a refit fits from.
        """
        with self._lock:
            return self._next_seq - 1

    def entries_since(self, mark: int) -> List[JournalEntry]:
        """All entries with ``seq > mark``, in order (a copy)."""
        with self._lock:
            return [entry for entry in self._entries if entry.seq > mark]

    def truncate_through(self, mark: int) -> int:
        """Drop entries with ``seq <= mark``; returns how many were dropped.

        Called after a publish: everything up to the published mark is in
        the on-disk artefact, so only the tail still needs replaying on a
        restart.  Sequence numbers of surviving entries are unchanged.
        """
        with self._lock:
            before = len(self._entries)
            self._entries = [e for e in self._entries if e.seq > mark]
            return before - len(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def replay_entries(engine, entries: Sequence[JournalEntry]) -> int:
    """Apply journal entries to ``engine`` in order; returns the count."""
    for entry in entries:
        engine.apply_mutations(
            added=entry.added, updated=entry.updated, removed=entry.removed
        )
    return len(entries)


# ---------------------------------------------------------------------- #
# Folksonomy materialization of journaled bags
# ---------------------------------------------------------------------- #
def synthesize_assignments(
    resource: str, bag: Mapping[str, float]
) -> List[TagAssignment]:
    """Assignments whose rebuilt ``tag_bag`` equals ``bag`` exactly.

    A folksonomy's ``tag_bag`` counts distinct users per (tag, resource),
    so weight ``n`` becomes ``n`` assignments by synthetic ``jrnl-*``
    users.  Non-integral or non-positive weights are rejected — they have
    no assignment-set representation, and silently rounding them would
    break the 1e-9 scratch-rebuild parity the journal exists to provide.
    """
    assignments: List[TagAssignment] = []
    for tag in sorted(bag):
        weight = float(bag[tag])
        count = int(round(weight))
        if count < 1 or abs(weight - count) > _INTEGRAL_TOL:
            raise ConfigurationError(
                "folksonomy tracking requires positive integral tag weights; "
                f"resource {resource!r} tag {tag!r} has weight {weight!r}"
            )
        assignments.extend(
            TagAssignment(
                user=f"{JOURNAL_USER_PREFIX}-{position:04d}",
                tag=tag,
                resource=resource,
            )
            for position in range(count)
        )
    return assignments


def fold_mutations_into_folksonomy(
    folksonomy: Folksonomy,
    added: Optional[Mapping[str, Mapping[str, float]]] = None,
    updated: Optional[Mapping[str, Mapping[str, float]]] = None,
    removed: Optional[Iterable[str]] = None,
) -> Folksonomy:
    """The folksonomy after one mutation batch, via one incremental delta.

    Updates replace the resource's whole assignment set; assignments that
    would be both removed and re-added (an update preserving part of a
    bag) cancel out before the delta is built, because a
    :class:`~repro.tagging.delta.FolksonomyDelta` rejects overlap.
    """
    add_set: set = set()
    remove_set: set = set()
    for resource, bag in (added or {}).items():
        add_set.update(synthesize_assignments(resource, bag))
    for resource, bag in (updated or {}).items():
        remove_set.update(folksonomy.assignments_of_resource(resource))
        add_set.update(synthesize_assignments(resource, bag))
    for resource in dict.fromkeys(removed or []):
        remove_set.update(folksonomy.assignments_of_resource(resource))
    overlap = add_set & remove_set
    delta = FolksonomyDelta(
        added=tuple(add_set - overlap), removed=tuple(remove_set - overlap)
    )
    if not delta:
        return folksonomy
    return folksonomy.apply_delta(delta)


# ---------------------------------------------------------------------- #
# The handle
# ---------------------------------------------------------------------- #
class _Generation:
    """One installed engine: its number, its reader count, its drain state."""

    __slots__ = ("engine", "number", "cond", "readers", "retired")

    def __init__(self, engine, number: int) -> None:
        self.engine = engine
        self.number = int(number)
        self.cond = threading.Condition()
        self.readers = 0
        self.retired = False

    def drain(self, timeout: float) -> bool:
        """Block until every pinned reader released; False on timeout."""
        deadline = time.monotonic() + timeout
        with self.cond:
            while self.readers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.cond.wait(remaining)
        return True


@dataclass(frozen=True)
class SwapReport:
    """What one hot swap did and what it cost.

    ``swap_seconds`` covers lock entry through pointer install (the window
    in which *writers* wait; readers never wait); ``drain_seconds`` is how
    long the old generation's in-flight readers took to finish after the
    new one was already serving.
    """

    generation: int
    epoch: int
    swap_seconds: float
    drain_seconds: float
    drained: bool


class EngineHandle(RankEngine):
    """A swappable reference to the current serving engine.

    Itself a :class:`~repro.search.vsm.RankEngine` around any other, so it
    drops in wherever a :class:`~repro.search.engine.SearchEngine` or a
    :class:`~repro.search.shardpool.ShardProcessPool` was used.

    Every read pins exactly **one** generation for its whole duration, so
    a single engine call — and therefore a whole front-end request,
    which is one ``snapshot_rank_batch`` call — can never mix generations.
    Mutations additionally append to the handle's :class:`DeltaJournal`
    and (when a folksonomy was given) fold into the handle's authoritative
    folksonomy, the pair the refit pipeline replays and refits from.  That
    fold in :meth:`apply_mutations` is the folksonomy's only writer.

    Swap correctness argument, in three lines: the current-generation
    pointer is replaced atomically (one attribute store) while the write
    lock serializes it against mutations; readers that pinned the old
    generation before the store keep a counted reference until they
    finish, and the old engine is only closed after that count drains to
    zero; the incoming engine is stamped ``old epoch + 1`` inside the
    same write-lock region, so epochs observed by any reader are strictly
    monotone across the swap.
    """

    def __init__(
        self,
        engine: RankEngine,
        folksonomy: Optional[Folksonomy] = None,
        journal: Optional[DeltaJournal] = None,
        generation: int = 0,
    ) -> None:
        if not isinstance(engine, RankEngine):
            raise ConfigurationError(
                "EngineHandle needs a RankEngine; "
                f"{type(engine).__name__} is not one"
            )
        self._current = _Generation(engine, generation)
        self._write_lock = threading.Lock()
        self.journal = journal if journal is not None else DeltaJournal()
        self._folksonomy = folksonomy

    # ------------------------------------------------------------------ #
    # Read surface
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The current engine (an instantaneous, unpinned read)."""
        return self._current.engine

    @property
    def generation(self) -> int:
        return self._current.number

    @property
    def epoch(self) -> int:
        return self._current.engine.epoch

    @property
    def folksonomy(self) -> Optional[Folksonomy]:
        """The corpus as of every applied mutation (``None`` if untracked)."""
        return self._folksonomy

    @property
    def concept_model(self):
        return self._current.engine.concept_model

    @property
    def is_mutable(self) -> bool:
        return self._current.engine.is_mutable

    @contextmanager
    def pin(self) -> Iterator[_Generation]:
        """Pin the current generation for the duration of the ``with`` body.

        The loop handles the one racy interleaving: a reader that loaded
        the old generation pointer just as a swap retired it simply
        retries and lands on the new one.  Pinned generations are never
        closed under the reader.
        """
        while True:
            generation = self._current
            with generation.cond:
                if generation.retired:
                    continue
                generation.readers += 1
            break
        try:
            yield generation
        finally:
            with generation.cond:
                generation.readers -= 1
                if generation.retired and generation.readers == 0:
                    generation.cond.notify_all()

    def snapshot_rank_batch(self, queries, top_k=None):
        """Epoch-consistent batched ranking against one pinned generation."""
        with self.pin() as generation:
            return generation.engine.snapshot_rank_batch(queries, top_k=top_k)

    def refresh(self) -> bool:
        """Drive the pinned generation's lazy statistics refresh."""
        with self.pin() as generation:
            return bool(generation.engine.refresh())

    def has_resource(self, resource: str) -> bool:
        with self.pin() as generation:
            return generation.engine.has_resource(resource)

    @property
    def num_indexed_resources(self) -> int:
        return self._current.engine.num_indexed_resources

    def staleness(self):
        with self.pin() as generation:
            return generation.engine.staleness()

    def health(self) -> Dict[str, object]:
        """One operational snapshot: generation, epoch, drift, journal depth.

        Folded into :meth:`~repro.serve.frontend.BatchingFrontend.stats`
        under ``engine_health``; the pinned engine's own health (the
        process pool's worker states) rides along under ``engine``, with
        its drift verdicts (when it reports any) lifted to ``staleness``.
        """
        with self.pin() as generation:
            nested = generation.engine.health()
            payload: Dict[str, object] = {
                "generation": generation.number,
                "epoch": generation.engine.epoch,
                "journal_entries": len(self.journal),
                "engine": nested,
            }
            if "staleness" in nested:
                payload["staleness"] = nested["staleness"]
            return payload

    # ------------------------------------------------------------------ #
    # Write surface
    # ------------------------------------------------------------------ #
    def apply_mutations(
        self,
        added: Optional[Mapping[str, Mapping[str, float]]] = None,
        updated: Optional[Mapping[str, Mapping[str, float]]] = None,
        removed: Optional[Iterable[str]] = None,
    ):
        """Apply one batch to the current engine; journal it on success.

        The write lock serializes mutations against swaps, so a batch is
        always validated against, applied to and journaled for *one*
        generation — a swap can never land between the engine apply and
        the journal append (which would lose the batch from the replay
        stream or replay it twice).
        """
        with self._write_lock:
            engine = self._current.engine
            epoch_before = engine.epoch
            report = engine.apply_mutations(
                added=added, updated=updated, removed=removed
            )
            if engine.epoch != epoch_before:
                # Only batches that actually landed (the engine treats an
                # all-empty batch as a no-op) enter the replay stream.
                self.journal.append(added=added, updated=updated, removed=removed)
                if self._folksonomy is not None:
                    self._folksonomy = fold_mutations_into_folksonomy(
                        self._folksonomy,
                        added=added,
                        updated=updated,
                        removed=removed,
                    )
            return report

    def swap(
        self,
        new_engine,
        prepare: Optional[Callable[[object], None]] = None,
        drain_timeout: float = DRAIN_TIMEOUT_SECONDS,
    ) -> SwapReport:
        """Atomically install ``new_engine`` as the next generation.

        ``prepare(new_engine)`` runs inside the write-lock region, after
        mutations are fenced off but before the pointer moves — the spot
        the coordinator replays the journal tail in, so the incoming
        engine reflects every batch the outgoing one ever applied.  The
        handle's folksonomy is untouched: it already holds every batch.

        The incoming engine is stamped ``old epoch + 1``; engines whose
        epoch is read-only (the process pool derives it from its manifest)
        must already carry a strictly greater epoch.  After the pointer
        install the old generation is retired: new readers can no longer
        pin it, its in-flight readers finish undisturbed, and once the
        count drains the old engine's ``close`` is called.  A
        drain that outlasts ``drain_timeout`` leaks the old engine to the
        stuck readers instead of closing it under them.
        """
        swap_started = time.perf_counter()
        with self._write_lock:
            old = self._current
            if prepare is not None:
                prepare(new_engine)
            try:
                new_engine.epoch = old.engine.epoch + 1
            except AttributeError:
                if new_engine.epoch <= old.engine.epoch:
                    raise ConfigurationError(
                        "cannot swap in an engine with a read-only epoch "
                        f"{new_engine.epoch} <= the current epoch "
                        f"{old.engine.epoch}; epochs must stay monotone"
                    ) from None
            fresh = _Generation(new_engine, old.number + 1)
            self._current = fresh
            with old.cond:
                old.retired = True
        swap_seconds = time.perf_counter() - swap_started

        drain_started = time.perf_counter()
        drained = old.drain(drain_timeout)
        drain_seconds = time.perf_counter() - drain_started
        if drained:
            old.engine.close()
        return SwapReport(
            generation=fresh.number,
            epoch=new_engine.epoch,
            swap_seconds=swap_seconds,
            drain_seconds=drain_seconds,
            drained=drained,
        )

    def close(self) -> None:
        """Close the current generation's engine once its readers drain.

        Idempotent (the engines' own ``close`` is).  Taken under the write
        lock so it cannot interleave with a swap; a drain that times out
        leaks the engine to the stuck readers, as :meth:`swap` does.
        """
        with self._write_lock:
            current = self._current
            if current.drain(DRAIN_TIMEOUT_SECONDS):
                current.engine.close()

    def __repr__(self) -> str:
        current = self._current
        return (
            f"EngineHandle(generation={current.number}, "
            f"engine={type(current.engine).__name__}, "
            f"epoch={current.engine.epoch}, journal={len(self.journal)})"
        )


# ---------------------------------------------------------------------- #
# Background refit
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RefitResult:
    """Everything one completed refit cycle produced and measured.

    ``snapshot_epoch`` is the handle's epoch when the fitted corpus was
    captured.
    """

    generation: int
    epoch: int
    snapshot_epoch: int
    published_dir: Path
    refit_wall_seconds: float
    fit_seconds: float
    swap_seconds: float
    drain_seconds: float
    catchup_entries: int
    tail_entries: int

    def summary(self) -> str:
        return (
            f"refit -> generation {self.generation} (epoch {self.epoch}) in "
            f"{self.refit_wall_seconds:.2f}s "
            f"(fit {self.fit_seconds:.2f}s, swap {self.swap_seconds * 1e3:.1f}ms, "
            f"drain {self.drain_seconds * 1e3:.1f}ms); replayed "
            f"{self.catchup_entries}+{self.tail_entries} journal entries"
        )


def _refit_worker_main(
    folksonomy: Folksonomy, out_dir: str, pipeline_kwargs: dict
) -> None:
    """Background-process entry point: fit the captured corpus, save.

    The folksonomy arrives as the process argument (inherited under fork,
    pickled under spawn).  The save leaves it out: the parent publishes
    the handle's own.  Module-level (not a closure) so the spawn start
    method can import it; errors are written next to the output so the
    parent can surface the real traceback instead of a bare exit code.
    """
    # Deferred (here and below): core.pipeline and search import each other.
    from repro.core.pipeline import CubeLSIPipeline

    out = Path(out_dir)
    try:
        CubeLSIPipeline(**pipeline_kwargs).fit(folksonomy).save(out)
    except BaseException:
        out.mkdir(parents=True, exist_ok=True)
        (out / "refit_error.txt").write_text(
            traceback.format_exc(), encoding="utf-8"
        )
        raise SystemExit(1)


class BackgroundRefit:
    """A running refit cycle; ``join()`` for its :class:`RefitResult`."""

    def __init__(self, run: Callable[[], RefitResult], name: str) -> None:
        self._result: Optional[RefitResult] = None
        self._error: Optional[BaseException] = None

        def _target() -> None:
            try:
                self._result = run()
            except BaseException as error:  # noqa: BLE001 - re-raised in join
                self._error = error

        self._thread = threading.Thread(target=_target, name=name, daemon=True)
        self._thread.start()

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> RefitResult:
        """Wait for the cycle; raises what it raised, returns its result."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("background refit still running")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class RefitCoordinator:
    """Runs full Tucker refits against a live :class:`EngineHandle`.

    One cycle (:meth:`refit`, or :meth:`refit_in_background` for the
    non-blocking wrapper):

    1. **capture** — under the handle's write lock, take a journal mark
       together with the handle's folksonomy and epoch.  The folksonomy
       is immutable, so this copies and writes nothing; writers wait
       only for three attribute reads.
    2. **fit** — run the full :class:`~repro.core.pipeline.CubeLSIPipeline`
       on the captured folksonomy, in a background *process* (it is the
       process argument).  Serving is untouched: different process,
       trailing data.
    3. **catch up** — under the write lock, take a second journal mark
       together with the handle's folksonomy (which already holds every
       batch up to that mark); outside it, replay the entries between the
       two marks onto the fresh engine.
    4. **publish** — write the caught-up engine with that folksonomy into
       the store as the next generation (``make_current`` deferred until
       the swap lands).
    5. **swap** — :meth:`EngineHandle.swap` with a prepare step that
       replays the last-moment tail and truncates the journal through the
       published mark; then mark the generation current in the store and
       GC stale generations.  If the factory or the swap fails, the
       unserved generation is retired, so the next cycle can publish
       under the same number.

    ``engine_factory(index, published_dir)`` builds the serving engine
    for the new generation from the published artefact — e.g. a
    :class:`~repro.search.shardpool.ShardProcessPool` over a sharded
    publish (blue/green process pools).  Factory-built engines
    are typically read-only; a non-empty journal tail at swap time is
    then refused rather than silently dropped, so factories fit
    query-only (or externally quiesced) serving.

    Swap latency, drain, fit and whole-cycle wall times are recorded into
    ``metrics`` (``lifecycle.*`` latency histograms plus counters and
    generation/journal gauges), Prometheus-exportable via
    :meth:`~repro.utils.metrics.MetricsRegistry.export_text`.
    """

    def __init__(
        self,
        handle: EngineHandle,
        store,
        pipeline_kwargs: Optional[Mapping[str, object]] = None,
        metrics: Optional[MetricsRegistry] = None,
        use_process: bool = True,
        engine_factory: Optional[Callable[[object, Path], object]] = None,
        publish_kwargs: Optional[Mapping[str, object]] = None,
    ) -> None:
        if handle.folksonomy is None:
            raise ConfigurationError(
                "RefitCoordinator needs a folksonomy-tracking handle "
                "(EngineHandle(engine, folksonomy=...)); there is nothing "
                "to refit otherwise"
            )
        self.handle = handle
        self.store = store
        self.pipeline_kwargs = dict(pipeline_kwargs or {})
        self.metrics = metrics or MetricsRegistry()
        self.use_process = bool(use_process)
        self.engine_factory = engine_factory
        # Extra store.publish options (num_shards) so a pool factory can
        # demand a sharded layout.
        self.publish_kwargs = dict(publish_kwargs or {})
        self._refit_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # The cycle
    # ------------------------------------------------------------------ #
    def refit(self) -> RefitResult:
        """Run one full refit cycle; blocks until the swap completes.

        Cycles are serialized on the coordinator (a second caller waits);
        serving is never paused at any point.
        """
        with self._refit_lock:
            return self._refit_locked()

    def refit_in_background(self) -> BackgroundRefit:
        """Start one cycle on a coordinator thread; join the result later."""
        return BackgroundRefit(self.refit, name="refit-coordinator")

    def _refit_locked(self) -> RefitResult:
        cycle_started = time.perf_counter()
        # Capture: the mark and the folksonomy are read under the write
        # lock, so every entry after the mark is exactly a batch the
        # captured corpus lacks.
        with self.handle._write_lock:
            mark = self.handle.journal.mark()
            corpus = self.handle.folksonomy
            snapshot_epoch = self.handle.epoch

        fit_started = time.perf_counter()
        fresh_index = self._fit(corpus)
        fit_seconds = time.perf_counter() - fit_started

        # Catch up: everything serving applied while the fit ran, replayed
        # through the *new* concept model (fold-in equals a scratch rebuild
        # of the same corpus).  The mark and the handle's folksonomy are
        # read under the write lock, so they describe the same batches.
        with self.handle._write_lock:
            catch = self.handle.journal.mark()
            fresh_index.folksonomy = self.handle.folksonomy
        catchup = [
            entry
            for entry in self.handle.journal.entries_since(mark)
            if entry.seq <= catch
        ]
        replay_entries(fresh_index.engine, catchup)

        # Publish the caught-up index as the next generation.  The epoch is
        # pre-stamped to the swap target so a read-only engine built *from*
        # the artefact (a process pool reading the manifest) already
        # carries a monotone epoch.
        generation = self.handle.generation + 1
        fresh_index.engine.epoch = self.handle.epoch + 1
        published_dir = self.store.publish(
            fresh_index,
            generation=generation,
            make_current=False,
            **self.publish_kwargs,
        )

        tail_count = 0

        def prepare(new_engine) -> None:
            nonlocal tail_count
            tail = self.handle.journal.entries_since(catch)
            if tail and not new_engine.is_mutable:
                raise ConfigurationError(
                    f"{len(tail)} journal entries arrived after publish but "
                    f"the factory-built {type(new_engine).__name__} is "
                    "read-only; quiesce writers before refitting"
                )
            tail_count = replay_entries(new_engine, tail)
            self.handle.journal.truncate_through(catch)

        serving_engine = fresh_index.engine
        try:
            if self.engine_factory is not None:
                serving_engine = self.engine_factory(fresh_index, published_dir)
            swap = self.handle.swap(serving_engine, prepare=prepare)
        except BaseException:
            # Nothing serves this generation: unpublish it so the next
            # cycle can claim the same number.
            serving_engine.close()
            self.store.retire_generation(generation)
            raise
        if swap.generation != generation:
            raise ConfigurationError(
                f"generation raced during refit: published {generation} but "
                f"swapped in {swap.generation}; refits must be the only "
                "swapper on a handle"
            )
        self.store.set_current(generation)
        self.store.gc_generations(keep_last=KEEP_GENERATIONS)

        wall = time.perf_counter() - cycle_started
        self.metrics.observe_latency("lifecycle.refit", wall)
        self.metrics.observe_latency("lifecycle.fit", fit_seconds)
        self.metrics.observe_latency("lifecycle.swap", swap.swap_seconds)
        self.metrics.observe_latency("lifecycle.drain", swap.drain_seconds)
        self.metrics.increment("refits_completed")
        if not swap.drained:
            self.metrics.increment("drain_timeouts")
        self.metrics.set_gauge("generation", generation)
        self.metrics.set_gauge("journal_entries", len(self.handle.journal))
        return RefitResult(
            generation=generation,
            epoch=swap.epoch,
            snapshot_epoch=snapshot_epoch,
            published_dir=Path(published_dir),
            refit_wall_seconds=wall,
            fit_seconds=fit_seconds,
            swap_seconds=swap.swap_seconds,
            drain_seconds=swap.drain_seconds,
            catchup_entries=len(catchup),
            tail_entries=tail_count,
        )

    # ------------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------------ #
    def _fit(self, folksonomy: Folksonomy):
        """The full Tucker-ALS refit on the captured folksonomy."""
        from repro.core.pipeline import CubeLSIPipeline, OfflineIndex

        if not self.use_process:
            return CubeLSIPipeline(**self.pipeline_kwargs).fit(folksonomy)

        staging = Path(self.store.root) / ".refit-staging"
        if staging.exists():
            shutil.rmtree(staging)
        worker = process_context().Process(
            target=_refit_worker_main,
            args=(folksonomy, str(staging), dict(self.pipeline_kwargs)),
            name="refit-worker",
            daemon=True,
        )
        worker.start()
        worker.join()
        if worker.exitcode != 0:
            detail = ""
            error_file = staging / "refit_error.txt"
            if error_file.exists():
                detail = error_file.read_text(encoding="utf-8").strip()
                detail = ": " + detail.splitlines()[-1] if detail else ""
            raise ConfigurationError(
                f"background refit process exited with code "
                f"{worker.exitcode}{detail}"
            )
        try:
            index = OfflineIndex.load(staging)
        except (NotFittedError, OSError) as error:
            raise ConfigurationError(
                f"background refit left no loadable index under {staging}: "
                f"{error}"
            ) from error
        shutil.rmtree(staging, ignore_errors=True)
        return index
