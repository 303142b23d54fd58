"""Reader/writer synchronisation for the online serving engine.

The serving engine follows a read/write discipline: queries are *reads*
(many may score concurrently, each with its own scratch buffers), while
mutations and the statistics refresh they trigger are *writes* (they swap
CSR arrays, vocabularies and norms in place and must never be observed
half-done).  :class:`ReadWriteLock` is the primitive
behind that discipline: any number of readers xor one writer.

The lock is write-preferring — once a writer is waiting, new readers queue
behind it — so a sustained query stream cannot starve a mutation batch.
It is deliberately *not* reentrant: the engine never nests a guarded
operation inside another guarded operation, and keeping the lock dumb
makes the no-deadlock argument auditable.

:func:`process_context` is the one place the serving stack decides how
its worker processes (pool shards, background refits) are started.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import contextmanager
from typing import Iterator


def process_context():
    """The multiprocessing context every serving worker is started from.

    ``fork`` where the OS offers it (fastest start; workers re-open their
    inputs from disk either way), the platform default otherwise.
    """
    available = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in available else available[0]
    )


class ReadWriteLock:
    """Many readers xor one writer, writers preferred.

    Use through the :meth:`read` / :meth:`write` context managers::

        lock = ReadWriteLock()
        with lock.read():
            ...  # shared with other readers
        with lock.write():
            ...  # exclusive

    Not reentrant: acquiring the lock (in either mode) while already
    holding it in the same thread deadlocks.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            # Queue behind waiting writers so a query storm cannot starve
            # a mutation batch indefinitely.
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read() without a matching acquire")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write() without a matching acquire")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the lock in shared (reader) mode for the ``with`` body."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the lock in exclusive (writer) mode for the ``with`` body."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        return (
            f"ReadWriteLock(readers={self._active_readers}, "
            f"writer={self._writer_active}, "
            f"writers_waiting={self._writers_waiting})"
        )
