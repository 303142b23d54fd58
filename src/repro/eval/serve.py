"""Batch-window sweep for the micro-batching serving front-end.

:func:`frontend_sweep` answers the tuning question every deployment of
:class:`~repro.serve.frontend.BatchingFrontend` faces: *how wide should
the micro-batch window be?*  It drives one engine with the same query
workload from ``num_clients`` concurrent client threads — each client
submits single queries and blocks on its own future, the access pattern
the front-end exists for — once per ``(max_batch_size, max_wait_ms)``
window configuration, and returns rows for
:func:`repro.eval.reporting.format_table`: throughput, end-to-end latency
quantiles, the batch sizes the window actually formed, and how many
submissions were coalesced away.

Every response is verified against a direct ``rank_batch`` of the full
workload (the tie-aware :func:`repro.search.vsm.mismatched_probes`
comparator, same 1e-9 bar as the sharded parity suites); a window that
returned a diverging ranking raises instead of reporting — a throughput
table is worthless if the batching path changed the answers.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.search.vsm import PARITY_TOL, mismatched_probes
from repro.serve.frontend import BatchingFrontend, FrontendConfig
from repro.utils.errors import ConfigurationError
from repro.utils.metrics import MetricsRegistry

#: Default window grid: no batching (the baseline), a narrow window, and
#: a wide window.
DEFAULT_WINDOWS: Tuple[Tuple[int, float], ...] = (
    (1, 0.0),
    (8, 2.0),
    (32, 5.0),
)


def frontend_sweep(
    engine,
    queries: Sequence[Sequence[str]],
    windows: Sequence[Tuple[int, float]] = DEFAULT_WINDOWS,
    num_clients: int = 4,
    top_k: Optional[int] = 10,
) -> Tuple[List[Dict[str, object]], List[MetricsRegistry]]:
    """Run the client workload once per window; return rows + registries.

    ``engine`` is any epoch-consistent serving engine (monolithic or
    sharded); it is *shared* across windows — the workload is read-only —
    and any result cache it carries is cleared before each run so every
    window starts cold and the comparison stays fair.  Rows are ordered
    like ``windows``; the returned registries hold the full per-window
    metrics (stage histograms, batch-size distributions) for callers that
    want more than the table.
    """
    if not queries:
        raise ConfigurationError("frontend_sweep needs >= 1 query")
    if num_clients < 1:
        raise ConfigurationError(
            f"num_clients must be >= 1, got {num_clients}"
        )
    if not windows:
        raise ConfigurationError("frontend_sweep needs >= 1 window config")
    queries = [list(tags) for tags in queries]
    want = engine.rank_batch(queries, top_k=top_k)

    rows: List[Dict[str, object]] = []
    registries: List[MetricsRegistry] = []
    for max_batch_size, max_wait_ms in windows:
        if engine.cache is not None:
            engine.cache.clear()
        config = FrontendConfig(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            # Cold per window: the sweep measures batching, not caching.
            cache_entries=0,
        )
        with BatchingFrontend(engine, config, name="sweep") as frontend:
            got: List[Optional[list]] = [None] * len(queries)
            failures: List[str] = []

            def client(client_id: int) -> None:
                try:
                    for position in range(
                        client_id, len(queries), num_clients
                    ):
                        got[position] = frontend.query(
                            queries[position], top_k=top_k
                        )
                except Exception as error:  # noqa: BLE001 - report, don't hang
                    failures.append(f"client {client_id}: {error!r}")

            threads = [
                threading.Thread(
                    target=client, args=(client_id,), name=f"sweep-{client_id}"
                )
                for client_id in range(num_clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            registry = frontend.metrics
        if failures:
            raise ConfigurationError(
                f"window ({max_batch_size}, {max_wait_ms}ms) clients "
                "failed:\n" + "\n".join(failures)
            )

        diverged = mismatched_probes(got, want, truncated=top_k is not None)
        if diverged:
            raise ConfigurationError(
                f"window ({max_batch_size}, {max_wait_ms}ms) diverged "
                f"from the direct rank_batch on query {diverged[0]} "
                f"({queries[diverged[0]]!r}) beyond {PARITY_TOL:g}"
            )

        total = registry.latency("stage.total")
        sizes = registry.size_distribution("batch_distinct_queries")
        rows.append(
            {
                "Batch": max_batch_size,
                "Wait ms": max_wait_ms,
                "Seconds": round(wall, 6),
                "Queries/s": round(len(queries) / wall, 1),
                "p50": f"{total.quantile(0.5) * 1e3:.2f}ms",
                "p99": f"{total.quantile(0.99) * 1e3:.2f}ms",
                "Mean batch": round(sizes.mean, 2),
                "Max batch": sizes.max,
                "Coalesced": registry.counter("coalesced"),
            }
        )
        registries.append(registry)
    return rows, registries
