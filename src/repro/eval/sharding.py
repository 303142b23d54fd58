"""Where the tie-aware ranking comparator used to live.

:func:`rankings_match` lives next to ``RankedResult`` in
:mod:`repro.search.vsm`; this module re-exports it for callers that import
it from here.  Sharded serving is evaluated by
:func:`repro.eval.shardpool.pool_sweep`.
"""

from __future__ import annotations

from repro.search.vsm import rankings_match

__all__ = ["rankings_match"]
