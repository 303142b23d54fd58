"""Where the tie-aware ranking comparator used to live.

:func:`rankings_match` lives next to ``RankedResult`` in
:mod:`repro.search.vsm`.  This module re-exports it only for the
``perf/`` oracle, which imports it from here; new code imports it from
:mod:`repro.search.vsm`.
"""

from __future__ import annotations

from repro.search.vsm import rankings_match

__all__ = ["rankings_match"]
