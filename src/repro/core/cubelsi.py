"""Algorithm 1 of the paper: the CubeLSI tag semantic analysis.

Given a folksonomy (or its third-order tensor directly), CubeLSI

1. runs the Tucker-ALS decomposition with the requested core dimensions or
   reduction ratios (the paper's default is ``c1 = c2 = c3 = 50``),
2. builds the distance kernel ``Σ`` from the ALS by-product (Theorem 2) or
   the core tensor (Theorem 1), and
3. returns the full pairwise purified tag distance matrix ``D_hat`` without
   ever materialising the reconstructed tensor.

The result also exposes the memory accounting (paper Table VII) comparing
the dense reconstruction the naive approach would need against what the
shortcut actually stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.distances import tag_distance_matrix
from repro.tagging.folksonomy import Folksonomy
from repro.tensor.sparse import SparseTensor
from repro.tensor.tucker import TuckerDecomposition, tucker_als
from repro.utils.errors import ConfigurationError, DimensionError, NotFittedError
from repro.utils.rng import SeedLike
from repro.utils.timing import Stopwatch

#: The reduction ratio the paper uses for all reported experiments.
DEFAULT_REDUCTION_RATIO = 50.0


@dataclass
class CubeLSIResult:
    """Output of a CubeLSI run.

    Attributes
    ----------
    distances:
        Symmetric ``(|T|, |T|)`` matrix of purified tag distances ``D_hat``.
    decomposition:
        The underlying Tucker decomposition (core, factors, ``Λ₂``).
    tags:
        Tag labels in the row/column order of ``distances`` (``None`` when
        CubeLSI was fed a raw tensor without labels).
    timings:
        Seconds spent in ``to_tensor``, ``tucker_als`` (the whole
        decomposition; ``tucker_init`` and ``tucker_sweeps`` are its HOSVD
        and ALS-iteration shares) and ``tag_distances``.
    """

    distances: np.ndarray
    decomposition: TuckerDecomposition
    tags: Optional[Tuple[str, ...]]
    timings: dict
    _label_index: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_tags(self) -> int:
        return self.distances.shape[0]

    @property
    def ranks(self) -> Tuple[int, ...]:
        return self.decomposition.ranks

    def distance(self, tag_a: Union[int, str], tag_b: Union[int, str]) -> float:
        """Purified distance between two tags given by index or label."""
        return float(self.distances[self._index(tag_a), self._index(tag_b)])

    def nearest_tags(self, tag: Union[int, str], k: int = 5) -> list:
        """The ``k`` semantically closest tags to ``tag`` (excluding itself).

        Selects the ``k + 1`` smallest distances with ``argpartition``
        (O(|T|) instead of a full O(|T| log |T|) sort) and only sorts that
        candidate set; ties break deterministically by ascending tag index.
        """
        index = self._index(tag)
        row = self.distances[index]
        k = max(0, min(int(k), self.num_tags - 1))
        if k == 0:
            return []
        candidate_count = min(k + 1, row.size)
        if candidate_count < row.size:
            head = np.argpartition(row, candidate_count - 1)[:candidate_count]
            # Widen to the whole boundary tie group: argpartition keeps an
            # arbitrary subset of equal distances at the cut, but the
            # tie-break must see every tied index to pick the lowest ones.
            head = np.flatnonzero(row <= row[head].max())
        else:
            head = np.arange(row.size)
        ordered = head[np.lexsort((head, row[head]))]
        neighbours = [int(i) for i in ordered if i != index][:k]
        if self.tags is None:
            return [(int(i), float(self.distances[index, i])) for i in neighbours]
        return [(self.tags[i], float(self.distances[index, i])) for i in neighbours]

    def memory_report(self) -> dict:
        """Storage accounting behind Table VII (counts of float64 values and bytes)."""
        compressed_values = self.decomposition.compressed_size()
        core_values = int(np.prod(self.decomposition.ranks))
        tag_factor_values = int(self.decomposition.factors[1].size)
        dense_values = self.decomposition.dense_size()
        bytes_per_value = 8
        return {
            "dense_reconstruction_values": dense_values,
            "dense_reconstruction_bytes": dense_values * bytes_per_value,
            "core_plus_factors_values": compressed_values,
            "core_plus_factors_bytes": compressed_values * bytes_per_value,
            "core_plus_tag_factor_values": core_values + tag_factor_values,
            "core_plus_tag_factor_bytes": (core_values + tag_factor_values)
            * bytes_per_value,
        }

    def _index(self, tag: Union[int, str]) -> int:
        if isinstance(tag, (int, np.integer)):
            index = int(tag)
            if not 0 <= index < self.num_tags:
                raise DimensionError(f"tag index {index} out of range")
            return index
        if self.tags is None:
            raise ConfigurationError(
                "this CubeLSI result has no tag labels; address tags by index"
            )
        if self._label_index is None:
            # Built once: tuple.index would rescan O(|T|) labels per lookup.
            self._label_index = {
                label: position for position, label in enumerate(self.tags)
            }
        try:
            return self._label_index[tag]
        except KeyError as exc:
            raise KeyError(f"unknown tag {tag!r}") from exc


class CubeLSI:
    """The CubeLSI tag semantic analyser (offline component of Figure 1).

    Parameters
    ----------
    ranks:
        Explicit core dimensions ``(J1, J2, J3)``.
    reduction_ratios:
        Paper-style reduction ratios ``(c1, c2, c3)``; a single float applies
        the same ratio to all three modes.  Exactly one of ``ranks`` /
        ``reduction_ratios`` may be given; if neither is, the paper default
        ``c = 50`` is used (with a floor so tiny corpora keep a usable rank).
    max_iter / tol:
        ALS stopping parameters.
    seed:
        Seed for ALS initialisation.
    min_rank:
        Lower bound applied to ranks derived from reduction ratios, so small
        corpora still produce a meaningful latent space.
    """

    def __init__(
        self,
        ranks: Optional[Sequence[int]] = None,
        reduction_ratios: Optional[Union[float, Sequence[float]]] = None,
        max_iter: int = 25,
        tol: float = 1e-6,
        seed: SeedLike = 0,
        min_rank: int = 8,
    ) -> None:
        if ranks is not None and reduction_ratios is not None:
            raise ConfigurationError(
                "specify at most one of `ranks` and `reduction_ratios`"
            )
        self._ranks = tuple(int(r) for r in ranks) if ranks is not None else None
        if reduction_ratios is None:
            self._ratios: Optional[Tuple[float, float, float]] = (
                None if ranks is not None else (DEFAULT_REDUCTION_RATIO,) * 3
            )
        elif isinstance(reduction_ratios, (int, float)):
            self._ratios = (float(reduction_ratios),) * 3
        else:
            ratios = tuple(float(r) for r in reduction_ratios)
            if len(ratios) != 3:
                raise ConfigurationError(
                    "reduction_ratios must be a scalar or a length-3 sequence"
                )
            self._ratios = ratios
        self._max_iter = max_iter
        self._tol = tol
        self._seed = seed
        self._min_rank = max(1, int(min_rank))
        self._last_result: Optional[CubeLSIResult] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, data: Union[Folksonomy, SparseTensor, np.ndarray]) -> CubeLSIResult:
        """Run Algorithm 1 on a folksonomy or a raw order-3 tensor."""
        watch = Stopwatch()
        with watch.section("to_tensor"):
            if isinstance(data, Folksonomy):
                tensor: Union[SparseTensor, np.ndarray] = data.to_tensor()
                tags: Optional[Tuple[str, ...]] = data.tags
            else:
                tensor = data
                tags = None
        shape = tuple(tensor.shape)
        if len(shape) != 3:
            raise DimensionError(
                f"CubeLSI expects an order-3 tensor, got order {len(shape)}"
            )

        ranks = self._resolve_ranks(shape)
        with watch.section("tucker_als"):
            decomposition = tucker_als(
                tensor,
                ranks=ranks,
                max_iter=self._max_iter,
                tol=self._tol,
                seed=self._seed,
            )
        watch.add("tucker_init", decomposition.stage_seconds["init"])
        watch.add("tucker_sweeps", decomposition.stage_seconds["sweeps"])
        with watch.section("tag_distances"):
            distances = tag_distance_matrix(decomposition)

        result = CubeLSIResult(
            distances=distances,
            decomposition=decomposition,
            tags=tags,
            timings=watch.totals(),
        )
        self._last_result = result
        return result

    @property
    def last_result(self) -> CubeLSIResult:
        """The most recent :class:`CubeLSIResult` (raises if never fitted)."""
        if self._last_result is None:
            raise NotFittedError("CubeLSI has not been fitted yet")
        return self._last_result

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _resolve_ranks(self, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if self._ranks is not None:
            return tuple(min(max(1, r), s) for r, s in zip(self._ranks, shape))
        assert self._ratios is not None
        resolved = []
        for size, ratio in zip(shape, self._ratios):
            rank = max(1, int(round(size / ratio)))
            rank = max(rank, min(self._min_rank, size))
            resolved.append(min(rank, size))
        return tuple(resolved)
