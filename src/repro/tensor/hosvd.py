"""Truncated higher-order SVD (HOSVD).

HOSVD computes, for every mode, the leading left singular vectors of the
mode-n unfolding and uses them as factor matrices.  It is both a reasonable
stand-alone decomposition and the standard initialiser for the ALS/HOOI
iteration in :mod:`repro.tensor.tucker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.tensor import dense as dense_ops
from repro.tensor.sparse import SparseTensor
from repro.utils.errors import ConfigurationError, DimensionError
from repro.utils.rng import SeedLike, make_rng

TensorLike = Union[np.ndarray, SparseTensor]


def truncated_svd(
    matrix: Union[np.ndarray, sp.spmatrix],
    rank: int,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading ``rank`` singular triplets of ``matrix``.

    Returns ``(U, s, Vt)`` with singular values sorted in decreasing order.
    Dense matrices (or requests for nearly full rank) fall back to LAPACK's
    exact SVD; large sparse matrices use ARPACK via
    :func:`scipy.sparse.linalg.svds`.
    """
    if rank <= 0:
        raise ConfigurationError(f"rank must be positive, got {rank}")
    n_rows, n_cols = matrix.shape
    max_rank = min(n_rows, n_cols)
    rank = min(rank, max_rank)

    use_dense = (
        not sp.issparse(matrix)
        or rank >= max_rank - 1
        or max_rank <= 32
    )
    if use_dense:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
        u_full, s_full, vt_full = np.linalg.svd(dense, full_matrices=False)
        return u_full[:, :rank], s_full[:rank], vt_full[:rank, :]

    rng = make_rng(seed)
    v0 = rng.standard_normal(min(n_rows, n_cols))
    u, s, vt = spla.svds(matrix.astype(float), k=rank, v0=v0)
    # svds returns singular values in ascending order.
    order = np.argsort(s)[::-1]
    return u[:, order], s[order], vt[order, :]


@dataclass
class HosvdResult:
    """Result of a truncated HOSVD.

    Attributes
    ----------
    core:
        The core tensor ``S`` of shape ``ranks``.
    factors:
        One column-orthonormal factor matrix per mode,
        ``factors[n]`` has shape ``(I_n, J_n)``.
    singular_values:
        The singular values of each mode-n unfolding (length ``J_n``);
        ``singular_values[1]`` is the ``Lambda_2`` the paper's Theorem 2
        refers to when HOSVD is used directly.
    """

    core: np.ndarray
    factors: List[np.ndarray]
    singular_values: List[np.ndarray]

    @property
    def ranks(self) -> Tuple[int, ...]:
        return self.core.shape


def _unfold_any(tensor: TensorLike, mode: int) -> Union[np.ndarray, sp.csr_matrix]:
    if isinstance(tensor, SparseTensor):
        return tensor.unfold(mode)
    return dense_ops.unfold(np.asarray(tensor, dtype=float), mode)


def _shape_of(tensor: TensorLike) -> Tuple[int, ...]:
    return tuple(tensor.shape)


def resolve_ranks(
    shape: Sequence[int],
    ranks: Optional[Sequence[int]] = None,
    reduction_ratios: Optional[Sequence[float]] = None,
) -> Tuple[int, ...]:
    """Translate explicit ranks or paper-style reduction ratios into ranks.

    The paper parameterises the decomposition with reduction ratios
    ``c_n = I_n / J_n`` (Definition 2); ``resolve_ranks`` accepts either the
    ratios or the target ranks directly and always returns valid ranks
    ``1 <= J_n <= I_n``.
    """
    shape = tuple(int(s) for s in shape)
    if (ranks is None) == (reduction_ratios is None):
        raise ConfigurationError(
            "specify exactly one of `ranks` or `reduction_ratios`"
        )
    if ranks is not None:
        if len(ranks) != len(shape):
            raise ConfigurationError(
                f"need one rank per mode: got {len(ranks)} for order {len(shape)}"
            )
        resolved = []
        for size, rank in zip(shape, ranks):
            rank = int(rank)
            if rank <= 0:
                raise ConfigurationError(f"ranks must be positive, got {rank}")
            resolved.append(min(rank, size))
        return tuple(resolved)
    assert reduction_ratios is not None
    if len(reduction_ratios) != len(shape):
        raise ConfigurationError(
            "need one reduction ratio per mode: got "
            f"{len(reduction_ratios)} for order {len(shape)}"
        )
    resolved = []
    for size, ratio in zip(shape, reduction_ratios):
        ratio = float(ratio)
        if ratio < 1.0:
            raise ConfigurationError(
                f"reduction ratios must be >= 1, got {ratio}"
            )
        resolved.append(max(1, int(round(size / ratio))))
    return tuple(resolved)


def hosvd(
    tensor: TensorLike,
    ranks: Optional[Sequence[int]] = None,
    reduction_ratios: Optional[Sequence[float]] = None,
    seed: SeedLike = None,
) -> HosvdResult:
    """Truncated HOSVD of a dense or sparse tensor.

    Parameters
    ----------
    tensor:
        Dense ``numpy`` array or :class:`SparseTensor` of any order.
    ranks / reduction_ratios:
        Target core dimensions, given either directly or as the paper's
        reduction ratios ``c_n = I_n / J_n``.  Exactly one must be provided.
    seed:
        Seed for the ARPACK starting vector (only used on large sparse
        unfoldings).
    """
    shape = _shape_of(tensor)
    if len(shape) < 2:
        raise DimensionError("hosvd requires a tensor of order >= 2")
    target = resolve_ranks(shape, ranks=ranks, reduction_ratios=reduction_ratios)

    factors: List[np.ndarray] = []
    singular_values: List[np.ndarray] = []
    for mode, rank in enumerate(target):
        unfolded = _unfold_any(tensor, mode)
        u, s, _ = truncated_svd(unfolded, rank, seed=seed)
        factors.append(u)
        singular_values.append(s)

    core = project_to_core(tensor, factors)
    return HosvdResult(core=core, factors=factors, singular_values=singular_values)


def project_to_core(tensor: TensorLike, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Compute ``S = F ×_1 Y1^T ×_2 Y2^T ... ×_m Ym^T`` (Eq. 16)."""
    if isinstance(tensor, SparseTensor):
        # The first projection turns the sparse tensor into a small dense one.
        projected = tensor.mode_product(factors[0].T, 0)
    else:
        projected = dense_ops.mode_product(
            np.asarray(tensor, dtype=float), factors[0].T, 0
        )
    for mode in range(1, len(factors)):
        projected = dense_ops.mode_product(projected, factors[mode].T, mode)
    return projected
