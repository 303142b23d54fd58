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
    """Leading ``rank`` singular triplets ``(U, s, Vt)`` of ``matrix``, largest first.

    The smaller side's singular vectors are eigenvectors of its Gram matrix
    (LAPACK ``eigh`` for dense input or nearly full rank, ARPACK on the Gram
    operator for large sparse input); the other side is ``matrix`` applied to
    them, re-orthonormalised by a thin QR, so a rank-deficient matrix still
    yields orthonormal vectors and nothing is divided by a zero singular
    value.  The dense route densifies a sparse ``matrix`` whole: drop its
    empty columns first, as :func:`hosvd_factors` does.
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
        if sp.issparse(matrix):
            matrix = matrix.toarray()
        matrix = np.asarray(matrix, dtype=float)
    # ``small`` has the short side as rows, so ``small @ big`` is max_rank².
    small, big = (matrix.T, matrix) if n_rows > n_cols else (matrix, matrix.T)
    if use_dense:
        eigenvalues, vectors = np.linalg.eigh(small @ big)
    else:
        gram = spla.LinearOperator(
            (max_rank, max_rank), matvec=lambda x: small @ (big @ x), dtype=float
        )
        v0 = make_rng(seed).standard_normal(max_rank)
        eigenvalues, vectors = spla.eigsh(gram, k=rank, v0=v0)
    order = np.argsort(eigenvalues)[::-1][:rank]
    s = np.sqrt(np.clip(eigenvalues[order], 0.0, None))
    vectors = vectors[:, order]
    other, triangle = np.linalg.qr(big @ vectors)
    other *= np.where(np.diag(triangle) < 0.0, -1.0, 1.0)
    if n_rows > n_cols:
        return other, s, vectors.T
    return vectors, s, other.T


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
    shape = tuple(tensor.shape)
    if len(shape) < 2:
        raise DimensionError("hosvd requires a tensor of order >= 2")
    target = resolve_ranks(shape, ranks=ranks, reduction_ratios=reduction_ratios)
    factors, singular_values = hosvd_factors(tensor, target, seed=seed)
    core = project_to_core(tensor, factors)
    return HosvdResult(core=core, factors=factors, singular_values=singular_values)


def hosvd_factors(
    tensor: TensorLike, ranks: Sequence[int], seed: SeedLike = None
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Leading left singular vectors and values of every mode-n unfolding.

    The HOSVD without its core: all the ALS initialisation needs.  A sparse
    unfolding first loses its all-zero columns — ``U`` and ``s`` are
    unchanged, and whatever :func:`truncated_svd` does next is bounded by
    the non-zeros (at most ``nnz`` of the ``ΠI_other`` columns are occupied).
    ``min(rows, cols)`` columns are kept so no singular vector goes missing.
    """
    factors: List[np.ndarray] = []
    singular_values: List[np.ndarray] = []
    for mode, rank in enumerate(ranks):
        if isinstance(tensor, SparseTensor):
            unfolded = tensor.unfold(mode)
            occupied, compact = np.unique(unfolded.indices, return_inverse=True)
            unfolded = sp.csr_matrix(
                (unfolded.data, compact, unfolded.indptr),
                shape=(unfolded.shape[0], max(occupied.shape[0], min(unfolded.shape))),
            )
        else:
            unfolded = dense_ops.unfold(np.asarray(tensor, dtype=float), mode)
        u, s, _ = truncated_svd(unfolded, rank, seed=seed)
        factors.append(u)
        singular_values.append(s)
    return factors, singular_values


def project_to_core(tensor: TensorLike, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Compute ``S = F ×_1 Y1^T ×_2 Y2^T ... ×_m Ym^T`` (Eq. 16)."""
    if isinstance(tensor, SparseTensor):
        unfolded = factors[0].T @ tensor.ttm_chain(factors, 0)
        return dense_ops.fold(unfolded, 0, [f.shape[1] for f in factors])
    return dense_ops.multi_mode_product(
        np.asarray(tensor, dtype=float), [(m, f.T) for m, f in enumerate(factors)]
    )
