"""Purified pairwise tag distances (Section IV-D, Theorems 1 and 2).

The purified tag distance is defined on the reconstructed tensor
``F_hat = S ×_1 Y(1) ×_2 Y(2) ×_3 Y(3)`` as the Frobenius norm of the
difference of two tag slices (Eq. 17):

    D_hat(i, j) = || F_hat[:, t_i, :] - F_hat[:, t_j, :] ||_F

Materialising ``F_hat`` is infeasible for real folksonomies (Table VII), so
the paper proves two shortcuts:

* **Theorem 1** — ``D_hat(i, j) = sqrt( x Σ xᵀ )`` with
  ``x = Y(2)_{t_i,:} - Y(2)_{t_j,:}`` and ``Σ`` computable from the core
  tensor alone.  Because the mode-1 and mode-3 factors have orthonormal
  columns, ``Σ = S_(2) S_(2)ᵀ`` where ``S_(2)`` is the mode-2 unfolding of
  the core.
* **Theorem 2** — at an ALS fixed point, ``Σ`` equals the squared diagonal
  matrix of the leading ``J_2`` mode-2 singular values ``Λ₂`` returned as a
  by-product of the ALS run, so not even the core unfolding product is
  needed.

This module implements both shortcuts *and* the naive materialised
definition; the test-suite checks they agree to numerical precision, which
is an executable proof-check of the theorems on small tensors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor.dense import unfold
from repro.tensor.sparse import SparseTensor
from repro.tensor.tucker import TuckerDecomposition
from repro.utils.errors import DimensionError
from repro.utils.validation import check_shape_2d, check_square


def sigma_from_core(core: np.ndarray) -> np.ndarray:
    """Theorem 1 kernel: ``Σ = S_(2) S_(2)ᵀ`` from the core tensor.

    ``Σ`` is a ``J₂ × J₂`` symmetric positive semi-definite matrix; the
    purified distance between tags i and j is then
    ``sqrt((Y²ᵢ - Y²ⱼ) Σ (Y²ᵢ - Y²ⱼ)ᵀ)``.
    """
    core = np.asarray(core, dtype=float)
    if core.ndim < 2:
        raise DimensionError("sigma_from_core requires a core tensor of order >= 2")
    core_unfolding = unfold(core, 1)
    return core_unfolding @ core_unfolding.T


def sigma_from_singular_values(lambda2: np.ndarray, rank: Optional[int] = None) -> np.ndarray:
    """Theorem 2 kernel: ``Σ = diag(Λ₂[:J₂])²`` from the ALS by-product.

    Parameters
    ----------
    lambda2:
        The mode-2 singular values returned by the ALS
        (``TuckerDecomposition.lambda2``).
    rank:
        ``J₂``; defaults to ``len(lambda2)``.
    """
    lambda2 = np.asarray(lambda2, dtype=float).ravel()
    if rank is None:
        rank = lambda2.shape[0]
    if rank <= 0 or rank > lambda2.shape[0]:
        raise DimensionError(
            f"rank must be in [1, {lambda2.shape[0]}], got {rank}"
        )
    leading = lambda2[:rank]
    return np.diag(leading**2)


def pairwise_distances_shortcut(
    tag_factor: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """All pairwise purified tag distances via Theorem 1 (Eq. 20 / 21).

    Parameters
    ----------
    tag_factor:
        The mode-2 factor matrix ``Y(2)`` of shape ``(|T|, J₂)``.
    sigma:
        The ``J₂ × J₂`` kernel from :func:`sigma_from_core` or
        :func:`sigma_from_singular_values`.

    Returns
    -------
    A symmetric ``(|T|, |T|)`` matrix of distances with a zero diagonal.

    Notes
    -----
    The quadratic form ``x Σ xᵀ`` expands to
    ``qᵢ + qⱼ - 2 Gᵢⱼ`` with ``G = Y Σ Yᵀ`` and ``q = diag(G)``, so the whole
    matrix is computed with two matrix products instead of ``O(|T|²)``
    explicit loops.  Tiny negative values produced by floating-point
    cancellation are clipped to zero before the square root.
    """
    tag_factor = check_shape_2d(tag_factor, "tag_factor")
    sigma = check_square(sigma, "sigma")
    if sigma.shape[0] != tag_factor.shape[1]:
        raise DimensionError(
            f"sigma is {sigma.shape} but tag_factor has {tag_factor.shape[1]} columns"
        )
    gram = tag_factor @ sigma @ tag_factor.T
    quadratic = np.diag(gram)
    squared = quadratic[:, None] + quadratic[None, :] - 2.0 * gram
    squared = np.maximum(squared, 0.0)
    distances = np.sqrt(squared)
    np.fill_diagonal(distances, 0.0)
    # Enforce exact symmetry against floating point drift.
    return (distances + distances.T) / 2.0


def pairwise_distances_materialized(decomposition: TuckerDecomposition) -> np.ndarray:
    """Naive purified distances by reconstructing ``F_hat`` (Eq. 17).

    Only usable on small tensors (tests, the running example); quadratic in
    ``|T|`` and linear in ``|U| x |R|`` per pair.  Serves as the reference
    implementation the shortcut is validated against.
    """
    reconstructed = decomposition.reconstruct()
    if reconstructed.ndim != 3:
        raise DimensionError(
            "materialized distances are defined for order-3 tensors only"
        )
    num_tags = reconstructed.shape[1]
    distances = np.zeros((num_tags, num_tags), dtype=float)
    for i in range(num_tags):
        slice_i = reconstructed[:, i, :]
        for j in range(i + 1, num_tags):
            difference = slice_i - reconstructed[:, j, :]
            value = float(np.sqrt(np.sum(difference * difference)))
            distances[i, j] = value
            distances[j, i] = value
    return distances


def tag_distance_matrix(decomposition: TuckerDecomposition) -> np.ndarray:
    """Pairwise purified tag distances for a fitted Tucker decomposition.

    ``decomposition`` is the result of :func:`repro.tensor.tucker.tucker_als`
    on the user x tag x resource tensor.  The kernel ``Σ`` is built from the
    ALS singular-value by-product (Theorem 2, Algorithm 1 line (21)); when
    that by-product is shorter than the tag rank it is built from the core
    tensor instead (Theorem 1).  The two agree at an ALS fixed point.
    """
    if decomposition.order != 3:
        raise DimensionError("CubeLSI distances require an order-3 decomposition")
    tag_factor = decomposition.factors[1]
    if decomposition.lambda2.size >= decomposition.ranks[1]:
        sigma = sigma_from_singular_values(
            decomposition.lambda2, rank=decomposition.ranks[1]
        )
    else:
        sigma = sigma_from_core(decomposition.core)
    return pairwise_distances_shortcut(tag_factor, sigma)


def raw_slice_distances(tensor) -> np.ndarray:
    """Unpurified tensor-slice distances ``||F[:,i,:] - F[:,j,:]||_F`` (Eq. 8).

    This is the distance the CubeSim baseline uses; it is deliberately slow
    (it works directly on the raw sparse slices) because that is the point
    the paper's Table V makes.
    """
    if isinstance(tensor, SparseTensor):
        if tensor.ndim != 3:
            raise DimensionError("raw slice distances require an order-3 tensor")
        num_tags = tensor.shape[1]
        slices = [tensor.slice(1, t) for t in range(num_tags)]
        distances = np.zeros((num_tags, num_tags), dtype=float)
        for i in range(num_tags):
            for j in range(i + 1, num_tags):
                difference = (slices[i] - slices[j])
                value = float(np.sqrt(difference.multiply(difference).sum()))
                distances[i, j] = value
                distances[j, i] = value
        return distances

    dense = np.asarray(tensor, dtype=float)
    if dense.ndim != 3:
        raise DimensionError("raw slice distances require an order-3 tensor")
    num_tags = dense.shape[1]
    distances = np.zeros((num_tags, num_tags), dtype=float)
    for i in range(num_tags):
        for j in range(i + 1, num_tags):
            difference = dense[:, i, :] - dense[:, j, :]
            value = float(np.sqrt(np.sum(difference * difference)))
            distances[i, j] = value
            distances[j, i] = value
    return distances


def aggregated_vector_distances(tag_resource_matrix) -> np.ndarray:
    """Traditional IR distances on the user-aggregated tag-resource matrix (Eq. 6)."""
    import scipy.sparse as sp

    if sp.issparse(tag_resource_matrix):
        matrix = np.asarray(tag_resource_matrix.todense(), dtype=float)
    else:
        matrix = np.asarray(tag_resource_matrix, dtype=float)
    matrix = check_shape_2d(matrix, "tag_resource_matrix")
    squared_norms = np.sum(matrix * matrix, axis=1)
    gram = matrix @ matrix.T
    squared = squared_norms[:, None] + squared_norms[None, :] - 2.0 * gram
    squared = np.maximum(squared, 0.0)
    distances = np.sqrt(squared)
    np.fill_diagonal(distances, 0.0)
    return (distances + distances.T) / 2.0
