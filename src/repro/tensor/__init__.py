"""Tensor algebra substrate.

CubeLSI models a folksonomy as a third-order binary tensor over
``users x tags x resources`` and decomposes it with a truncated Tucker
decomposition.  This subpackage provides everything the core algorithm needs,
implemented from scratch on top of numpy / scipy.sparse:

* :mod:`repro.tensor.dense` — mode-n unfolding/folding and n-mode products
  for dense ``numpy`` arrays.
* :mod:`repro.tensor.sparse` — a COO sparse tensor with sparse unfoldings,
  slices, Frobenius norms and the non-zeros-only TTM chain ALS runs on; this
  is the on-ram representation of the raw tag-assignment tensor ``F``.
* :mod:`repro.tensor.hosvd` — truncated higher-order SVD, used both on its
  own and as the initialiser for ALS.
* :mod:`repro.tensor.tucker` — the alternating least squares (HOOI) Tucker
  decomposition returning the core tensor, factor matrices and the mode-2
  singular values ``lambda2`` that Theorem 2 of the paper turns into the
  distance kernel ``Sigma``.
"""

from repro.tensor.dense import (
    fold,
    unfold,
    mode_product,
    multi_mode_product,
    frobenius_norm,
)
from repro.tensor.sparse import SparseTensor
from repro.tensor.hosvd import hosvd, truncated_svd
from repro.tensor.tucker import TuckerDecomposition, tucker_als

__all__ = [
    "fold",
    "unfold",
    "mode_product",
    "multi_mode_product",
    "frobenius_norm",
    "SparseTensor",
    "hosvd",
    "truncated_svd",
    "TuckerDecomposition",
    "tucker_als",
]
