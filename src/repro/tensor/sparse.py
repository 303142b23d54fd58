"""A COO sparse tensor of arbitrary order.

The raw tag-assignment tensor ``F`` of a folksonomy is extremely sparse
(|Y| non-zeros out of |U|x|T|x|R| cells), so the library never materialises
it densely.  :class:`SparseTensor` stores coordinates and values and provides
the handful of operations CubeLSI needs:

* mode-n unfolding to a ``scipy.sparse`` CSR matrix (feeds truncated SVD),
* the TTM chain ``F ×_{m != n} Y(m)^T`` every ALS mode update and the final
  core projection need (:meth:`SparseTensor.ttm_chain`),
* a single n-mode product with a small dense matrix,
* mode slices as sparse matrices (feeds the CubeSim baseline),
* Frobenius norms and dense conversion for tests and toy examples.

``ttm_chain`` is all the arithmetic Tucker-ALS runs on the sparse tensor.  Per
skipped mode a plan (built once, cached on the immutable tensor) groups the
non-zeros into *fibers* that share every index except the mode contracted
first.  One CSR product contracts that mode; one sparse-times-dense product
then contracts the last remaining mode and scatters the fibers onto the rows
of the skipped mode in the same pass, so the ``n_fibers x ΠJ_other`` block of
the fibers' Kronecker rows is never built (the memory-efficient TTM ordering
of Kolda & Sun, 2008).  For an order-3 tensor that is ``O(nnz · J_first +
n_fibers · ΠJ_other)`` time in ``O(n_fibers · (J_a + J_b) + I_skip ·
ΠJ_other)`` memory, nothing of size ``ΠI``.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor import dense as dense_ops
from repro.utils.errors import DimensionError


class _FiberPlan(NamedTuple):
    """How :meth:`SparseTensor.ttm_chain` walks the non-zeros for one mode."""

    first: int  # the mode contracted first
    contract: sp.csr_matrix  # (n_fibers, I_first): the values, one row per fiber
    coords: np.ndarray  # (ndim, n_fibers): each fiber's index along the other modes


class SparseTensor:
    """An immutable sparse tensor in coordinate (COO) format.

    Parameters
    ----------
    coords:
        Integer array of shape ``(ndim, nnz)`` with the index of each stored
        entry along every mode.
    values:
        Array of shape ``(nnz,)`` with the stored values.
    shape:
        The logical extent of every mode.

    Duplicate coordinates are summed, mirroring ``scipy.sparse`` semantics.
    """

    def __init__(
        self,
        coords: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
    ) -> None:
        coords = np.asarray(coords, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        shape = tuple(int(s) for s in shape)
        if coords.ndim != 2:
            raise DimensionError("coords must be a (ndim, nnz) array")
        if coords.shape[0] != len(shape):
            raise DimensionError(
                f"coords describe order {coords.shape[0]} but shape has "
                f"{len(shape)} modes"
            )
        if coords.shape[1] != values.shape[0]:
            raise DimensionError(
                f"{coords.shape[1]} coordinates but {values.shape[0]} values"
            )
        if any(s <= 0 for s in shape):
            raise DimensionError(f"all dimensions must be positive: {shape}")
        if coords.size:
            if coords.min() < 0:
                raise DimensionError("negative indices are not allowed")
            upper = coords.max(axis=1)
            for mode, (limit, hi) in enumerate(zip(shape, upper)):
                if hi >= limit:
                    raise DimensionError(
                        f"index {hi} out of bounds for mode {mode} of size "
                        f"{limit}"
                    )
        coords, values = _sum_duplicates(coords, values, shape)
        self._coords = coords
        self._values = values
        self._shape = shape
        self._fiber_plans: Dict[int, _FiberPlan] = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_entries(
        cls,
        entries: Iterable[Tuple[Tuple[int, ...], float]],
        shape: Sequence[int],
    ) -> "SparseTensor":
        """Build a tensor from an iterable of ``(index_tuple, value)``."""
        index_list = []
        value_list = []
        for index, value in entries:
            index_list.append(tuple(index))
            value_list.append(float(value))
        if index_list:
            coords = np.array(index_list, dtype=np.int64).T
            values = np.array(value_list, dtype=float)
        else:
            coords = np.zeros((len(tuple(shape)), 0), dtype=np.int64)
            values = np.zeros(0, dtype=float)
        return cls(coords, values, shape)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseTensor":
        """Build a sparse tensor holding the non-zeros of ``array``."""
        array = np.asarray(array, dtype=float)
        coords = np.array(np.nonzero(array), dtype=np.int64)
        values = array[tuple(coords)]
        return cls(coords, values, array.shape)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def nnz(self) -> int:
        return int(self._values.shape[0])

    @property
    def coords(self) -> np.ndarray:
        """A read-only view of the coordinate array (ndim, nnz)."""
        view = self._coords.view()
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the stored values."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (non-zero)."""
        total = float(np.prod([float(s) for s in self._shape]))
        return self.nnz / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor(shape={self._shape}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialise the tensor as a dense numpy array.

        Guarded by a size check: this is only meant for tests and the
        paper's toy running example.
        """
        total = int(np.prod(self._shape))
        if total > 50_000_000:
            raise DimensionError(
                f"refusing to densify a tensor with {total} cells; use the "
                "sparse operations instead"
            )
        dense = np.zeros(self._shape, dtype=float)
        dense[tuple(self._coords)] = self._values
        return dense

    def unfold(self, mode: int) -> sp.csr_matrix:
        """Mode-``mode`` unfolding as a ``scipy.sparse`` CSR matrix.

        Uses the same "mode-first, remaining axes in original order"
        convention as :func:`repro.tensor.dense.unfold`, so dense and sparse
        code paths are interchangeable in tests.
        """
        if not 0 <= mode < self.ndim:
            raise DimensionError(
                f"mode {mode} out of range for order {self.ndim}"
            )
        rows = self._coords[mode]
        other_modes = [m for m in range(self.ndim) if m != mode]
        other_shape = [self._shape[m] for m in other_modes]
        if other_modes:
            cols = np.ravel_multi_index(
                [self._coords[m] for m in other_modes], other_shape
            )
            n_cols = int(np.prod(other_shape))
        else:
            cols = np.zeros(self.nnz, dtype=np.int64)
            n_cols = 1
        matrix = sp.coo_matrix(
            (self._values, (rows, cols)),
            shape=(self._shape[mode], n_cols),
        )
        return matrix.tocsr()

    def slice(self, mode: int, index: int) -> sp.csr_matrix:
        """The sparse matrix obtained by fixing ``index`` along ``mode``.

        For an order-3 tensor with ``mode=1`` this is the user-resource
        matrix ``F[:, t, :]`` used as a tag's feature representation in
        Section IV-A of the paper.
        """
        if self.ndim != 3:
            raise DimensionError("slice() is only defined for order-3 tensors")
        if not 0 <= mode < 3:
            raise DimensionError(f"mode {mode} out of range for order 3")
        if not 0 <= index < self._shape[mode]:
            raise DimensionError(
                f"index {index} out of bounds for mode {mode} of size "
                f"{self._shape[mode]}"
            )
        mask = self._coords[mode] == index
        other_modes = [m for m in range(3) if m != mode]
        rows = self._coords[other_modes[0]][mask]
        cols = self._coords[other_modes[1]][mask]
        values = self._values[mask]
        shape = (self._shape[other_modes[0]], self._shape[other_modes[1]])
        return sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def frobenius_norm(self) -> float:
        """Frobenius norm computed directly from the stored values."""
        return float(np.sqrt(np.sum(self._values**2)))

    def mode_product(self, matrix: np.ndarray, mode: int) -> np.ndarray:
        """Dense result of the n-mode product ``self ×_mode matrix``.

        The product of a sparse tensor with a small dense factor matrix is
        generally dense, so the result is returned as a dense array of shape
        ``self.shape`` with mode ``mode`` replaced by ``matrix.shape[0]``.
        The other modes keep their full extent, so the result holds
        ``matrix.shape[0] · ΠI_other`` doubles: fine for small tensors, not
        for a folksonomy — Tucker-ALS projects through :meth:`ttm_chain`.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionError("mode_product expects a 2-D matrix")
        if matrix.shape[1] != self._shape[mode]:
            raise DimensionError(
                f"matrix with {matrix.shape[1]} columns cannot multiply mode "
                f"{mode} of size {self._shape[mode]}"
            )
        unfolded = self.unfold(mode)
        product = np.asarray(matrix @ unfolded)
        new_shape = list(self._shape)
        new_shape[mode] = matrix.shape[0]
        return dense_ops.fold(product, mode, new_shape)

    def ttm_chain(self, factors: Sequence[np.ndarray], skip_mode: int) -> np.ndarray:
        """Mode-``skip_mode`` unfolding of ``self ×_{m != skip_mode} factors[m]^T``.

        ``factors[m]`` has shape ``(I_m, J_m)`` (``factors[skip_mode]`` is
        ignored).  The result is the dense ``(I_skip, ΠJ_other)`` matrix in
        the :func:`repro.tensor.dense.unfold` column convention.

        Every projected mode yields one row per fiber: the plan's first mode
        through its CSR product, the others by gathering factor rows.  The
        rows of all but the last mode form ``block`` (one mode's rows at
        order 3, their row-wise Kronecker product at order 4, a column of
        ones at order 2).  Column ``f`` of ``spread`` holds fiber ``f``'s
        block row at rows ``i_skip(f) · width + j``, so ``spread @ last``
        contracts the last mode and scatters onto the skipped mode in one
        product, each output entry summed over the fibers in ascending order.
        """
        order = self.ndim
        if order < 2 or len(factors) != order or not 0 <= skip_mode < order:
            raise DimensionError(
                f"ttm_chain needs order >= 2, {self.ndim} factors and a mode below "
                f"{self.ndim}: got {len(factors)} factors, mode {skip_mode}"
            )
        plan = self._fiber_plans.get(skip_mode)
        if plan is None:
            plan = self._fiber_plans[skip_mode] = self._build_fiber_plan(skip_mode)
        rows = []
        for mode in (m for m in range(self.ndim) if m != skip_mode):
            factor = np.asarray(factors[mode], dtype=float)
            if factor.ndim != 2 or factor.shape[0] != self._shape[mode]:
                raise DimensionError(
                    f"factor of shape {factor.shape} cannot project mode {mode} "
                    f"of size {self._shape[mode]}"
                )
            if mode == plan.first:
                rows.append(plan.contract @ factor)
            else:
                rows.append(factor[plan.coords[mode]])
        *head, last = rows
        n_fibers = last.shape[0]
        block, *middle = head or [np.ones((n_fibers, 1))]
        for other in middle:  # row-wise Kronecker product, earlier modes vary slowest
            block = np.einsum("fi,fj->fij", block, other).reshape(
                n_fibers, block.shape[1] * other.shape[1]
            )
        width = block.shape[1]
        spread = sp.csc_array(
            (
                block.ravel(),
                (plan.coords[skip_mode][:, None] * width + np.arange(width)).ravel(),
                np.arange(0, n_fibers * width + 1, width),
            ),
            shape=(self._shape[skip_mode] * width, n_fibers),
        )
        return (spread @ last).reshape(self._shape[skip_mode], width * last.shape[1])

    def _build_fiber_plan(self, skip_mode: int) -> _FiberPlan:
        """Group the non-zeros into fibers along the mode that leaves fewest."""
        best = None
        for first in (m for m in range(self.ndim) if m != skip_mode):
            masked = self._coords.copy()
            masked[first] = 0  # non-zeros differing only along ``first`` share a key
            keys, fiber_of = np.unique(
                np.ravel_multi_index(tuple(masked), self._shape), return_inverse=True
            )
            if best is None or keys.shape[0] < best[1].shape[0]:
                best = (first, keys, fiber_of)
        first, keys, fiber_of = best
        n_fibers = keys.shape[0]
        coords = np.array(np.unravel_index(keys, self._shape), dtype=np.int64)
        contract = sp.csr_matrix(
            (self._values, (fiber_of, self._coords[first])),
            shape=(n_fibers, self._shape[first]),
        )
        return _FiberPlan(first, contract, coords)

    def scale(self, factor: float) -> "SparseTensor":
        """Return a new tensor with all values multiplied by ``factor``."""
        return SparseTensor(self._coords.copy(), self._values * factor, self._shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        if self._shape != other._shape:
            return False
        if self.nnz != other.nnz:
            return False
        return bool(
            np.array_equal(self._coords, other._coords)
            and np.allclose(self._values, other._values)
        )

    def __hash__(self) -> int:  # pragma: no cover - tensors are not hashable
        raise TypeError("SparseTensor is not hashable")


def _sum_duplicates(
    coords: np.ndarray, values: np.ndarray, shape: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate coordinates by summing their values.

    The entries are also sorted into a canonical (row-major) order, which
    makes equality checks and round-trip tests deterministic.
    """
    if values.shape[0] == 0:
        return coords, values
    flat = np.ravel_multi_index([coords[m] for m in range(coords.shape[0])], shape)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    values = values[order]
    unique_flat, inverse = np.unique(flat, return_inverse=True)
    summed = np.zeros(unique_flat.shape[0], dtype=float)
    np.add.at(summed, inverse, values)
    keep = summed != 0.0
    unique_flat = unique_flat[keep]
    summed = summed[keep]
    new_coords = np.array(
        np.unravel_index(unique_flat, shape), dtype=np.int64
    )
    return new_coords, summed
