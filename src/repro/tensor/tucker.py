"""Tucker decomposition by alternating least squares (HOOI).

This is the ``ALS`` routine invoked in step 1 of the paper's Algorithm 1.
Given the sparse tag-assignment tensor ``F`` and target core dimensions
``(J1, J2, J3)`` it returns

* the core tensor ``S`` (Eq. 16),
* the column-orthonormal factor matrices ``Y(1), Y(2), Y(3)``, and
* the mode-n singular value vectors, of which ``Lambda_2`` (mode 2 = tags)
  is the by-product that Theorem 2 uses to build the distance kernel
  ``Sigma = (Lambda_2[:J2])^2`` without ever materialising the purified
  tensor ``F_hat``.

Sparse input is only ever touched through its non-zeros: each mode update
asks :meth:`SparseTensor.ttm_chain` for the unfolding of ``F`` projected onto
the other modes' current factors (``O(nnz · J_first + n_fibers · ΠJ_other)``,
nothing of size ``ΠI``), takes its leading left singular vectors through the Gram matrix of
the smaller side (:func:`repro.tensor.hosvd.truncated_svd`), and reads the
sweep's fit off the last-updated mode's singular values, which *are* the
core's norm.  The core itself is projected once, after the last sweep.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import dense as dense_ops
from repro.tensor.hosvd import (
    hosvd_factors,
    project_to_core,
    resolve_ranks,
    truncated_svd,
)
from repro.tensor.sparse import SparseTensor
from repro.utils.errors import ConfigurationError, DimensionError
from repro.utils.errors import ConvergenceWarning
from repro.utils.rng import SeedLike, make_rng

TensorLike = Union[np.ndarray, SparseTensor]


@dataclass
class TuckerDecomposition:
    """Output of :func:`tucker_als`.

    Attributes
    ----------
    core:
        Core tensor ``S`` with shape ``ranks``.
    factors:
        Column-orthonormal factor matrices, one per mode;
        ``factors[n]`` has shape ``(I_n, J_n)``.
    mode_singular_values:
        For every mode, the singular values obtained in that mode's final
        ALS update.  ``mode_singular_values[1]`` is the paper's ``Lambda_2``.
    fit_history:
        The model fit ``||S||_F / ||F||_F`` after each ALS sweep; it is
        non-decreasing up to numerical noise and is used for convergence.
    converged:
        Whether the fit improvement dropped below ``tol`` before
        ``max_iter`` sweeps were exhausted.
    input_shape:
        Shape of the decomposed tensor (``I_1, ..., I_m``).
    stage_seconds:
        Wall-clock seconds :func:`tucker_als` spent in ``init`` (HOSVD or
        random factors), ``sweeps`` (the ALS iterations) and ``core`` (the
        final Eq. 16 projection).
    """

    core: np.ndarray
    factors: List[np.ndarray]
    mode_singular_values: List[np.ndarray]
    fit_history: List[float] = field(default_factory=list)
    converged: bool = True
    input_shape: Tuple[int, ...] = ()
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def ranks(self) -> Tuple[int, ...]:
        """Core dimensions ``(J_1, ..., J_m)``."""
        return tuple(self.core.shape)

    @property
    def order(self) -> int:
        return self.core.ndim

    @property
    def lambda2(self) -> np.ndarray:
        """The mode-2 singular values (``Lambda_2`` in the paper)."""
        if self.order < 2:
            raise DimensionError("lambda2 requires a tensor of order >= 2")
        return self.mode_singular_values[1]

    @property
    def fit(self) -> float:
        """Final model fit ``||S||_F / ||F||_F`` (1.0 = exact)."""
        return self.fit_history[-1] if self.fit_history else 0.0

    def reconstruct(self) -> np.ndarray:
        """Densely reconstruct ``F_hat`` (small tensors / tests only)."""
        return dense_ops.tensor_from_tucker(self.core, self.factors)

    def core_unfolding(self, mode: int) -> np.ndarray:
        """Mode-n unfolding of the core tensor."""
        return dense_ops.unfold(self.core, mode)

    def compressed_size(self) -> int:
        """Number of floating-point values needed to store ``S`` and all factors."""
        total = int(np.prod(self.ranks))
        for factor in self.factors:
            total += int(factor.size)
        return total

    def dense_size(self) -> int:
        """Number of values a dense reconstruction ``F_hat`` would need."""
        return int(np.prod([int(s) for s in self.input_shape]))


def _project_except(
    tensor: np.ndarray, factors: Sequence[np.ndarray], skip_mode: int
) -> np.ndarray:
    """Compute ``F ×_{m != skip_mode} Y(m)^T`` for a dense ``F``."""
    return dense_ops.multi_mode_product(
        tensor, [(m, f.T) for m, f in enumerate(factors) if m != skip_mode]
    )


def tucker_als(
    tensor: TensorLike,
    ranks: Optional[Sequence[int]] = None,
    reduction_ratios: Optional[Sequence[float]] = None,
    max_iter: int = 25,
    tol: float = 1e-6,
    seed: SeedLike = None,
    init: str = "hosvd",
) -> TuckerDecomposition:
    """Tucker decomposition via higher-order orthogonal iteration.

    Parameters
    ----------
    tensor:
        Dense array or :class:`SparseTensor` of order >= 2.
    ranks / reduction_ratios:
        Core dimensions, exactly one of the two must be given.  Ratios follow
        the paper's convention ``c_n = I_n / J_n``.
    max_iter:
        Maximum number of ALS sweeps over all modes.
    tol:
        Convergence threshold on the change in fit between sweeps.
    seed:
        Seed controlling the random initialisation (``init="random"``) and
        ARPACK start vectors.
    init:
        ``"hosvd"`` (default) or ``"random"`` initial factor matrices.
    """
    shape = tuple(tensor.shape)
    if len(shape) < 2:
        raise DimensionError("tucker_als requires a tensor of order >= 2")
    target = resolve_ranks(shape, ranks=ranks, reduction_ratios=reduction_ratios)
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if tol < 0:
        raise ConfigurationError(f"tol must be non-negative, got {tol}")

    rng = make_rng(seed)
    order = len(shape)
    if isinstance(tensor, SparseTensor):
        norm_f = tensor.frobenius_norm()
        projected_unfolding = tensor.ttm_chain
    else:
        tensor = np.asarray(tensor, dtype=float)
        norm_f = dense_ops.frobenius_norm(tensor)

        def projected_unfolding(factors, skip_mode):
            return dense_ops.unfold(
                _project_except(tensor, factors, skip_mode), skip_mode
            )

    if norm_f == 0.0:
        # A zero tensor decomposes trivially; return zero core and arbitrary
        # orthonormal factors.
        factors = [np.eye(shape[m], target[m]) for m in range(order)]
        core = np.zeros(target, dtype=float)
        return TuckerDecomposition(
            core=core,
            factors=factors,
            mode_singular_values=[np.zeros(target[m]) for m in range(order)],
            fit_history=[1.0],
            converged=True,
            input_shape=shape,
            stage_seconds=dict.fromkeys(("init", "sweeps", "core"), 0.0),
        )

    started = time.perf_counter()
    if init == "hosvd":
        factors, _ = hosvd_factors(tensor, target, seed=rng)
    elif init == "random":
        factors = []
        for mode in range(order):
            random_matrix = rng.standard_normal((shape[mode], target[mode]))
            q, _ = np.linalg.qr(random_matrix)
            factors.append(q[:, : target[mode]])
    else:
        raise ConfigurationError(f"unknown init method {init!r}")

    singular_values: List[np.ndarray] = [np.zeros(target[m]) for m in range(order)]
    fit_history: List[float] = []
    previous_fit = -np.inf
    last_delta = np.inf
    converged = False

    sweeps_started = time.perf_counter()
    for _ in range(max_iter):
        for mode in range(order):
            unfolded = projected_unfolding(factors, mode)
            u, s, _ = truncated_svd(unfolded, target[mode], seed=rng)
            # Pad in the degenerate case where the unfolding had lower rank
            # than requested.
            if u.shape[1] < target[mode]:
                pad = target[mode] - u.shape[1]
                u = np.hstack([u, np.zeros((u.shape[0], pad))])
                s = np.concatenate([s, np.zeros(pad)])
            factors[mode] = u
            singular_values[mode] = s

        # The last mode's singular values are those of the core's unfolding,
        # so their norm is the core's norm: no projection needed per sweep.
        fit = float(np.linalg.norm(singular_values[-1])) / norm_f
        fit_history.append(fit)
        last_delta = abs(fit - previous_fit)
        if last_delta < tol:
            converged = True
            break
        previous_fit = fit

    core_started = time.perf_counter()
    core = project_to_core(tensor, factors)
    finished = time.perf_counter()

    if not converged:
        warnings.warn(
            f"tucker_als did not converge within {max_iter} sweeps "
            f"(last fit change {last_delta:.2e})",
            ConvergenceWarning,
            stacklevel=2,
        )

    return TuckerDecomposition(
        core=core,
        factors=factors,
        mode_singular_values=singular_values,
        fit_history=fit_history,
        converged=converged,
        input_shape=shape,
        stage_seconds={
            "init": sweeps_started - started,
            "sweeps": core_started - sweeps_started,
            "core": finished - core_started,
        },
    )

