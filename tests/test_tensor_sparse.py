"""Unit and property tests for the COO sparse tensor.

The second half pins the sparse Tucker-ALS arithmetic: the fiber-plan
``ttm_chain`` kernel bit for bit against the row-wise Kronecker kernel it
replaced and against the dense mode-product chain, the sparse and dense
``tucker_als`` paths against each other, and the bounds the kernel exists
for (no densified unfolding, no ``n_fibers x ΠJ_other`` block, peak memory
set by the non-zeros).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import CubeLSIPipeline
from repro.datasets.profiles import DELICIOUS_PROFILE, generate_profile_dataset
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.tensor import dense as dense_ops
from repro.tensor.hosvd import hosvd, project_to_core
from repro.tensor.sparse import SparseTensor
from repro.tensor.tucker import _project_except, tucker_als
from repro.utils.errors import DimensionError


def kronecker_ttm_chain(tensor, factors, skip_mode):
    """The row-wise Kronecker ``ttm_chain`` the library shipped before: every
    projected mode's fiber rows multiplied out into one ``n_fibers x
    ΠJ_other`` block, then a 0/1 CSR product scatters the fibers onto the
    rows of the skipped mode, summing them in ascending order."""
    plan = tensor._fiber_plans.get(skip_mode) or tensor._build_fiber_plan(skip_mode)
    n_fibers = plan.coords.shape[1]
    block = np.ones((n_fibers, 1))
    for mode in (m for m in range(tensor.ndim) if m != skip_mode):
        factor = np.asarray(factors[mode], dtype=float)
        rows = plan.contract @ factor if mode == plan.first else factor[plan.coords[mode]]
        block = np.einsum("fi,fj->fij", block, rows).reshape(
            n_fibers, block.shape[1] * rows.shape[1]
        )
    scatter = sp.csr_matrix(
        (np.ones(n_fibers), (plan.coords[skip_mode], np.arange(n_fibers))),
        shape=(tensor.shape[skip_mode], n_fibers),
    )
    return scatter @ block


def random_sparse(rng, shape=(4, 5, 6), nnz=20):
    coords = np.vstack([rng.integers(0, s, size=nnz) for s in shape])
    values = rng.standard_normal(nnz)
    return SparseTensor(coords, values, shape)


@st.composite
def sparse_tensor_strategy(draw):
    shape = draw(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    )
    nnz = draw(st.integers(0, 10))
    entries = []
    for _ in range(nnz):
        index = tuple(draw(st.integers(0, s - 1)) for s in shape)
        value = draw(st.floats(-3, 3, allow_nan=False, width=32))
        entries.append((index, value))
    return SparseTensor.from_entries(entries, shape)


@st.composite
def kernel_case(draw):
    """A sparse tensor of order 2-4 plus one random factor matrix per mode.

    Three kinds: plain random entries, entries that leave the last slice of
    every mode empty, and a rank-one (rank-deficient in every unfolding)
    outer product.  The first two always carry a duplicated coordinate.
    """
    order = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(2, 5)) for _ in range(order))
    kind = draw(st.sampled_from(["random", "empty_slices", "rank_one"]))
    value = st.floats(-3, 3, allow_nan=False, width=32)
    if kind == "rank_one":
        dense = np.ones(())
        for size in shape:
            vector = draw(st.lists(value, min_size=size, max_size=size))
            dense = np.multiply.outer(dense, np.array(vector))
        tensor = SparseTensor.from_dense(dense)
    else:
        limits = [s - 1 if kind == "empty_slices" else s for s in shape]
        entries = [
            (tuple(draw(st.integers(0, hi - 1)) for hi in limits), draw(value))
            for _ in range(draw(st.integers(1, 12)))
        ]
        entries.append(entries[0])
        tensor = SparseTensor.from_entries(entries, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    factors = [
        rng.standard_normal((size, draw(st.integers(1, size)))) for size in shape
    ]
    return tensor, factors


class TestConstruction:
    def test_from_entries_and_dense_roundtrip(self):
        entries = [((0, 1, 2), 3.0), ((1, 0, 0), -1.0)]
        tensor = SparseTensor.from_entries(entries, (2, 2, 3))
        dense = tensor.to_dense()
        assert dense[0, 1, 2] == 3.0
        assert dense[1, 0, 0] == -1.0
        assert SparseTensor.from_dense(dense) == tensor

    def test_duplicate_coordinates_are_summed(self):
        entries = [((0, 0, 0), 1.0), ((0, 0, 0), 2.0)]
        tensor = SparseTensor.from_entries(entries, (1, 1, 1))
        assert tensor.nnz == 1
        assert tensor.to_dense()[0, 0, 0] == pytest.approx(3.0)

    def test_zero_sum_duplicates_are_dropped(self):
        entries = [((0, 0, 0), 1.0), ((0, 0, 0), -1.0)]
        tensor = SparseTensor.from_entries(entries, (1, 1, 1))
        assert tensor.nnz == 0

    def test_out_of_bounds_index_raises(self):
        with pytest.raises(DimensionError):
            SparseTensor.from_entries([((5, 0, 0), 1.0)], (2, 2, 2))

    def test_negative_index_raises(self):
        with pytest.raises(DimensionError):
            SparseTensor.from_entries([((-1, 0, 0), 1.0)], (2, 2, 2))

    def test_shape_value_mismatch_raises(self):
        with pytest.raises(DimensionError):
            SparseTensor(np.zeros((3, 2), dtype=int), np.zeros(3), (2, 2, 2))

    def test_empty_tensor(self):
        tensor = SparseTensor.from_entries([], (2, 3, 4))
        assert tensor.nnz == 0
        assert tensor.frobenius_norm() == 0.0
        assert tensor.density == 0.0

    def test_views_are_read_only(self):
        tensor = SparseTensor.from_entries([((0, 0, 0), 1.0)], (1, 1, 1))
        with pytest.raises(ValueError):
            tensor.values[0] = 5.0
        with pytest.raises(ValueError):
            tensor.coords[0, 0] = 2


class TestAlgebra:
    def test_unfold_matches_dense(self, rng):
        tensor = random_sparse(rng)
        dense = tensor.to_dense()
        for mode in range(3):
            sparse_unfolded = tensor.unfold(mode).toarray()
            dense_unfolded = dense_ops.unfold(dense, mode)
            assert np.allclose(sparse_unfolded, dense_unfolded)

    def test_slice_matches_dense(self, rng):
        tensor = random_sparse(rng)
        dense = tensor.to_dense()
        assert np.allclose(tensor.slice(1, 2).toarray(), dense[:, 2, :])
        assert np.allclose(tensor.slice(0, 1).toarray(), dense[1, :, :])
        assert np.allclose(tensor.slice(2, 3).toarray(), dense[:, :, 3])

    def test_slice_bad_arguments(self, rng):
        tensor = random_sparse(rng)
        with pytest.raises(DimensionError):
            tensor.slice(3, 0)
        with pytest.raises(DimensionError):
            tensor.slice(1, 99)

    def test_mode_product_matches_dense(self, rng):
        tensor = random_sparse(rng)
        dense = tensor.to_dense()
        matrix = rng.standard_normal((3, tensor.shape[1]))
        sparse_result = tensor.mode_product(matrix, 1)
        dense_result = dense_ops.mode_product(dense, matrix, 1)
        assert np.allclose(sparse_result, dense_result)

    def test_mode_product_shape_mismatch(self, rng):
        tensor = random_sparse(rng)
        with pytest.raises(DimensionError):
            tensor.mode_product(np.zeros((2, 99)), 1)

    def test_frobenius_norm_matches_dense(self, rng):
        tensor = random_sparse(rng)
        assert tensor.frobenius_norm() == pytest.approx(
            dense_ops.frobenius_norm(tensor.to_dense())
        )

    def test_scale(self, rng):
        tensor = random_sparse(rng)
        scaled = tensor.scale(2.0)
        assert np.allclose(scaled.to_dense(), 2.0 * tensor.to_dense())

    @settings(max_examples=40, deadline=None)
    @given(tensor=sparse_tensor_strategy())
    def test_property_unfold_norm_is_preserved(self, tensor):
        for mode in range(tensor.ndim):
            unfolded = tensor.unfold(mode)
            assert np.sqrt((unfolded.multiply(unfolded)).sum()) == pytest.approx(
                tensor.frobenius_norm(), abs=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(tensor=sparse_tensor_strategy())
    def test_property_dense_roundtrip(self, tensor):
        assert SparseTensor.from_dense(tensor.to_dense()) == tensor


class TestTtmChain:
    @settings(max_examples=60, deadline=None)
    @given(case=kernel_case())
    def test_property_matches_dense_mode_product_chain(self, case):
        tensor, factors = case
        dense = tensor.to_dense()
        for mode in range(tensor.ndim):
            kernel = tensor.ttm_chain(factors, mode)
            reference = dense_ops.unfold(_project_except(dense, factors, mode), mode)
            # Column order is the library's unfold convention, so the match is
            # entry by entry; the Gram check is what a sweep actually consumes.
            assert np.allclose(kernel, reference, atol=1e-10)
            assert np.allclose(kernel @ kernel.T, reference @ reference.T, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_case())
    def test_property_core_matches_dense_projection(self, case):
        tensor, factors = case
        core = project_to_core(tensor, factors)
        assert core.shape == tuple(f.shape[1] for f in factors)
        assert np.allclose(
            core, project_to_core(tensor.to_dense(), factors), atol=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_case())
    def test_property_bit_identical_to_kronecker_reference(self, case):
        tensor, factors = case
        for mode in range(tensor.ndim):
            assert np.array_equal(
                tensor.ttm_chain(factors, mode),
                kronecker_ttm_chain(tensor, factors, mode),
            )

    def test_fit_is_bit_identical_to_kronecker_reference(self, monkeypatch):
        """The spectral step is degenerate on these corpora: a 1e-15 drift in
        ``lambda2`` can flip the concept partition, so the pin is exact."""
        dataset = generate_profile_dataset(DELICIOUS_PROFILE, scale=0.5, seed=7)
        cleaned = clean_folksonomy(
            dataset.folksonomy, CleaningConfig(min_assignments=5)
        )[0]

        def fit():
            index = CubeLSIPipeline(num_concepts=20, seed=0).fit(cleaned)
            labels = [index.concept_model.concept_of(tag) for tag in cleaned.tags]
            return labels, index.cubelsi_result.decomposition.lambda2

        labels, lambda2 = fit()
        monkeypatch.setattr(SparseTensor, "ttm_chain", kronecker_ttm_chain)
        reference_labels, reference_lambda2 = fit()
        assert labels == reference_labels
        assert np.array_equal(lambda2, reference_lambda2)

    def test_peak_memory_stays_below_the_kronecker_block(self):
        """Clock-free: the block the Kronecker kernel multiplied out would be
        ``n_fibers · ΠJ_other`` doubles; one call must peak below half of it."""
        rng = np.random.default_rng(23)
        tensor = random_sparse(rng, shape=(300, 400, 500), nnz=30_000)
        factors = [rng.standard_normal((s, 12)) for s in tensor.shape]
        for mode in range(tensor.ndim):
            tensor.ttm_chain(factors, mode)  # build the plan outside the trace
            block_bytes = tensor._fiber_plans[mode].coords.shape[1] * 12 * 12 * 8
            assert block_bytes >= 16 * 2**20
            tracemalloc.start()
            try:
                tensor.ttm_chain(factors, mode)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < block_bytes / 2, f"mode {mode}: peak {peak / 2**20:.1f} MB"

    def test_plan_is_built_once_per_mode(self, rng):
        tensor = random_sparse(rng)
        factors = [rng.standard_normal((s, 2)) for s in tensor.shape]
        first = tensor.ttm_chain(factors, 1)
        plan = tensor._fiber_plans[1]
        assert np.array_equal(tensor.ttm_chain(factors, 1), first)
        assert tensor._fiber_plans[1] is plan

    def test_all_zero_tensor(self):
        tensor = SparseTensor.from_entries([], (2, 3, 4))
        factors = [np.ones((s, 2)) for s in tensor.shape]
        assert np.array_equal(tensor.ttm_chain(factors, 0), np.zeros((2, 4)))

    def test_bad_arguments(self, rng):
        tensor = random_sparse(rng)
        factors = [rng.standard_normal((s, 2)) for s in tensor.shape]
        with pytest.raises(DimensionError):
            tensor.ttm_chain(factors, 3)
        with pytest.raises(DimensionError):
            tensor.ttm_chain(factors[:2], 0)
        with pytest.raises(DimensionError):
            tensor.ttm_chain([factors[0], factors[1][:-1], factors[2]], 0)


class TestSparseTuckerAls:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_and_dense_input_agree(self, seed):
        tensor = random_sparse(np.random.default_rng(seed), shape=(8, 7, 9), nnz=70)
        sparse = tucker_als(tensor, ranks=(3, 3, 3), seed=0)
        dense = tucker_als(tensor.to_dense(), ranks=(3, 3, 3), seed=0)
        assert np.allclose(sparse.fit_history, dense.fit_history, atol=1e-10)
        for mode in range(3):
            assert np.allclose(
                sparse.mode_singular_values[mode],
                dense.mode_singular_values[mode],
                atol=1e-9,
            )
            y_sparse, y_dense = sparse.factors[mode], dense.factors[mode]
            assert np.allclose(y_sparse @ y_sparse.T, y_dense @ y_dense.T, atol=1e-8)
        assert sparse.fit == pytest.approx(
            dense_ops.frobenius_norm(sparse.core) / tensor.frobenius_norm(), abs=1e-12
        )

    @pytest.mark.parametrize("as_sparse", [True, False])
    def test_rank_deficient_tensor_keeps_orthonormal_factors(self, rng, as_sparse):
        core = rng.standard_normal((2, 2, 2))
        factors = [rng.standard_normal((s, 2)) for s in (6, 7, 5)]
        dense = dense_ops.tensor_from_tucker(core, factors)
        tensor = SparseTensor.from_dense(dense) if as_sparse else dense
        result = tucker_als(tensor, ranks=(4, 4, 4), seed=0)
        assert np.all(np.isfinite(result.core))
        for factor in result.factors:
            assert np.all(np.isfinite(factor))
            gram = factor.T @ factor
            assert np.linalg.norm(gram - np.eye(4)) < 1e-10
        assert np.allclose(result.reconstruct(), dense, atol=1e-8)

    def test_same_seed_is_bitwise_repeatable(self):
        # Large enough for the ARPACK route of the HOSVD initialiser.
        def fit():
            tensor = random_sparse(
                np.random.default_rng(5), shape=(40, 36, 50), nnz=600
            )
            return tucker_als(tensor, ranks=(5, 4, 6), max_iter=5, seed=3)

        first, second = fit(), fit()
        assert first.fit_history == second.fit_history
        assert np.array_equal(first.core, second.core)
        for a, b in zip(first.factors, second.factors):
            assert np.array_equal(a, b)

    def test_hosvd_never_densifies_a_hyper_sparse_unfolding(self, monkeypatch):
        """A few-row mode used to ``toarray()`` its whole ``I_n x ΠI_other``
        unfolding (here 20 x 9M doubles = 1.4 GB for 500 non-zeros)."""
        limit = 20 * 500

        def guard(cls):
            original = cls.toarray

            def toarray(self, *args, **kwargs):
                cells = self.shape[0] * self.shape[1]
                assert cells <= limit, f"toarray() of {self.shape}: {cells} cells"
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "toarray", toarray)

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            guard(cls)
        tensor = random_sparse(
            np.random.default_rng(11), shape=(20, 3000, 3000), nnz=500
        )
        result = hosvd(tensor, ranks=(20, 5, 5), seed=0)
        assert result.core.shape == (20, 5, 5)
        for factor in result.factors:
            assert np.allclose(
                factor.T @ factor, np.eye(factor.shape[1]), atol=1e-10
            )

    def test_peak_memory_is_bounded_by_the_nonzeros(self):
        """``nnz · ΠJ_other + Σ I_n · J_n`` doubles is a few tens of MB here;
        one dense ``J x I x I`` intermediate would be 6 x 2000 x 20000 doubles
        (1.9 GB)."""
        tensor = random_sparse(
            np.random.default_rng(17), shape=(2000, 300, 20000), nnz=30_000
        )
        tracemalloc.start()
        try:
            result = tucker_als(tensor, ranks=(8, 6, 10), max_iter=3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.core.shape == (8, 6, 10)
        assert peak < 200 * 1024 * 1024, f"peak {peak / 2**20:.0f} MB"
