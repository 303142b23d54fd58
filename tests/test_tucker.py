"""Tests for HOSVD, Tucker-ALS and the Theorem 1/2 distance shortcuts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distances import (
    aggregated_vector_distances,
    pairwise_distances_materialized,
    pairwise_distances_shortcut,
    raw_slice_distances,
    sigma_from_core,
    sigma_from_singular_values,
    tag_distance_matrix,
)
from repro.tensor.dense import tensor_from_tucker
from repro.tensor.hosvd import hosvd, resolve_ranks, truncated_svd
from repro.tensor.sparse import SparseTensor
from repro.tensor.tucker import tucker_als
from repro.utils.errors import ConfigurationError, DimensionError


def random_low_rank_tensor(rng, shape=(6, 7, 5), ranks=(2, 3, 2)):
    core = rng.standard_normal(ranks)
    factors = [np.linalg.qr(rng.standard_normal((s, r)))[0] for s, r in zip(shape, ranks)]
    return tensor_from_tucker(core, factors)


class TestTruncatedSvd:
    def test_matches_numpy_on_dense(self, rng):
        matrix = rng.standard_normal((10, 6))
        u, s, vt = truncated_svd(matrix, 3)
        _, s_full, _ = np.linalg.svd(matrix)
        assert np.allclose(s, s_full[:3])
        assert u.shape == (10, 3)
        assert vt.shape == (3, 6)

    def test_sparse_path_matches_dense(self, rng):
        import scipy.sparse as sp

        dense = rng.standard_normal((60, 40))
        dense[np.abs(dense) < 1.2] = 0.0
        sparse = sp.csr_matrix(dense)
        _, s_sparse, _ = truncated_svd(sparse, 4, seed=0)
        _, s_dense, _ = np.linalg.svd(dense)
        assert np.allclose(np.sort(s_sparse), np.sort(s_dense[:4]), atol=1e-6)

    def test_rank_is_clamped(self, rng):
        matrix = rng.standard_normal((4, 3))
        u, s, _ = truncated_svd(matrix, 10)
        assert u.shape[1] == 3

    def test_invalid_rank_raises(self, rng):
        with pytest.raises(ConfigurationError):
            truncated_svd(rng.standard_normal((3, 3)), 0)


class TestResolveRanks:
    def test_explicit_ranks_clamped_to_shape(self):
        assert resolve_ranks((10, 5), ranks=(20, 3)) == (10, 3)

    def test_reduction_ratios(self):
        assert resolve_ranks((100, 50, 30), reduction_ratios=(10, 10, 10)) == (10, 5, 3)

    def test_ratio_floor_is_one(self):
        assert resolve_ranks((4,), reduction_ratios=(100,)) == (1,)

    def test_both_or_neither_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_ranks((4, 4), ranks=(2, 2), reduction_ratios=(2, 2))
        with pytest.raises(ConfigurationError):
            resolve_ranks((4, 4))

    def test_bad_values_raise(self):
        with pytest.raises(ConfigurationError):
            resolve_ranks((4, 4), ranks=(0, 2))
        with pytest.raises(ConfigurationError):
            resolve_ranks((4, 4), reduction_ratios=(0.5, 2))
        with pytest.raises(ConfigurationError):
            resolve_ranks((4, 4), ranks=(2,))


class TestHosvd:
    def test_exact_recovery_of_low_rank_tensor(self, rng):
        tensor = random_low_rank_tensor(rng)
        result = hosvd(tensor, ranks=(2, 3, 2))
        reconstructed = tensor_from_tucker(result.core, result.factors)
        assert np.allclose(reconstructed, tensor, atol=1e-8)

    def test_factors_are_orthonormal(self, rng):
        tensor = rng.standard_normal((5, 6, 4))
        result = hosvd(tensor, ranks=(3, 3, 3))
        for factor in result.factors:
            assert np.allclose(factor.T @ factor, np.eye(factor.shape[1]), atol=1e-8)

    def test_works_on_sparse_input(self, rng):
        dense = random_low_rank_tensor(rng)
        dense[np.abs(dense) < 0.3] = 0.0
        sparse = SparseTensor.from_dense(dense)
        result = hosvd(sparse, ranks=(2, 3, 2))
        assert result.core.shape == (2, 3, 2)

    def test_requires_order_two_or_more(self):
        with pytest.raises(DimensionError):
            hosvd(np.zeros(3), ranks=(1,))


class TestTuckerAls:
    def test_exact_recovery_of_low_rank_tensor(self, rng):
        tensor = random_low_rank_tensor(rng)
        result = tucker_als(tensor, ranks=(2, 3, 2), seed=0)
        assert result.fit == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(result.reconstruct(), tensor, atol=1e-6)

    def test_fit_is_monotone_nondecreasing(self, rng):
        tensor = rng.standard_normal((6, 6, 6))
        result = tucker_als(tensor, ranks=(3, 3, 3), max_iter=10, tol=0.0, seed=0)
        fits = np.array(result.fit_history)
        assert np.all(np.diff(fits) >= -1e-9)

    def test_factors_are_orthonormal(self, toy_tensor):
        result = tucker_als(toy_tensor, ranks=(3, 3, 2), seed=0)
        for factor in result.factors:
            assert np.allclose(factor.T @ factor, np.eye(factor.shape[1]), atol=1e-8)

    def test_core_matches_projection(self, toy_tensor):
        result = tucker_als(toy_tensor, ranks=(3, 3, 2), seed=0)
        dense = toy_tensor.to_dense()
        projected = dense
        from repro.tensor.dense import mode_product

        for mode, factor in enumerate(result.factors):
            projected = mode_product(projected, factor.T, mode)
        assert np.allclose(result.core, projected, atol=1e-8)

    def test_lambda2_matches_core_unfolding_singular_values(self, toy_tensor):
        result = tucker_als(toy_tensor, ranks=(3, 3, 2), max_iter=100, seed=0)
        # At an ALS fixed point the mode-2 singular values of the projected
        # tensor equal the singular values of the core's mode-2 unfolding.
        core_singular = np.linalg.svd(result.core_unfolding(1), compute_uv=False)
        assert np.allclose(
            np.sort(result.lambda2)[::-1][: len(core_singular)],
            core_singular,
            atol=1e-6,
        )

    def test_random_init_also_converges(self, rng):
        tensor = random_low_rank_tensor(rng)
        result = tucker_als(tensor, ranks=(2, 3, 2), seed=1, init="random")
        assert result.fit == pytest.approx(1.0, abs=1e-5)

    def test_unknown_init_raises(self, toy_tensor):
        with pytest.raises(ConfigurationError):
            tucker_als(toy_tensor, ranks=(2, 2, 2), init="bogus")

    def test_reduction_ratios_accepted(self, toy_tensor):
        result = tucker_als(toy_tensor, reduction_ratios=(1.0, 1.0, 1.5), seed=0)
        assert result.ranks == (3, 3, 2)

    def test_zero_tensor_is_handled(self):
        zero = SparseTensor.from_entries([], (3, 3, 3))
        result = tucker_als(zero, ranks=(2, 2, 2))
        assert result.fit == pytest.approx(1.0)
        assert np.allclose(result.core, 0.0)

    def test_compressed_vs_dense_size(self, toy_tensor):
        result = tucker_als(toy_tensor, ranks=(2, 2, 2), seed=0)
        assert result.compressed_size() < result.dense_size()

    def test_bad_parameters_raise(self, toy_tensor):
        with pytest.raises(ConfigurationError):
            tucker_als(toy_tensor, ranks=(2, 2, 2), max_iter=0)
        with pytest.raises(ConfigurationError):
            tucker_als(toy_tensor, ranks=(2, 2, 2), tol=-1.0)


class TestDistanceTheorems:
    """Executable checks of Theorems 1 and 2 of the paper."""

    def test_theorem1_shortcut_equals_materialized(self, toy_cubelsi_result):
        decomposition = toy_cubelsi_result.decomposition
        sigma = sigma_from_core(decomposition.core)
        shortcut = pairwise_distances_shortcut(decomposition.factors[1], sigma)
        materialized = pairwise_distances_materialized(decomposition)
        assert np.allclose(shortcut, materialized, atol=1e-8)

    def test_theorem1_on_random_low_rank_tensor(self, rng):
        tensor = random_low_rank_tensor(rng, shape=(5, 8, 6), ranks=(2, 3, 2))
        decomposition = tucker_als(tensor, ranks=(2, 3, 2), seed=0)
        sigma = sigma_from_core(decomposition.core)
        shortcut = pairwise_distances_shortcut(decomposition.factors[1], sigma)
        materialized = pairwise_distances_materialized(decomposition)
        assert np.allclose(shortcut, materialized, atol=1e-7)

    def test_theorem2_sigma_matches_theorem1_sigma(self, toy_tensor):
        decomposition = tucker_als(toy_tensor, ranks=(3, 3, 2), max_iter=200, seed=0)
        sigma_core = sigma_from_core(decomposition.core)
        sigma_lambda = sigma_from_singular_values(
            decomposition.lambda2, rank=decomposition.ranks[1]
        )
        distances_core = pairwise_distances_shortcut(
            decomposition.factors[1], sigma_core
        )
        distances_lambda = pairwise_distances_shortcut(
            decomposition.factors[1], sigma_lambda
        )
        assert np.allclose(distances_core, distances_lambda, atol=1e-6)

    def test_tag_distance_matrix_falls_back_to_theorem1(self, toy_tensor):
        """Theorem 2 when ``Λ₂`` covers the tag rank, else the core (Theorem 1)."""
        decomposition = tucker_als(toy_tensor, ranks=(3, 3, 2), seed=0)
        tags = decomposition.factors[1]
        theorem2 = sigma_from_singular_values(decomposition.lambda2, rank=3)
        assert np.array_equal(
            tag_distance_matrix(decomposition),
            pairwise_distances_shortcut(tags, theorem2),
        )
        decomposition.mode_singular_values[1] = decomposition.lambda2[:2]
        assert np.array_equal(
            tag_distance_matrix(decomposition),
            pairwise_distances_shortcut(tags, sigma_from_core(decomposition.core)),
        )

    def test_tag_distance_matrix_properties(self, toy_cubelsi_result):
        distances = toy_cubelsi_result.distances
        assert np.allclose(distances, distances.T)
        assert np.allclose(np.diag(distances), 0.0)
        assert np.all(distances >= 0.0)

    def test_sigma_from_singular_values_rank_validation(self):
        with pytest.raises(DimensionError):
            sigma_from_singular_values(np.array([1.0, 2.0]), rank=5)

    def test_shortcut_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            pairwise_distances_shortcut(np.zeros((4, 3)), np.eye(2))

    def test_raw_slice_distances_match_dense(self, toy_tensor):
        sparse_distances = raw_slice_distances(toy_tensor)
        dense_distances = raw_slice_distances(toy_tensor.to_dense())
        assert np.allclose(sparse_distances, dense_distances)

    def test_running_example_raw_distances(self, toy_tensor, toy_folksonomy):
        """Eq. 7-13: the exact numbers of the paper's running example."""
        vector = aggregated_vector_distances(toy_folksonomy.to_tag_resource_matrix())
        assert vector[0, 1] ** 2 == pytest.approx(9.0)
        assert vector[0, 2] ** 2 == pytest.approx(14.0)
        assert vector[1, 2] ** 2 == pytest.approx(5.0)

        slices = raw_slice_distances(toy_tensor)
        assert slices[0, 1] ** 2 == pytest.approx(3.0)
        assert slices[0, 2] ** 2 == pytest.approx(6.0)
        assert slices[1, 2] ** 2 == pytest.approx(3.0)

    def test_running_example_purified_ordering(self, toy_cubelsi_result):
        """Eq. 18-19: after purification, folk/people become closest."""
        distances = toy_cubelsi_result.distances
        assert distances[0, 1] < distances[1, 2] < distances[0, 2]

    def test_materialized_requires_order_three(self, rng):
        matrix_decomposition = tucker_als(rng.standard_normal((4, 4)), ranks=(2, 2))
        with pytest.raises(DimensionError):
            pairwise_distances_materialized(matrix_decomposition)

    def test_tag_distance_matrix_requires_order_three(self, rng):
        matrix_decomposition = tucker_als(rng.standard_normal((4, 4)), ranks=(2, 2))
        with pytest.raises(DimensionError):
            tag_distance_matrix(matrix_decomposition)
