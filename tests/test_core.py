"""Tests for the CubeLSI core: clustering, concepts, CubeLSI and the pipeline."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concepts import (
    Concept,
    ConceptModel,
    distill_concepts,
    identity_concept_model,
)
from repro.core.cubelsi import CubeLSI
from repro.core.kmeans import KMeans
from repro.core.pipeline import CubeLSIPipeline
from repro.core.spectral import (
    SpectralClustering,
    affinity_from_distances,
    choose_num_clusters,
    normalized_laplacian,
)
from repro.datasets.generator import FolksonomyGenerator, GeneratorConfig
from repro.datasets.vocabulary import build_default_vocabulary
from repro.search.engine import SearchEngine
from repro.search.matrix_space import MatrixConceptSpace
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.utils.errors import ConfigurationError, DimensionError, NotFittedError


def blob_points(rng, centers, per_cluster=10, spread=0.05):
    points = []
    labels = []
    for index, center in enumerate(centers):
        cluster = center + spread * rng.standard_normal((per_cluster, len(center)))
        points.append(cluster)
        labels.extend([index] * per_cluster)
    return np.vstack(points), np.array(labels)


def pairwise_euclidean(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def adjusted_rand_index(labels_a, labels_b):
    """Hubert-Arabie adjusted Rand index of two labelings of the same items."""
    a = np.unique(labels_a, return_inverse=True)[1]
    b = np.unique(labels_b, return_inverse=True)[1]
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    together = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array(float(len(a))))
    maximum = (rows + cols) / 2
    return 1.0 if maximum == expected else (together - expected) / (maximum - expected)


class TestKMeans:
    def test_recovers_well_separated_blobs(self, rng):
        points, truth = blob_points(rng, [np.zeros(2), np.full(2, 10.0), np.array([0.0, 10.0])])
        result = KMeans(num_clusters=3, seed=0).fit(points)
        # clusters must be a permutation of the ground truth partition
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(set(members)) == 1
        assert result.inertia < 5.0

    def test_k_greater_than_points_is_clamped(self, rng):
        points = rng.standard_normal((3, 2))
        result = KMeans(num_clusters=10, seed=0).fit(points)
        assert result.num_clusters == 3

    def test_identical_points(self):
        points = np.ones((5, 2))
        result = KMeans(num_clusters=2, seed=0).fit(points)
        assert result.inertia == pytest.approx(0.0)

    def test_deterministic_given_seed(self, rng):
        points = rng.standard_normal((30, 3))
        a = KMeans(num_clusters=4, seed=1).fit(points)
        b = KMeans(num_clusters=4, seed=1).fit(points)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            KMeans(num_clusters=0)
        with pytest.raises(ConfigurationError):
            KMeans(num_clusters=2, max_iter=0)
        with pytest.raises(ConfigurationError):
            KMeans(num_clusters=2, num_init=0)

    def test_empty_and_wrong_shape_input(self):
        with pytest.raises(DimensionError):
            KMeans(num_clusters=2).fit(np.zeros((0, 2)))
        with pytest.raises(DimensionError):
            KMeans(num_clusters=2).fit(np.zeros(5))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_labels_within_range(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((20, 2))
        result = KMeans(num_clusters=4, seed=seed).fit(points)
        assert result.labels.shape == (20,)
        assert set(result.labels) <= set(range(4))

    def test_simultaneously_empty_clusters_reseed_at_distinct_points(self, monkeypatch):
        """Regression: two clusters emptying in the same iteration used to be
        re-seeded at the *same* farthest point, leaving duplicate centroids."""
        # Four tight groups far apart; three initial centroids stacked on the
        # first group and two placed far away from everything, so (at least)
        # two centroids capture no points in the first assignment.
        groups = [np.zeros(2), np.array([50.0, 0.0]), np.array([0.0, 50.0]),
                  np.array([50.0, 50.0])]
        rng = np.random.default_rng(3)
        points = np.concatenate(
            [center + 0.01 * rng.standard_normal((6, 2)) for center in groups]
        )
        rigged = np.array(
            [points[0], points[1], points[2], [1e6, 1e6], [1e6, 1e6]]
        )
        monkeypatch.setattr(
            KMeans,
            "_kmeans_plus_plus",
            staticmethod(lambda pts, k, rng_: rigged[:k].copy()),
        )
        # One Lloyd step: both far centroids empty out in the same iteration
        # and must come back as two *distinct* reseeded points (the old code
        # parked both on the single farthest point).
        one_step = KMeans(num_clusters=5, num_init=1, max_iter=1, seed=0).fit(points)
        assert len({tuple(np.round(c, 9)) for c in one_step.centroids}) == 5
        # And with room to converge, all five clusters survive.
        converged = KMeans(num_clusters=5, num_init=1, max_iter=50, seed=0).fit(points)
        assert len({tuple(np.round(c, 6)) for c in converged.centroids}) == 5
        assert set(converged.labels) == set(range(5))


class TestSpectral:
    def test_affinity_matrix_properties(self, rng):
        distances = pairwise_euclidean(rng.standard_normal((8, 2)))
        affinity = affinity_from_distances(distances, sigma=1.0)
        assert np.allclose(np.diag(affinity), 0.0)
        assert np.all(affinity >= 0.0) and np.all(affinity <= 1.0)
        assert np.allclose(affinity, affinity.T)

    def test_affinity_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            affinity_from_distances(np.zeros((2, 2)), sigma=0.0)

    def test_normalized_laplacian_eigenvalues_bounded(self, rng):
        distances = pairwise_euclidean(rng.standard_normal((10, 2)))
        laplacian = normalized_laplacian(affinity_from_distances(distances))
        eigenvalues = np.linalg.eigvalsh(laplacian)
        assert eigenvalues.max() <= 1.0 + 1e-8

    def test_normalized_laplacian_handles_isolated_nodes(self):
        affinity = np.zeros((3, 3))
        laplacian = normalized_laplacian(affinity)
        assert np.allclose(laplacian, 0.0)

    def test_choose_num_clusters_coverage(self):
        eigenvalues = np.array([10.0, 5.0, 1.0, 0.1, 0.05])
        assert choose_num_clusters(eigenvalues, variance_target=0.9) == 2
        assert choose_num_clusters(eigenvalues, variance_target=1.0) == 5
        assert choose_num_clusters(eigenvalues, variance_target=0.9, max_clusters=1) == 1

    def test_choose_num_clusters_invalid_target(self):
        with pytest.raises(ConfigurationError):
            choose_num_clusters(np.array([1.0]), variance_target=0.0)

    def test_recovers_separated_clusters(self, rng):
        points, truth = blob_points(rng, [np.zeros(2), np.full(2, 8.0)])
        distances = pairwise_euclidean(points)
        result = SpectralClustering(num_clusters=2, sigma=2.0, seed=0).fit(distances)
        for cluster in range(2):
            members = truth[result.labels == cluster]
            assert len(set(members)) == 1

    def test_auto_cluster_count(self, rng):
        points, _ = blob_points(rng, [np.zeros(2), np.full(2, 8.0), np.array([8.0, 0.0])])
        distances = pairwise_euclidean(points)
        result = SpectralClustering(num_clusters=None, sigma=2.0, seed=0).fit(distances)
        assert 1 <= result.num_clusters <= distances.shape[0]
        assert len(result.clusters()) == result.num_clusters

    def test_paper_running_example_clusters(self, toy_cubelsi_result, toy_folksonomy):
        """Section V worked example: {folk, people} vs {laptop}."""
        model = distill_concepts(
            toy_cubelsi_result.distances,
            tags=toy_folksonomy.tags,
            num_concepts=2,
            sigma=1.0,
            seed=0,
        )
        clusters = {frozenset(c) for c in model.as_clusters()}
        assert frozenset({"t1", "t2"}) in clusters
        assert frozenset({"t3"}) in clusters

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            SpectralClustering(num_clusters=0)
        with pytest.raises(DimensionError):
            SpectralClustering(num_clusters=2).fit(np.zeros((2, 3)))


class TestConceptModel:
    def test_concept_requires_tags(self):
        with pytest.raises(ConfigurationError):
            Concept(concept_id=0, tags=())

    def test_concept_label(self):
        concept = Concept(concept_id=0, tags=("a", "b", "c", "d"))
        assert concept.label(max_tags=2) == "[a, b, ...]"

    def test_concept_bag_sums_counts(self):
        model = ConceptModel(
            concepts=[Concept(0, ("music", "audio")), Concept(1, ("travel",))],
            tag_to_concept={"music": 0, "audio": 0, "travel": 1},
        )
        bag = model.concept_bag({"music": 2, "audio": 1, "travel": 4, "unknown": 9})
        assert bag == {0: 3.0, 1: 4.0}

    def test_invalid_policy_and_mapping(self):
        with pytest.raises(TypeError):  # the own-concept option is retired
            ConceptModel(
                concepts=[], tag_to_concept={}, unknown_policy="own-concept"
            )
        with pytest.raises(DimensionError):
            ConceptModel(
                concepts=[Concept(0, ("a",))], tag_to_concept={"a": 5}
            )

    def test_members_unknown_id_raises(self):
        model = identity_concept_model(["a"])
        with pytest.raises(KeyError):
            model.members(10)

    def test_identity_concept_model(self):
        model = identity_concept_model(["a", "b"])
        assert model.num_concepts == 2
        assert model.concept_of("a") != model.concept_of("b")
        assert model.concept_of("zzz") is None
        with pytest.raises(ConfigurationError):
            identity_concept_model(["a", "a"])

    def test_distill_concepts_validation(self):
        with pytest.raises(DimensionError):
            distill_concepts(np.zeros((3, 2)), ["a", "b", "c"])
        with pytest.raises(DimensionError):
            distill_concepts(np.zeros((3, 3)), ["a", "b"])
        with pytest.raises(ConfigurationError):
            distill_concepts(np.zeros((2, 2)), ["a", "a"])

    def test_distill_concepts_partitions_all_tags(self, toy_cubelsi_result, toy_folksonomy):
        model = distill_concepts(
            toy_cubelsi_result.distances, toy_folksonomy.tags, num_concepts=2, seed=0
        )
        assigned = [tag for cluster in model.as_clusters() for tag in cluster]
        assert sorted(assigned) == sorted(toy_folksonomy.tags)
        assert sum(model.cluster_sizes()) == len(toy_folksonomy.tags)


class TestCubeLSI:
    def test_fit_on_folksonomy_keeps_tag_labels(self, toy_folksonomy):
        result = CubeLSI(ranks=(3, 3, 2), seed=0).fit(toy_folksonomy)
        assert result.tags == toy_folksonomy.tags
        assert result.distance("t1", "t2") == result.distances[0, 1]
        assert result.distance(0, 1) == result.distances[0, 1]

    def test_fit_on_raw_tensor_has_no_labels(self, toy_tensor):
        result = CubeLSI(ranks=(3, 3, 2), seed=0).fit(toy_tensor)
        assert result.tags is None
        with pytest.raises(ConfigurationError):
            result.distance("t1", "t2")

    def test_nearest_tags(self, toy_folksonomy):
        result = CubeLSI(ranks=(3, 3, 2), seed=0).fit(toy_folksonomy)
        nearest = result.nearest_tags("t1", k=1)
        assert nearest[0][0] == "t2"

    def test_nearest_tags_matches_full_sort_reference(self, toy_cubelsi_result):
        """Pin: the argpartition fast path returns exactly what an exhaustive
        argsort over all |T| distances used to return."""
        from repro.core.cubelsi import CubeLSIResult

        rng = np.random.default_rng(17)
        size = 40
        # Distinct off-diagonal distances so the reference order is unique.
        upper = np.triu(rng.permutation(size * size).reshape(size, size) + 1.0, 1)
        distances = upper + upper.T
        tags = tuple(f"tag{i:02d}" for i in range(size))
        result = CubeLSIResult(
            distances=distances,
            decomposition=toy_cubelsi_result.decomposition,
            tags=tags,
            timings={},
        )
        for tag_index in (0, 7, size - 1):
            row = distances[tag_index]
            reference_order = [
                int(i) for i in np.argsort(row, kind="stable") if i != tag_index
            ]
            for k in (1, 5, size - 1, size + 10):
                expected = [
                    (tags[i], float(row[i]))
                    for i in reference_order[: min(k, size - 1)]
                ]
                assert result.nearest_tags(tags[tag_index], k=k) == expected
                assert result.nearest_tags(tag_index, k=k) == [
                    (tags[i], score) for (_, score), i in zip(
                        expected, reference_order[: min(k, size - 1)]
                    )
                ]

    def test_nearest_tags_boundary_ties_prefer_lowest_indices(
        self, toy_cubelsi_result
    ):
        """Distances tied at the partition boundary must resolve to the
        lowest tag indices, exactly as the full-sort reference would."""
        from repro.core.cubelsi import CubeLSIResult

        size = 12
        distances = np.ones((size, size))
        np.fill_diagonal(distances, 0.0)
        distances[0, 1] = distances[1, 0] = 0.5  # one clear winner, rest tied
        tags = tuple(f"tag{i:02d}" for i in range(size))
        result = CubeLSIResult(
            distances=distances,
            decomposition=toy_cubelsi_result.decomposition,
            tags=tags,
            timings={},
        )
        nearest = result.nearest_tags("tag00", k=4)
        assert [name for name, _ in nearest] == ["tag01", "tag02", "tag03", "tag04"]

    def test_label_index_lookup(self, toy_folksonomy):
        result = CubeLSI(ranks=(3, 3, 2), seed=0).fit(toy_folksonomy)
        for position, tag in enumerate(result.tags):
            assert result.distance(tag, tag) == result.distances[position, position]
        with pytest.raises(KeyError):
            result.nearest_tags("no-such-tag")

    def test_reduction_ratio_default_and_min_rank(self, small_cleaned):
        model = CubeLSI(min_rank=4)  # paper default ratio 50 on a tiny corpus
        result = model.fit(small_cleaned)
        assert all(r >= 1 for r in result.ranks)
        assert result.ranks[1] <= small_cleaned.num_tags

    def test_conflicting_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            CubeLSI(ranks=(2, 2, 2), reduction_ratios=10.0)
        with pytest.raises(ConfigurationError):
            CubeLSI(reduction_ratios=(10.0, 10.0))

    def test_requires_order_three(self, rng):
        with pytest.raises(DimensionError):
            CubeLSI(ranks=(2, 2, 2)).fit(rng.standard_normal((4, 4)))

    def test_last_result_requires_fit(self):
        with pytest.raises(NotFittedError):
            CubeLSI(ranks=(2, 2, 2)).last_result

    def test_memory_report_shapes(self, toy_folksonomy):
        result = CubeLSI(ranks=(3, 3, 2), seed=0).fit(toy_folksonomy)
        report = result.memory_report()
        assert report["dense_reconstruction_values"] == 27
        assert report["core_plus_tag_factor_values"] < report["dense_reconstruction_values"] * 10
        assert report["dense_reconstruction_bytes"] == 27 * 8

    def test_timings_recorded(self, toy_folksonomy):
        result = CubeLSI(ranks=(3, 3, 2), seed=0).fit(toy_folksonomy)
        assert set(result.timings) == {
            "to_tensor",
            "tucker_init",
            "tucker_sweeps",
            "tucker_als",
            "tag_distances",
        }
        assert all(value >= 0.0 for value in result.timings.values())
        # ``tucker_als`` stays the decomposition's total; the two stages are
        # shares of it, not additions to it.
        assert (
            result.timings["tucker_init"] + result.timings["tucker_sweeps"]
            <= result.timings["tucker_als"]
        )


class TestPlantedConceptRecovery:
    def test_adjusted_rand_index_helper(self):
        assert adjusted_rand_index([0, 0, 1, 1], ["x", "x", "y", "y"]) == 1.0
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
        assert adjusted_rand_index([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(4 / 7)

    def test_fit_recovers_planted_concepts_over_seeds(self, record_property):
        """Simulate-then-refit: generate from planted concepts, fit, compare.

        For six generator seeds of the small profile, the partition
        ``ConceptModel.concept_of`` induces on the monosemous tags is scored
        against ``GroundTruth.tag_concepts`` with the adjusted Rand index
        (0 = chance, 1 = exact).  Measured at the parent commit (full
        ``numpy.linalg.svd`` ALS) and, identically, with the fiber-plan
        kernel: ARI per seed 0.717, 0.595, 0.660, 0.668, 0.390, 0.230 —
        median 0.628, minimum 0.230.  The floors leave room for a tag or
        two changing cluster on another BLAS, not for a broken fit.

        The distance matrix is also perturbed by symmetric 1e-12 noise and
        the number of tags that change concept is *recorded*, not asserted:
        the spectral embedding has near-degenerate eigenvalues, so a
        last-digit change in the distances may legitimately move a tag
        (0 of ~45 tags on every seed here; 1 of 121 on the ``fit_offline``
        benchmark corpus under a 6e-14 perturbation).
        """
        vocabulary = build_default_vocabulary(domains=("academic",))
        scores, flips = [], []
        for seed in range(6):
            config = GeneratorConfig(
                num_users=60,
                num_resources=150,
                num_interest_groups=4,
                concepts_per_group=5,
                num_archetypes=6,
                mean_posts_per_user=12.0,
                max_tags_per_post=3,
                seed=seed,
            )
            dataset = FolksonomyGenerator(config, vocabulary).generate(name="planted")
            cleaned, _ = clean_folksonomy(
                dataset.folksonomy, CleaningConfig(min_assignments=3)
            )
            planted = {
                tag: next(iter(concepts))
                for tag, concepts in dataset.ground_truth.tag_concepts.items()
                if len(concepts) == 1 and tag in cleaned.tags
            }
            monosemous = sorted(planted)
            num_concepts = len(set(planted.values()))
            distances = (
                CubeLSI(reduction_ratios=(10.0, 3.0, 10.0), seed=0, min_rank=4)
                .fit(cleaned)
                .distances
            )

            def partition(matrix):
                model = distill_concepts(
                    matrix, tags=cleaned.tags, num_concepts=num_concepts, seed=0
                )
                return [model.concept_of(tag) for tag in cleaned.tags]

            def co_members(labels):  # invariant under renumbering the concepts
                return [
                    frozenset(i for i, other in enumerate(labels) if other == label)
                    for label in labels
                ]

            labels = partition(distances)
            fitted = dict(zip(cleaned.tags, labels))
            scores.append(
                adjusted_rand_index(
                    [fitted[tag] for tag in monosemous],
                    [planted[tag] for tag in monosemous],
                )
            )
            noise = 1e-12 * np.random.default_rng(seed).standard_normal(distances.shape)
            perturbed = partition(distances + (noise + noise.T) / 2)
            flips.append(
                sum(a != b for a, b in zip(co_members(labels), co_members(perturbed)))
            )
        record_property("planted_concept_ari", [round(score, 4) for score in scores])
        record_property("tags_changing_concept_under_1e-12_noise", flips)
        assert np.median(scores) >= 0.45, scores
        assert min(scores) >= 0.10, scores


class TestPipeline:
    def test_pipeline_produces_searchable_index(self, small_cleaned):
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=15, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        assert index.num_concepts <= 15
        assert index.preprocessing_seconds() > 0.0
        query_tag = small_cleaned.tags[0]
        results = index.engine.search([query_tag], top_k=5)
        assert len(results) <= 5
        assert all(r.score >= 0 for r in results)
        assert pipeline.last_index is index

    def test_pipeline_rejects_empty_folksonomy(self):
        from repro.tagging.folksonomy import Folksonomy

        with pytest.raises(ConfigurationError):
            CubeLSIPipeline().fit(Folksonomy([]))

    def test_pipeline_invalid_num_concepts(self):
        with pytest.raises(ConfigurationError):
            CubeLSIPipeline(num_concepts=0)

    def test_last_index_requires_fit(self):
        with pytest.raises(NotFittedError):
            CubeLSIPipeline().last_index


def test_settable_values_are_pinned():
    """The parameters of the fit and the index build, by name and order.

    Adding or removing one is a design change: update this list with it.
    """
    pinned = {
        CubeLSIPipeline: [
            "reduction_ratios",
            "ranks",
            "num_concepts",
            "sigma",
            "max_iter",
            "tol",
            "seed",
            "min_rank",
        ],
        CubeLSI: ["ranks", "reduction_ratios", "max_iter", "tol", "seed", "min_rank"],
        distill_concepts: [
            "distances",
            "tags",
            "num_concepts",
            "sigma",
            "variance_target",
            "seed",
        ],
        ConceptModel: ["concepts", "tag_to_concept"],
        SearchEngine.build: ["folksonomy", "concept_model", "name", "refresh_policy"],
        MatrixConceptSpace.from_counts: ["doc_ids", "rows", "vocabulary", "terms", "counts"],
    }
    for target, names in pinned.items():
        assert list(inspect.signature(target).parameters) == names, target
