import math

import numpy as np
import pytest

from driftwatch.cluster import agglomerative
from driftwatch.cluster.hierarchy import _merge

from oracles import (
    agglomerative_matrix_reference,
    agglomerative_reference,
    canonical,
    capture_data,
    mixture_data,
)


class TestAgglomerativeExamples:
    def test_huge_threshold_single_cluster(self):
        res = agglomerative([3, 1, 4, 1.5], distance_threshold=10, linkage="average")
        assert res.n_clusters == 1

    def test_tiny_threshold_all_singletons(self):
        res = agglomerative([1, 2, 4, 8], distance_threshold=0.5, linkage="single")
        assert res.n_clusters == 4

    def test_average_linkage_two_pairs(self):
        res = agglomerative([1, 2, 9, 10], distance_threshold=3, linkage="average")
        assert res.n_clusters == 2
        assert canonical(res.labels) == (0, 0, 1, 1)
        assert sorted(res.centroids.tolist()) == [1.5, 9.5]

    def test_threshold_boundary_merges_at_equality(self):
        # merging continues while the minimum distance does not exceed the threshold
        res = agglomerative([0.0, 1.0], distance_threshold=1.0, linkage="single")
        assert res.n_clusters == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_distances_merge_under_an_infinite_threshold(self):
        for data in ([-1e308, 1e308], [-1e308, 1e308, -1e308, 1e308]):
            assert agglomerative(data, math.inf, "single").n_clusters == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            agglomerative([1, 2], distance_threshold=0)
        with pytest.raises(ValueError):
            agglomerative([1, 2], distance_threshold=1, linkage="ward")


class TestAgglomerativeProperties:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_matches_naive_reference(self, linkage):
        rng = np.random.default_rng(31)
        for trial in range(25):
            data = mixture_data(rng, int(rng.integers(3, 14)))
            threshold = float(rng.uniform(0.5, 40.0))
            mine = agglomerative(data, threshold, linkage)
            ref = agglomerative_reference(data, threshold, linkage)
            assert canonical(mine.labels) == canonical(ref)

    def test_single_linkage_permutation_invariant(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(0, 50, 12)
        base = agglomerative(data, 4.0, "single")
        base_partition = _as_sets(data, base.labels)
        for _ in range(5):
            perm = rng.permutation(data.size)
            res = agglomerative(data[perm], 4.0, "single")
            assert _as_sets(data[perm], res.labels) == base_partition

    def test_translation_invariance(self):
        data = np.array([1.0, 2.0, 9.0, 10.0, 30.0])
        base = agglomerative(data, 3.0, "average")
        shifted = agglomerative(data + 250.0, 3.0, "average")
        assert np.array_equal(base.labels, shifted.labels)


def assert_same_as_exhaustive(x, threshold, linkage):
    labels, centroids, merges = agglomerative_matrix_reference(x, threshold, linkage)
    mine = agglomerative(x, threshold, linkage)
    assert np.array_equal(mine.labels, labels)
    assert np.array_equal(mine.centroids, centroids)
    assert _merge(x, threshold, linkage)[1] == merges  # same pairs, same distances to the bit


class TestMatrixOracle:
    """The adjacent-gap search picks the pair the exhaustive matrix argmin
    picks, ties included, and merges it at the same Lance-Williams distance,
    so labels and centroids match it exactly."""

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    @pytest.mark.parametrize("decimals", [None, 0, 1, 2])
    def test_matches_exhaustive_search(self, linkage, decimals):
        rng = np.random.default_rng(51 if decimals is None else 52 + decimals)
        for trial in range(60):
            n = int(rng.integers(1, 60))
            if decimals is None:
                x = mixture_data(rng, n)
            else:  # duplicate-heavy: few distinct values, many exact ties
                x = np.round(rng.uniform(0.0, 5.0, n), decimals)
            threshold = float(rng.uniform(0.01, 2.0) * max(float(np.ptp(x)), 1.0))
            assert_same_as_exhaustive(x, threshold, linkage)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    @pytest.mark.parametrize("fraction", [0.1, 0.005])  # the detector default, and a fine cut
    def test_capture_input(self, linkage, fraction):
        x = capture_data(seed=1002)
        assert_same_as_exhaustive(x, fraction * float(x.mean()), linkage)


def _as_sets(data, labels):
    groups = {}
    for v, lab in zip(data, labels):
        groups.setdefault(int(lab), set()).add(float(v))
    return frozenset(frozenset(g) for g in groups.values())
