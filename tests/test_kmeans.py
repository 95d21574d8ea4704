import numpy as np
import pytest

from driftwatch.cluster import best_k_silhouette, kmeans, silhouette
from driftwatch.cluster.kmeans import partitions
from driftwatch.cluster.silhouette import best_k_fit

from oracles import (
    best_two_partition,
    canonical,
    kmeans_brute_force,
    kmeans_dense_dp,
    mixture_data,
    silhouette_reference,
)


def families(n: int, count: int):
    """(name, data) pairs: plain random, mixtures, and duplicate-heavy values."""
    rng = np.random.default_rng(n)
    for i in range(count):
        yield "random", rng.normal(rng.uniform(-50, 500), rng.uniform(0.1, 50), n)
        yield "mixture", mixture_data(rng, n)
        # a few distinct values, each repeated many times
        yield "duplicates", rng.choice(rng.uniform(0, 100, int(rng.integers(2, 6))), n)


class TestKmeans:
    def test_perfectly_separated_pairs(self):
        res = kmeans([0, 0, 10, 10], 2, seed=0)
        assert sorted(res.centroids.tolist()) == [0.0, 10.0]
        assert res.inertia == 0.0
        assert canonical(res.labels) == (0, 0, 1, 1)

    def test_constant_data_single_cluster(self):
        res = kmeans([5, 5, 5], 1, seed=0)
        assert res.centroids.tolist() == [5.0]
        assert res.inertia == 0.0

    def test_matches_brute_force_two_partition(self):
        data = [1, 2, 9, 10, 11]
        expected_inertia, expected_centers = best_two_partition(data)
        res = kmeans(data, 2, seed=0)
        assert res.inertia == pytest.approx(expected_inertia, abs=1e-9)
        assert sorted(res.centroids.tolist()) == pytest.approx(expected_centers)
        assert expected_centers == [1.5, 10.0]

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            data = mixture_data(rng, int(rng.integers(4, 60)))
            k = int(rng.integers(1, min(6, data.size) + 1))
            res = kmeans(data, k, seed=trial)
            diffs = np.diff(res.inertia_history)
            assert np.all(diffs <= 1e-9 * max(1.0, res.inertia_history[0]))
            assert res.inertia_history == (res.inertia,)

    def test_final_assignment_is_fixed_point(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            data = mixture_data(rng, 40)
            res = kmeans(data, 3, seed=trial)
            d = np.abs(data[:, None] - res.centroids[None, :])
            assert np.array_equal(d.argmin(axis=1), res.labels)
            for j in range(res.n_clusters):
                assert data[res.labels == j].mean() == pytest.approx(res.centroids[j], abs=1e-9)

    def test_translation_invariance(self):
        data = np.array([1.0, 2.0, 3.0, 20.0, 21.0, 40.0, 41.0, 42.0])
        base = kmeans(data, 3, seed=9)
        for offset in (100.0, -7.0, 1000.0):
            shifted = kmeans(data + offset, 3, seed=9)
            assert canonical(base.labels) == canonical(shifted.labels)

    def test_duplicate_heavy_data_compacts_clusters(self):
        res = kmeans([4.0, 4.0, 4.0, 4.0], 2, seed=0)
        assert res.n_clusters in (1, 2)
        assert set(res.labels) == set(range(res.n_clusters))

    def test_more_clusters_than_distinct_values(self):
        # k above the distinct count gives one cluster per distinct value
        data = [7.0, 1.0, 2.0, 1.0, 2.0, 2.0]
        for k in (3, 4, 6):
            res = kmeans(data, k)
            assert res.n_clusters == 3
            assert res.labels.tolist() == [2, 0, 1, 0, 1, 1]
            assert res.centroids.tolist() == [1.0, 2.0, 7.0]
            assert res.inertia == 0.0
        assert kmeans([4.0, 4.0, 4.0, 4.0], 2).n_clusters == 1

    def test_equal_values_share_a_label(self):
        for n in (18, 90):
            for name, data in families(n, 4):
                values, inverse = np.unique(data, return_inverse=True)
                for k in (2, 3, 5, 8):
                    labels = kmeans(data, k).labels
                    for j in range(values.size):
                        assert np.unique(labels[inverse == j]).size == 1, (name, k)

    def test_errors(self):
        with pytest.raises(ValueError):
            kmeans([1, 2, 3], 0)
        with pytest.raises(ValueError):
            kmeans([1, 2, 3], 4)
        with pytest.raises(ValueError):
            kmeans([], 1)

    def test_deterministic_per_seed(self):
        data = mixture_data(np.random.default_rng(3), 50)
        a = kmeans(data, 4, seed=17)
        b = kmeans(data, 4, seed=17)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia
        # the fit draws no random numbers, so the seed changes nothing
        c = kmeans(data, 4, seed=3)
        assert np.array_equal(a.labels, c.labels)
        assert a.inertia == c.inertia


class TestSilhouette:
    def test_tight_far_pairs_near_one(self):
        score = silhouette([0, 0.1, 100, 100.1], [0, 0, 1, 1])
        assert score > 0.99

    def test_degenerate_identical_values(self):
        assert silhouette([5, 5, 5, 5], [0, 0, 1, 1]) == 0.0

    def test_crosswise_labels_negative(self):
        data = [0, 10, 0.1, 10.1]
        labels = [0, 0, 1, 1]
        score = silhouette(data, labels)
        assert score < 0
        assert score == pytest.approx(silhouette_reference(data, labels), abs=1e-12)
        assert score == pytest.approx(-0.495, abs=1e-3)

    def test_matches_reference_on_random_labelings(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(4, 32))
            data = mixture_data(rng, n)
            labels = rng.integers(0, int(rng.integers(2, 5)), n)
            if np.unique(labels).size < 2:
                continue
            labels = np.array([int(v) for v in np.unique(labels, return_inverse=True)[1]])
            mine = silhouette(data, labels)
            assert -1.0 <= mine <= 1.0
            assert mine == pytest.approx(silhouette_reference(data, labels), abs=1e-9)

    def test_requires_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette([1, 2, 3], [0, 0, 0])

    def test_singletons_contribute_zero(self):
        # cluster 1 is a singleton; its point adds 0 to the mean
        data = [0.0, 1.0, 50.0]
        score = silhouette(data, [0, 0, 1])
        assert score == pytest.approx(silhouette_reference(data, [0, 0, 1]), abs=1e-12)


class TestSilhouetteSearch:
    @staticmethod
    def reference_best_k(data, k_max=8):
        """The best_k_silhouette search over the dense-program partitions,
        scored by the loop oracle."""
        xs = np.sort(data)
        best_k, best_score = 2, -2.0
        hi = min(k_max, data.size - 1, np.unique(data).size)
        for k, labels in enumerate(kmeans_dense_dp(xs, hi)[1][1:], start=2):
            score = silhouette_reference(xs, labels)
            assert silhouette(xs, labels) == pytest.approx(score, abs=1e-12)
            if score > best_score + 1e-12:
                best_k, best_score = k, score
        return best_k

    @pytest.mark.parametrize("n, trials", [(18, 12), (90, 6), (500, 1)])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_matches_reference_scores_and_choice(self, n, trials, shift):
        rng = np.random.default_rng(n)
        for seed in range(trials):
            data = mixture_data(rng, n) + shift
            assert best_k_silhouette(data, 2, 8, seed=seed) == self.reference_best_k(data)


class TestBestK:
    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([rng.normal(0, 1, 15), rng.normal(50, 1, 15)])
        assert best_k_silhouette(data, 2, 6, seed=0) == 2
        assert best_k_silhouette(data, 2.0, 6.0) == 2  # counts the count check accepts

    def test_three_blobs(self):
        rng = np.random.default_rng(2)
        data = np.concatenate(
            [rng.normal(0, 0.5, 10), rng.normal(30, 0.5, 10), rng.normal(60, 0.5, 10)]
        )
        k = best_k_silhouette(data, 2, 6, seed=0)
        # the chosen k must be the silhouette argmax (checked via the oracle)
        scores = {
            cand: silhouette_reference(data, kmeans(data, cand, seed=0).labels)
            for cand in range(2, 7)
        }
        assert k == 3
        assert scores[3] == max(scores.values())

    def test_constant_data_returns_one(self):
        assert best_k_silhouette([7, 7, 7, 7]) == 1

    def test_two_distinct_values(self):
        assert best_k_silhouette([1, 1, 9, 9]) == 2

    def test_ties_break_small(self):
        # single tight blob: silhouette is low everywhere; smallest k wins ties
        data = np.linspace(0, 1, 12)
        k = best_k_silhouette(data, 2, 6, seed=0)
        assert k >= 2


class TestBatchedLloyd:
    """The exact program against the oracles: brute force over contiguous
    partitions, and the dense O(k n^2) program.  (The class keeps the name it
    had when the search batched Lloyd's loop, so its test ids stay stable.)"""

    def test_brute_force_over_contiguous_partitions(self):
        # the duplicates family puts k above the distinct count as k nears n
        for n in range(1, 13):
            for name, data in families(n, 3):
                xs = np.sort(data)
                rows = partitions(xs, 1, n)
                for k in range(1, n + 1):
                    expected, _ = kmeans_brute_force(xs, k)
                    res = kmeans(data, k)
                    assert res.inertia == pytest.approx(expected, rel=1e-9, abs=1e-9), (name, n, k)
                    # each row is the sorted-order labelling of the same optimum
                    assert np.all(np.diff(rows[k - 1]) >= 0)
                    assert np.array_equal(rows[k - 1], np.sort(res.labels)), (name, n, k)

    @pytest.mark.parametrize("n, count", [(18, 8), (90, 4), (500, 1)])
    def test_candidates_match_one_fit_per_k(self, n, count):
        for name, data in families(n, count):
            order = np.argsort(data, kind="stable")
            rows = partitions(data[order], 2, 8)
            costs, _ = kmeans_dense_dp(data, 8)
            for row, k in zip(rows, range(2, 9)):
                res = kmeans(data, k)
                assert np.array_equal(row, res.labels[order]), (name, k)
                expected = costs[min(k, np.unique(data).size) - 1]
                assert res.inertia == pytest.approx(expected, rel=1e-9, abs=1e-9), (name, k)

    @pytest.mark.parametrize("n, count", [(18, 8), (90, 4), (500, 1)])
    def test_kmeans_matches_reference(self, n, count):
        for i, (name, data) in enumerate(families(n, count)):
            costs, _ = kmeans_dense_dp(data, 8)
            for k in (1, 3, 8):
                res = kmeans(data, k, seed=i)
                centroids = np.array([data[res.labels == j].mean() for j in range(res.n_clusters)])
                assert res.n_clusters == min(k, np.unique(data).size), (name, k)
                assert np.array_equal(res.centroids, centroids), (name, k)
                assert res.inertia == pytest.approx(costs[res.n_clusters - 1], rel=1e-9, abs=1e-9)
                assert res.inertia_history == (res.inertia,)

    def test_search_fit_is_the_kmeans_fit_of_the_chosen_k(self):
        # 18, 90 and 500 points: the drift batch, bench training and capture sizes
        for n, count in ((18, 6), (90, 2), (500, 1)):
            for name, data in families(n, count):
                k, centroids = best_k_fit(data, 2, 8)
                assert k == best_k_silhouette(data, 2, 8), (n, name)
                assert np.array_equal(centroids, kmeans(data, k).centroids), (n, name)
