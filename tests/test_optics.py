import math

import numpy as np
import pytest

from driftwatch import DriftDetector
from driftwatch.cluster import NOISE, dbscan, optics

from oracles import capture_data, mixture_data, optics_reference


def two_blobs():
    return np.array([0.9, 0.95, 1.0, 1.05, 1.1, 49.9, 49.95, 50.0, 50.05, 50.1])


class TestOpticsExamples:
    def test_two_blobs_found(self):
        profile, res = optics(two_blobs(), min_samples=3, min_cluster_size=3)
        assert res.n_clusters == 2
        # cross-check the count against density clustering with eps between
        # the intra-blob spread and the inter-blob gap
        assert dbscan(two_blobs(), eps=1.0, min_pts=3).n_clusters == 2

    def test_constant_data_one_cluster(self):
        _, res = optics([7.0] * 8, min_samples=3, min_cluster_size=3)
        assert res.n_clusters == 1

    def test_too_few_points_all_noise(self):
        _, res = optics([1.0, 2.0], min_samples=2, min_cluster_size=3)
        assert res.n_clusters == 0
        assert all(v == NOISE for v in res.labels)

    def test_errors(self):
        with pytest.raises(ValueError):
            optics([1, 2, 3], min_samples=1)
        with pytest.raises(ValueError):
            optics([1, 2, 3], max_eps=0)
        with pytest.raises(ValueError):
            optics([1, 2, 3], min_cluster_size=1)
        with pytest.raises(ValueError):
            optics([1, 2, 3], cut_quantile=1.5)

    def test_min_samples_above_point_count_raises(self):
        with pytest.raises(ValueError, match=r"min_samples=4 exceeds the 3 data points"):
            optics([1.0, 2.0, 3.0], min_samples=4)
        # the detector fits on a long window, then meets a shorter batch
        det = DriftDetector("optics", min_samples=30).fit(mixture_data(np.random.default_rng(4), 90))
        with pytest.raises(ValueError, match="min_samples=30 exceeds the 18 data points"):
            det.evaluate(mixture_data(np.random.default_rng(5), 18))


class TestOpticsProfile:
    def test_ordering_is_permutation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = rng.uniform(0, 100, int(rng.integers(3, 40)))
            profile, _ = optics(data, min_samples=2, min_cluster_size=2)
            assert sorted(profile.ordering.tolist()) == list(range(data.size))

    def test_first_point_unreachable(self):
        profile, _ = optics(two_blobs(), min_samples=3, min_cluster_size=3)
        first = profile.ordering[0]
        assert math.isinf(profile.reachability[first])

    def test_blob_members_have_low_reachability(self):
        profile, _ = optics(two_blobs(), min_samples=3, min_cluster_size=3)
        finite = profile.reachability[np.isfinite(profile.reachability)]
        # intra-blob reach stays at blob scale; the cross-blob jump is ~49
        assert np.sort(finite)[:-1].max() <= 0.25
        assert finite.max() > 40

    def test_max_eps_caps_reachability(self):
        profile, res = optics(two_blobs(), min_samples=3, max_eps=5.0, min_cluster_size=3)
        finite = profile.reachability[np.isfinite(profile.reachability)]
        assert np.all(finite <= 5.0)
        assert res.n_clusters == 2

    def test_deterministic(self):
        data = np.random.default_rng(8).uniform(0, 50, 30)
        p1, r1 = optics(data, min_samples=3, min_cluster_size=3)
        p2, r2 = optics(data, min_samples=3, min_cluster_size=3)
        assert np.array_equal(p1.ordering, p2.ordering)
        assert np.array_equal(r1.labels, r2.labels)

    def test_translation_invariance(self):
        data = np.array([1.0, 1.2, 1.4, 30.0, 30.2, 30.4, 90.0])
        _, base = optics(data, min_samples=2, min_cluster_size=2)
        _, shifted = optics(data + 500.0, min_samples=2, min_cluster_size=2)
        assert np.array_equal(base.labels, shifted.labels)


class TestOpticsOracle:
    def assert_matches(self, data, min_samples, max_eps=math.inf, min_cluster_size=3):
        profile, res = optics(data, min_samples=min_samples, max_eps=max_eps, min_cluster_size=min_cluster_size)
        ordering, reach, labels = optics_reference(data, min_samples, max_eps, min_cluster_size)
        assert np.array_equal(profile.ordering, ordering)
        assert np.array_equal(profile.reachability, reach)
        assert np.array_equal(res.labels, labels)

    def test_windows_as_wide_as_the_data(self):
        # min_samples of n - 1 and n: every core distance window spans the whole sorted input
        rng = np.random.default_rng(32)
        for trial in range(40):
            n = int(rng.integers(2, 40))
            data = mixture_data(rng, n)
            if trial % 3 == 1:
                data = np.round(data)
            max_eps = math.inf if trial % 2 == 0 else float(rng.uniform(0.5, 60.0))
            for min_samples in {max(2, n - 1), n}:
                self.assert_matches(data, min_samples, max_eps, min_cluster_size=2)

    def test_capture_scale(self):
        self.assert_matches(capture_data(3), min_samples=3)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(3, 80))
            data = mixture_data(rng, n)
            if trial % 3 == 1:
                data = np.round(data)  # duplicate-heavy: many exact distance ties
            max_eps = math.inf if trial % 2 == 0 else float(rng.uniform(0.5, 20.0))
            min_samples = int(rng.integers(2, min(n, 5) + 1))
            min_cluster_size = int(rng.integers(2, 5))
            self.assert_matches(data, min_samples, max_eps, min_cluster_size)
