import warnings

import numpy as np
import pytest

from driftwatch.cluster import NOISE, dbscan, dbscan_count
from driftwatch.cluster.dbscan import _sweep

from oracles import canonical, dbscan_reference, mixture_data


class TestDbscanExamples:
    def test_cluster_plus_noise(self):
        res = dbscan([1, 1.1, 1.2, 9], eps=0.5, min_pts=2)
        assert res.n_clusters == 1
        assert list(res.labels) == [0, 0, 0, NOISE]
        assert canonical(res.labels) == canonical(dbscan_reference([1, 1.1, 1.2, 9], 0.5, 2))

    def test_constant_data_one_cluster(self):
        res = dbscan([3, 3, 3, 3], eps=0.1, min_pts=4)
        assert res.n_clusters == 1
        assert NOISE not in res.labels

    def test_all_noise(self):
        res = dbscan([0, 5, 10], eps=1, min_pts=2)
        assert res.n_clusters == 0
        assert list(res.labels) == [NOISE] * 3
        assert canonical(res.labels) == canonical(dbscan_reference([0, 5, 10], 1, 2))

    def test_two_groups(self):
        data = [0, 0.5, 1.0, 10, 10.5, 11]
        res = dbscan(data, eps=0.6, min_pts=2)
        assert res.n_clusters == 2
        assert canonical(res.labels) == (0, 0, 0, 1, 1, 1)

    def test_labels_follow_first_visit_order(self):
        data = [10, 10.1, 0, 0.1]
        res = dbscan(data, eps=0.5, min_pts=2)
        assert list(res.labels) == [0, 0, 1, 1]

    def test_errors(self):
        with pytest.raises(ValueError):
            dbscan([1, 2], eps=0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan([1, 2], eps=1, min_pts=0)


class TestDbscanProperties:
    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            n = int(rng.integers(2, 64))
            data = mixture_data(rng, n)
            eps = float(rng.uniform(0.2, 10.0))
            min_pts = int(rng.integers(1, 6))
            mine = dbscan(data, eps, min_pts)
            assert canonical(mine.labels) == canonical(dbscan_reference(data, eps, min_pts))

    def test_translation_invariance(self):
        data = np.array([1.0, 1.5, 2.0, 8.0, 8.5, 20.0])
        base = dbscan(data, 0.6, 2)
        for offset in (100.0, -3.0):
            shifted = dbscan(data + offset, 0.6, 2)
            assert np.array_equal(base.labels, shifted.labels)

    def test_centroids_are_cluster_means(self):
        data = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        res = dbscan(data, 1.5, 2)
        assert res.n_clusters == 2
        assert res.centroids[0] == pytest.approx(1.0)
        assert res.centroids[1] == pytest.approx(11.0)


def neighbourhoods(xs, eps):
    """Per sorted value, its range [start, end) as :func:`dbscan` derives it:
    ``end`` from the sweep, ``start`` from ``end`` by symmetry."""
    end = np.array(_sweep(xs.tolist(), eps, 1)[1])
    return end.searchsorted(np.arange(xs.size), "right"), end


def check_neighbourhoods(xs, eps):
    """Both range ends equal a scalar scan of fl(|xs[j] - xs[i]|) <= eps."""
    start, end = neighbourhoods(xs, eps)
    for i, v in enumerate(xs.tolist()):
        inside = [j for j, w in enumerate(xs.tolist()) if abs(w - v) <= eps]
        assert (start[i], end[i]) == (inside[0], inside[-1] + 1)


def _exact(data, eps):
    """The sorted values and their exact neighbourhood matrix, fl(|x_i - x_j|) <= eps."""
    x = np.sort(np.asarray(data, dtype=float))
    return x, np.abs(x[:, None] - x[None, :]) <= eps


def check_against_matrix(data, eps, min_pts):
    """An oracle for sets too large for the reference: the sweep's ranges,
    dbscan()'s labelled points and both cluster counts against the exact
    matrix.  Consecutive sorted core points share a cluster iff the matrix
    links them, since each neighbourhood is a contiguous range."""
    x, exact = _exact(data, eps)
    start, end = neighbourhoods(x, eps)
    assert np.array_equal(start, exact.argmax(axis=1))
    assert np.array_equal(end, x.size - exact[:, ::-1].argmax(axis=1))
    core = exact.sum(axis=1) >= min_pts
    cores = np.flatnonzero(core)
    clusters = 1 + np.count_nonzero(~exact[cores[:-1], cores[1:]]) if cores.size else 0
    res = dbscan(data, eps, min_pts)
    assert np.count_nonzero(res.labels != NOISE) == np.count_nonzero(exact[:, core].any(axis=1))
    assert dbscan_count(data, eps, min_pts) == res.n_clusters == clusters


class TestDbscanCount:
    """``dbscan_count`` is ``dbscan(...).n_clusters``; the boundary-tie cases
    below check it against the reference too."""

    def test_no_core_point_counts_zero(self):
        for data, eps, min_pts in (([0, 5, 10], 1, 2), ([1, 2, 3], 10, 4), ([7.5], 0.1, 2)):
            assert dbscan_count(data, eps, min_pts) == dbscan(data, eps, min_pts).n_clusters == 0

    def test_border_points_do_not_merge_runs(self):
        # Core runs end at 0 and start at 2; the border point 1 reaches both.
        data = [-0.9, -0.9, -0.9, 0, 1, 2, 2.9, 2.9, 2.9]
        res = dbscan(data, 1, 4)
        assert list(res.labels) == [0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert dbscan_count(data, 1, 4) == res.n_clusters == 2

    def test_unbounded_eps(self):
        data = [1.0, 2.0, 3.0]
        assert dbscan_count(data, np.inf, 2) == 1
        assert list(dbscan(data, np.inf, 2).labels) == [0, 0, 0]
        check_neighbourhoods(np.array(data), np.inf)

    def test_random_sizes_up_to_2000(self):
        # every size the sweep may meet, min_pts sometimes above n; the
        # reference's closure is cubic in n, so it checks the small sets only,
        # and the exact matrix checks every set
        rng = np.random.default_rng(47)
        for trial in range(60):
            n = int(rng.integers(1, 2001 if trial % 2 else 41))
            data = mixture_data(rng, n)
            if rng.random() < 0.5:
                data = np.round(data, int(rng.integers(0, 2)))
            eps = float(rng.choice([0.1, 0.3, 1.0, 2.5, 8.0]))
            min_pts = n + int(rng.integers(1, 3)) if rng.random() < 0.2 else int(rng.integers(1, 10))
            check_against_matrix(data, eps, min_pts)
            if n <= 40:
                expected = len(set(dbscan_reference(data, eps, min_pts)) - {NOISE})
                assert dbscan_count(data, eps, min_pts) == expected

    @pytest.mark.parametrize("eps", [1.0, 1e308, np.inf])
    def test_distances_that_overflow(self, eps):
        # 1e308 - -1e308 rounds to inf: within eps = inf only.  Neither dbscan
        # nor the count warns of the overflow; the reference does.  Under eps = inf
        # the last input is one cluster whose sum overflows to inf, then NaN;
        # its mean is -1e304.
        for data in ([-1e308, 1e308], [-1e308, -1e308, 0.0, 1e308, 1e308],
                     [1e308, 5.0, 3.33e307, 1e308, 3.33e307, 3.33e307, -1e308, -1e308, 0.0, -1e308]):
            for min_pts in (1, 2, 3, 6):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    expected = len(set(dbscan_reference(data, eps, min_pts)) - {NOISE})
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = dbscan(data, eps, min_pts)
                    assert result.n_clusters == dbscan_count(data, eps, min_pts) == expected
                    assert np.isfinite(result.centroids).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [dbscan_count([-1e308, 1e308], eps, m) for m in (1, 2)] == (
                [1, 1] if eps == np.inf else [2, 0])

    def test_errors(self):
        with pytest.raises(ValueError):
            dbscan_count([1, 2], eps=0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan_count([1, 2], eps=1, min_pts=0)
        with pytest.raises(ValueError, match="non-finite"):
            dbscan_count([1, np.nan], eps=1, min_pts=1)


def _bound_rounding_differs(data, eps) -> bool:
    """True when some pair is in range under |x_i - x_j| <= eps but not under
    x_j <= x_i + eps (or the reverse): a search on the rounded bound would
    misplace a range end."""
    x, exact = _exact(data, eps)
    shifted = (x[None, :] <= x[:, None] + eps) & (x[None, :] >= x[:, None] - eps)
    return bool(np.any(exact != shifted))


class TestDbscanBoundaryTies:
    """Inputs whose distances land on eps, where rounding decides membership.
    Each case also checks the count, and the neighbourhoods against a scan."""

    def check(self, data, eps, min_pts):
        mine = dbscan(data, eps, min_pts)
        reference = dbscan_reference(data, eps, min_pts)
        assert np.array_equal(mine.labels, reference)
        assert dbscan_count(data, eps, min_pts) == mine.n_clusters == len(set(reference) - {NOISE})
        check_neighbourhoods(np.sort(np.asarray(data, dtype=float)), eps)

    def test_decimal_grids(self):
        rng = np.random.default_rng(7)
        covered = 0
        for eps in (0.1, 0.3):
            for n in (5, 17, 40, 120):
                data = 0.1 * np.arange(n)
                covered += _bound_rounding_differs(data, eps)
                for min_pts in (1, 2, 3, 4, n + 1):
                    self.check(data, eps, min_pts)
                    self.check(rng.permutation(data), eps, min_pts)
        assert covered  # the grids do exercise the rounding mismatch
        for n in (500, 2000):  # too large for the reference: the exact matrix
            data = rng.permutation(0.1 * np.arange(n))
            for eps, min_pts in ((0.1, 1), (0.1, 3), (0.3, 4), (0.3, 7), (0.3, 8)):
                check_against_matrix(data, eps, min_pts)

    def test_rounded_mixtures_with_duplicates(self):
        rng = np.random.default_rng(17)
        covered = 0
        for _ in range(120):
            n = int(rng.integers(2, 120))
            data = np.round(mixture_data(rng, n), int(rng.integers(0, 2)))
            eps = float(rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, 2.0]))
            covered += _bound_rounding_differs(data, eps)
            self.check(data, eps, int(rng.integers(1, 8)))
        assert covered

    def test_min_pts_one_labels_every_point(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            data = np.round(mixture_data(rng, n), 1)
            eps = float(rng.choice([0.1, 0.3, 2.5]))
            res = dbscan(data, eps, 1)
            assert NOISE not in res.labels
            self.check(data, eps, 1)

    def test_random_sets_up_to_300(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(2, 301))
            data = mixture_data(rng, n)
            if rng.random() < 0.5:
                data = np.round(data, 1) + float(rng.choice([0.0, 1e6]))
            eps = float(rng.uniform(0.05, 8.0))
            self.check(data, eps, int(rng.integers(1, 10)))
