import numpy as np
import pytest

from driftwatch.cluster import NOISE, affinity, affinity_propagation

from oracles import (
    affinity_matrix_messages,
    affinity_matrix_reference,
    affinity_reference,
    canonical,
    capture_data,
    mixture_data,
)


def blob_pair(rng, sep=30.0, spread=0.5, size=10):
    return np.concatenate(
        [rng.normal(0, spread, size), rng.normal(sep, spread, size)]
    )


class TestAffinityExamples:
    def test_identical_points_single_exemplar(self):
        res = affinity_propagation([5.0, 5.0, 5.0, 5.0])
        assert res.n_clusters == 1
        assert list(res.labels) == [0, 0, 0, 0]

    def test_single_point_is_own_exemplar(self):
        res = affinity_propagation([42.0])
        assert res.n_clusters == 1
        assert list(res.labels) == [0]

    def test_two_blobs_with_min_preference(self):
        rng = np.random.default_rng(3)
        data = blob_pair(rng)
        res = affinity_propagation(data)  # preference defaults to min similarity
        assert res.n_clusters == 2
        assert canonical(res.labels) == tuple([0] * 10 + [1] * 10)

    def test_non_convergence_reports_noise(self):
        rng = np.random.default_rng(9)
        data = blob_pair(rng)
        res = affinity_propagation(data, max_iter=2)
        assert res.n_clusters == 0
        assert all(v == NOISE for v in res.labels)

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            affinity_propagation([1, 2, 3], damping=0.4)
        with pytest.raises(ValueError):
            affinity_propagation([1, 2, 3], damping=1.0)

    @pytest.mark.parametrize("preference", [np.nan, np.inf, -np.inf])
    def test_non_finite_preference_is_refused(self, preference):
        # nan once read as "no exemplar ever" (0 clusters), inf as invalid products
        with pytest.raises(ValueError, match="^preference must be finite"):
            affinity_propagation([1.0, 2.0, 30.0], preference=preference)


class TestAffinityProperties:
    def test_matches_reference_message_passing(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            data = blob_pair(rng, sep=rng.uniform(20, 60), size=7)
            off = np.abs(data[:, None] - data[None, :]) ** 2
            preference = float(-(off.max()))
            mine = affinity_propagation(data, preference=preference)
            ref = affinity_reference(data, preference)
            assert ref is not None
            assert canonical(mine.labels) == ref

    def test_duplicated_dataset_same_exemplar_values(self):
        rng = np.random.default_rng(21)
        data = blob_pair(rng)
        doubled = np.repeat(data, 2)
        base = affinity_propagation(data)
        dup = affinity_propagation(doubled)
        assert base.n_clusters == dup.n_clusters == 2
        base_centroids = np.sort(base.centroids)
        dup_centroids = np.sort(dup.centroids)
        assert np.allclose(base_centroids, dup_centroids, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = blob_pair(rng)
        a = affinity_propagation(data)
        b = affinity_propagation(data)
        assert np.array_equal(a.labels, b.labels)


def assert_same(x, preference=None, **kwargs):
    """Labels, centroids, the similarity matrix and the last availabilities
    all equal the whole-matrix loop's, bit for bit."""
    labels, centroids = affinity_matrix_reference(x, preference, **kwargs)
    result = affinity_propagation(x, preference=preference, **kwargs)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.centroids, centroids)
    S, exemplars, A = affinity_matrix_messages(x, preference, **kwargs)
    mine = affinity._similarity(np.asarray(x, dtype=float), preference)
    assert mine.tobytes() == S.tobytes()
    kwargs = {"damping": 0.9, "max_iter": 500, "convergence_iter": 15, **kwargs}
    my_exemplars, my_A = affinity._pass_messages(mine, **kwargs)
    assert (my_exemplars is None) == (exemplars is None)
    assert exemplars is None or np.array_equal(my_exemplars, exemplars)
    assert my_A.tobytes() == A.tobytes()
    return result


def duplicate_heavy(rng, n):
    return np.round(rng.uniform(0.0, 5.0, n), int(rng.integers(0, 3)))


class TestMatrixOracle:
    """The blocked passes do the whole-matrix loop's float operations in the
    same order, so S, the last availabilities, labels and centroids all
    match it exactly."""

    @pytest.mark.parametrize("family", ["random", "duplicate_heavy"])
    def test_matches_whole_matrix_loop(self, family):
        rng = np.random.default_rng(41 if family == "random" else 42)
        for trial in range(40):
            n = int(rng.integers(2, 40))
            x = mixture_data(rng, n) if family == "random" else duplicate_heavy(rng, n)
            preference = None if trial % 2 else -float(np.ptp(x)) ** 2 * rng.uniform(0.05, 2.0)
            assert_same(x, preference)

    def test_runs_stopped_before_converging(self):
        rng = np.random.default_rng(43)
        x = mixture_data(rng, 24)
        converged = set()
        for max_iter in range(1, 41):
            result = assert_same(x, max_iter=max_iter, convergence_iter=5)
            converged.add(result.n_clusters > 0)
        assert converged == {False, True}  # both outcomes are covered

    def test_capture_input(self):
        x = capture_data(seed=1001)
        assert_same(x, -float(np.ptp(x)) ** 2)  # the preference the affinity detector sets

    @pytest.mark.parametrize("block", [1, 18, 40, 100, 18 * 17])
    def test_blocks_of_rows(self, monkeypatch, block):
        monkeypatch.setattr(affinity, "BLOCK", block)  # 1, 1, 2, 5 and 17 rows per block
        rng = np.random.default_rng(44)
        for trial in range(6):
            x = mixture_data(rng, 18) if trial % 2 else duplicate_heavy(rng, 18)
            assert_same(x, max_iter=500 if trial < 4 else 12)


class TestDefaultPreference:
    """The default preference and the tie-breaking scale come from the range:
    rounding a difference and squaring it are monotone, so the largest
    off-diagonal |S| is the squared range, bit for bit."""

    @pytest.mark.parametrize("x", [
        np.random.default_rng(45).normal(1000.0, 40.0, 30),
        np.random.default_rng(46).uniform(-1e6, 1e6, 25),
        np.array([3.0, 7.25]),
        np.full(6, 4.2),
    ], ids=["random", "wide", "two_points", "constant"])
    def test_range_gives_the_masked_minimum_and_the_scale(self, x):
        n = x.size
        S = -((x[:, None] - x[None, :]) ** 2)
        masked = float(S[~np.eye(n, dtype=bool)].min())
        spread = float(np.ptp(x)) ** 2
        assert np.float64(-spread).tobytes() == np.float64(masked).tobytes()  # -0.0 included
        for preference in (masked, 3.0 * masked, -0.5, -1e9):
            S[np.arange(n), np.arange(n)] = preference
            assert max(1.0, float(np.abs(S).max())) == max(1.0, spread, abs(preference))
        assert_same(x)
