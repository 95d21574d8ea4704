import numpy as np
import pytest

from driftwatch.cluster import gmm_assign, gmm_fit, gmm_responsibilities, kmeans
from driftwatch.cluster.gmm import gmm_em
from driftwatch.cluster.silhouette import best_k_fit

from oracles import mixture_data


class TestGmmFit:
    def test_em_from_the_search_fit_is_gmm_fit(self):
        # The gmm detector starts EM from the silhouette search's k-means fit.
        rng = np.random.default_rng(5)
        for seed in range(8):
            data = np.round(mixture_data(rng, int(rng.integers(6, 90))), int(rng.integers(0, 3)))
            k, centroids = best_k_fit(data, 2, 8)
            assert np.array_equal(centroids, kmeans(data, k).centroids)
            mine, ref = gmm_em(data, k, centroids), gmm_fit(data, k, seed=seed)
            for field in ("weights", "means", "variances"):
                assert np.array_equal(getattr(mine, field), getattr(ref, field))
            assert mine.log_likelihood == ref.log_likelihood

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10, 2, 200)
        model = gmm_fit(data, 1, seed=0)
        assert model.weights.tolist() == [1.0]
        assert model.means[0] == pytest.approx(data.mean(), abs=1e-9)
        assert model.variances[0] == pytest.approx(data.var(), abs=1e-6)

    def test_symmetric_bimodal_recovers_modes(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([rng.normal(-10, 0.5, 50), rng.normal(10, 0.5, 50)])
        model = gmm_fit(data, 2, seed=0)
        means = np.sort(model.means)
        # well-separated fixed point: component means equal per-side sample means
        lo_ref = data[data < 0].mean()
        hi_ref = data[data > 0].mean()
        assert means[0] == pytest.approx(lo_ref, abs=0.05)
        assert means[1] == pytest.approx(hi_ref, abs=0.05)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            data = mixture_data(rng, 60)
            m = int(rng.integers(1, 4))
            model = gmm_fit(data, m, seed=trial)
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(model.weights >= 0)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            data = mixture_data(rng, 80)
            model = gmm_fit(data, int(rng.integers(1, 4)), seed=trial)
            ll = np.array(model.log_likelihood)
            assert np.all(np.diff(ll) >= -1e-9)

    def test_variance_floor_on_constant_data(self):
        model = gmm_fit([5.0] * 10, 2, seed=0)
        assert np.all(model.variances > 0)
        assert np.all(np.isfinite(model.log_likelihood))

    def test_errors(self):
        with pytest.raises(ValueError):
            gmm_fit([1, 2, 3], 4)
        with pytest.raises(ValueError):
            gmm_fit([1, 2, 3], 0)


class TestResponsibilities:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        data = mixture_data(rng, 100)
        model = gmm_fit(data, 3, seed=0)
        resp = gmm_responsibilities(model, data)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)


class TestGmmAssign:
    @pytest.fixture()
    def bimodal_model(self):
        rng = np.random.default_rng(5)
        data = np.concatenate([rng.normal(-10, 0.5, 60), rng.normal(10, 0.5, 60)])
        return gmm_fit(data, 2, seed=0)

    def test_point_at_component_mean(self, bimodal_model):
        lo = float(np.sort(bimodal_model.means)[0])
        res = gmm_assign(bimodal_model, [lo])
        assert res.centroids[res.labels[0]] == pytest.approx(lo)

    def test_midpoint_tie_breaks_low(self):
        data = np.array([-10.0, -10.5, -9.5, 10.0, 10.5, 9.5])
        model = gmm_fit(data, 2, seed=0)
        # exact midpoint of the two means: responsibilities tie, argmax picks 0
        mid = float(model.means.mean())
        if model.weights[0] == pytest.approx(model.weights[1], abs=1e-12):
            res = gmm_assign(model, [mid])
            assert res.labels[0] == 0

    def test_decision_boundary_matches_crossover(self, bimodal_model):
        model = bimodal_model
        lo, hi = np.sort(model.means)

        def resp_diff(x):
            r = gmm_responsibilities(model, [x])[0]
            order = np.argsort(model.means)
            return r[order[1]] - r[order[0]]

        # bisect the responsibility crossover between the two means
        a, b = float(lo), float(hi)
        for _ in range(80):
            mid = 0.5 * (a + b)
            if resp_diff(mid) > 0:
                b = mid
            else:
                a = mid
        boundary = 0.5 * (a + b)
        below = gmm_assign(model, [boundary - 0.2])
        above = gmm_assign(model, [boundary + 0.2])
        assert below.centroids[below.labels[0]] == pytest.approx(lo, abs=1e-6)
        assert above.centroids[above.labels[0]] == pytest.approx(hi, abs=1e-6)

    def test_bimodal_partition(self, bimodal_model):
        rng = np.random.default_rng(6)
        data = np.concatenate([rng.normal(-10, 0.5, 30), rng.normal(10, 0.5, 30)])
        res = gmm_assign(bimodal_model, data)
        assert res.n_clusters == 2
        left = set(res.labels[:30].tolist())
        right = set(res.labels[30:].tolist())
        assert left.isdisjoint(right)
