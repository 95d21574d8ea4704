import numpy as np
import pytest

from driftwatch.cluster import ocsvm_predict, ocsvm_train

from oracles import mixture_data, ocsvm_reference


def trained(rng, n=60, nu=0.2):
    data = rng.normal(100, 5, n)
    gamma = 1.0 / (2.0 * data.var())
    return data, ocsvm_train(data, nu=nu, gamma=gamma)


class TestDualSolution:
    def test_alpha_box_and_sum(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            data, model = trained(rng)
            cap = 1.0 / (0.2 * data.size)
            assert np.all(model.alphas > 0)
            assert np.all(model.alphas <= cap + 1e-12)
            assert model.alphas.sum() == pytest.approx(1.0, abs=1e-6)

    def test_nu_bounds(self):
        rng = np.random.default_rng(1)
        for nu in (0.1, 0.2):
            for _ in range(3):
                data = rng.normal(50, 3, 80)
                model = ocsvm_train(data, nu=nu, gamma=1.0 / (2 * data.var()))
                inliers, _ = ocsvm_predict(model, data)
                outlier_fraction = 1.0 - inliers.mean()
                sv_fraction = model.support_values.size / data.size
                assert outlier_fraction <= nu + 0.05
                assert sv_fraction >= nu - 0.05

    def test_constant_data_all_inliers(self):
        model = ocsvm_train([7.0] * 20, nu=0.1, gamma=1.0)
        inliers, decision = ocsvm_predict(model, [7.0] * 20)
        assert inliers.all()
        assert np.allclose(decision, 0.0, atol=1e-9)

    def test_margin_support_vector_decision_near_zero(self):
        rng = np.random.default_rng(2)
        data, model = trained(rng, n=80)
        cap = 1.0 / (0.2 * data.size)
        free = (model.alphas > 1e-6 * cap) & (model.alphas < cap * (1 - 1e-6))
        assert free.any()
        _, decision = ocsvm_predict(model, model.support_values[free])
        assert np.all(np.abs(decision) < 1e-3)

    def test_errors(self):
        with pytest.raises(ValueError):
            ocsvm_train([1.0], nu=0.1, gamma=1.0)
        with pytest.raises(ValueError):
            ocsvm_train([1.0, 2.0], nu=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            ocsvm_train([1.0, 2.0], nu=0.1, gamma=0.0)

    @pytest.mark.parametrize("knob, value", [
        ("max_iter", 2.5), ("max_iter", -3), ("max_iter", 0), ("max_iter", True),
        ("tol", float("nan")), ("tol", -1e-4), ("tol", float("inf")),
    ])
    def test_solver_knob_errors_name_the_knob(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            ocsvm_train([1.0, 2.0, 4.0], nu=0.5, gamma=1.0, **{knob: value})


class TestLoopOracle:
    def test_matches_index_list_reference(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(2, 70))
            data = mixture_data(rng, n)
            if trial % 3 == 1:
                data = np.round(data, int(rng.integers(0, 2)))  # duplicate-heavy: exact gradient ties
            if trial % 10 == 2:
                data = np.full(n, 7.0)
            nu = 1.0 if trial % 7 == 0 else float(rng.uniform(0.01, 1.0))
            gamma = 1.0 / (2.0 * data.var()) if data.var() > 0 else 1.0
            max_iter = int(rng.integers(1, 30)) if trial % 4 == 3 else None  # stopped runs too
            model = ocsvm_train(data, nu=nu, gamma=gamma, max_iter=max_iter)
            alphas, support, rho = ocsvm_reference(data, nu, gamma, max_iter=max_iter)
            assert np.array_equal(model.alphas, alphas)
            assert np.array_equal(model.support_values, support)
            assert model.rho == rho


class TestPrediction:
    def test_far_point_is_outlier(self):
        rng = np.random.default_rng(3)
        data, model = trained(rng)
        inlier, decision = ocsvm_predict(model, [1000.0])
        # oracle: evaluate the decision function directly from the model fields
        expected = (
            model.alphas * np.exp(-model.gamma * (1000.0 - model.support_values) ** 2)
        ).sum() - model.rho
        assert decision[0] == pytest.approx(expected, abs=1e-12)
        assert not inlier[0]
        assert decision[0] < 0

    def test_training_points_mostly_inliers(self):
        rng = np.random.default_rng(4)
        data, model = trained(rng, nu=0.1)
        inliers, _ = ocsvm_predict(model, data)
        assert 1.0 - inliers.mean() <= 0.1 + 0.05

    def test_decision_matches_manual_kernel_expansion(self):
        rng = np.random.default_rng(5)
        data, model = trained(rng)
        probes = rng.normal(100, 20, 10)
        _, decision = ocsvm_predict(model, probes)
        for x, d in zip(probes, decision):
            manual = (
                model.alphas * np.exp(-model.gamma * (x - model.support_values) ** 2)
            ).sum() - model.rho
            assert d == pytest.approx(manual, abs=1e-12)
