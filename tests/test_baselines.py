"""Two-step baselines and design utilities."""

import numpy as np
import pytest

from gpcalib.calibration import ComputerModel, FieldDataset
from gpcalib.design import maximin_lhd, random_lhd, scale_to_domain
from gpcalib.baselines import _multistart_theta, fit_field_gasp, l2_calibrate, ls_calibrate
from gpcalib.inference import OptimizationError
from gpcalib.models import builtin_model, park_truth


class TestMaximinLhd:
    def test_two_point_stratification(self):
        X = maximin_lhd(2, 1, iterations=10, seed=0)
        lo, hi = sorted(X[:, 0])
        assert 0.0 <= lo < 0.5 <= hi < 1.0

    def test_stratum_indices_are_permutations(self):
        X = maximin_lhd(17, 3, iterations=100, seed=1)
        for j in range(3):
            strata = np.floor(X[:, j] * 17).astype(int)
            assert sorted(strata) == list(range(17))

    def test_all_points_in_unit_cube(self):
        X = maximin_lhd(25, 4, iterations=100, seed=2)
        assert np.all(X >= 0.0) and np.all(X < 1.0)

    def test_improves_over_raw_hypercube(self):
        def min_dist(X):
            d = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            return d.min()

        gains = []
        for seed in range(50):
            raw = maximin_lhd(20, 2, iterations=0, seed=seed)
            opt = maximin_lhd(20, 2, iterations=300, seed=seed)
            gains.append(min_dist(opt) - min_dist(raw))
        assert np.median(gains) > 0
        assert min(gains) >= 0  # hill climbing never loses ground

    def test_deterministic(self):
        assert np.array_equal(
            maximin_lhd(10, 2, iterations=50, seed=3), maximin_lhd(10, 2, iterations=50, seed=3)
        )


def _perfect_setup(n=25, theta_star=0.62):
    x = np.linspace(0, 1, n)[:, None]
    model = ComputerModel(
        evaluator=lambda X, th: np.sin(3 * th[0] * np.atleast_2d(X)[:, 0]) + th[0],
        theta_bounds=[[0.0, 1.0]],
        vectorized=True,
    )
    y = model.evaluate(x, [theta_star])
    return FieldDataset(x, y, [[0.0, 1.0]]), model


class TestLsCalibrate:
    def test_perfect_model_recovery(self):
        data, model = _perfect_setup()
        res = ls_calibrate(data, model, seed=0)
        assert abs(res.theta_hat[0] - 0.62) <= 1e-6

    @pytest.mark.parametrize("calibrate", [ls_calibrate, l2_calibrate], ids=["ls", "l2"])
    def test_every_start_failing_raises_with_all_records(self, calibrate):
        # a model undefined everywhere fails every start of either baseline
        data, _ = _perfect_setup(n=10)
        nan_model = ComputerModel(
            evaluator=lambda X, th: np.full(np.atleast_2d(X).shape[0], np.nan),
            theta_bounds=[[0.0, 1.0]],
            vectorized=True,
        )
        with pytest.raises(OptimizationError) as err:
            calibrate(data, nan_model, n_starts=3, seed=0)
        assert [i for i, _ in err.value.per_start] == [0, 1, 2]
        assert not any(np.isfinite(res.fun) for _, res in err.value.per_start)

    def test_constant_model_closed_form(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(size=12))[:, None]
        y = rng.normal(2.0, 1.0, size=12)
        data = FieldDataset(x, y, [[0.0, 1.0]])
        model = builtin_model("constant", theta_bounds=[[-10.0, 10.0]])
        res = ls_calibrate(data, model, seed=1)
        assert abs(res.theta_hat[0] - y.mean()) <= 1e-7

    def test_predict_adds_the_residual_gp_to_the_model(self):
        data, model = _perfect_setup()
        res = ls_calibrate(data, model, seed=2)
        Xs = np.linspace(0, 1, 7)[:, None]
        out = res.predict(model, Xs)
        fm = model.evaluate(Xs, res.theta_hat)
        resid = res.residual_fit.predict(Xs)
        assert np.array_equal(out.model_mean, fm)
        assert np.array_equal(out.full_mean, fm + resid.full_mean)
        assert np.array_equal(out.variance, resid.variance)
        assert out.full_mean.shape == out.variance.shape == (7,)
        # a perfect model leaves the residual GP almost nothing to add
        np.testing.assert_allclose(out.full_mean, fm, atol=1e-3)


class TestL2Calibrate:
    def test_perfect_model_noise_free(self):
        data, model = _perfect_setup(n=40)
        res = l2_calibrate(data, model, seed=0)
        assert abs(res.theta_hat[0] - 0.62) <= 1e-2
        assert res.l2_loss_at_opt >= 0

    def test_agreement_with_ls_in_ideal_limit(self):
        data, model = _perfect_setup(n=40)
        l2 = l2_calibrate(data, model, seed=1)
        ls = ls_calibrate(data, model, seed=1)
        assert abs(l2.theta_hat[0] - ls.theta_hat[0]) <= 1e-2

    def test_objective_no_worse_than_starts(self):
        data, model = _perfect_setup(n=30)
        res = l2_calibrate(data, model, seed=2)
        best = res.l2_loss_at_opt
        for _, start_res in res.per_start:
            assert best <= start_res.fun * np.prod(data.lengths) + 1e-12

    def test_predict_is_the_field_gp_beside_the_model(self):
        data, model = _perfect_setup(n=20)
        res = l2_calibrate(data, model, quad_points=200, seed=0)
        Xs = np.linspace(0, 1, 7)[:, None]
        out = res.predict(model, Xs)
        field = res.surrogate.predict(Xs)
        assert np.array_equal(out.model_mean, model.evaluate(Xs, res.theta_hat))
        assert np.array_equal(out.full_mean, field.full_mean)
        assert np.array_equal(out.variance, field.variance)
        assert np.all(out.variance >= 0)
        # noise-free data from the model itself: the field GP tracks the model
        np.testing.assert_allclose(out.full_mean, out.model_mean, atol=1e-2)

    def test_equal_optima_pick_lowest_start_index(self):
        # a flat objective stops every start where it began, all tied
        theta, best, per_start = _multistart_theta(lambda th: 2.0, [[0.0, 1.0]], 4, seed=0)
        assert [i for i, _ in per_start] == [0, 1, 2, 3]
        assert all(res.fun == 2.0 for _, res in per_start)
        assert len({float(res.x[0]) for _, res in per_start}) == 4
        assert best == 2.0
        assert np.array_equal(theta, per_start[0][1].x)

    @pytest.mark.slow
    def test_park_recovers_l2_minimizer(self):
        # the exact minimizer is the domain average of the reality,
        # (2/3)(e-1)^2 - (1 - cos 1)/2 + 1/2
        target = (2.0 / 3.0) * (np.e - 1.0) ** 2 - 0.5 * (1.0 - np.cos(1.0)) + 0.5
        seed = 0
        X = maximin_lhd(50, 4, iterations=300, seed=seed)
        rng = np.random.default_rng(seed)
        y = park_truth(X) + 0.01 * rng.standard_normal(50)
        data = FieldDataset(X, y, [[0.0, 1.0]] * 4)
        model = builtin_model("constant")
        res = l2_calibrate(data, model, seed=seed)
        assert abs(res.theta_hat[0] - target) <= 0.4


class TestFieldGasp:
    def test_smooths_noisy_signal(self):
        rng = np.random.default_rng(5)
        n = 25
        x = np.linspace(0, 1, n)[:, None]
        truth = np.sin(2 * np.pi * x[:, 0])
        y = truth + 0.1 * rng.standard_normal(n)
        fit = fit_field_gasp(FieldDataset(x, y, [[0.0, 1.0]]), seed=0)
        pred = fit.predict(x).full_mean
        assert np.mean((pred - truth) ** 2) < np.mean((y - truth) ** 2)

    def test_scale_to_domain(self):
        U = random_lhd(10, 2, np.random.default_rng(0))
        X = scale_to_domain(U, [[-5.0, 10.0], [0.0, 15.0]])
        assert np.all(X[:, 0] >= -5) and np.all(X[:, 0] <= 10)
        assert np.all(X[:, 1] >= 0) and np.all(X[:, 1] <= 15)
