"""Emulator checks: interpolation, Student-t formulas, calibration plug-in."""

import warnings

import numpy as np
import pytest

from gpcalib import discrepancy, emulator
from gpcalib.calibration import FieldDataset
from gpcalib.discrepancy import DiscrepancySpec, GASP, SGASP, scaled_cov
from gpcalib.inference import mcmc_run, posterior_summary
from gpcalib.kernels import KernelSpec, corr_matrix
from gpcalib.design import maximin_lhd, scale_to_domain
from gpcalib.emulator import (
    as_computer_model,
    emulator_fit,
    emulator_predict,
    emulator_predict_scaled,
)
from gpcalib.models import builtin_model


def _fit_1d(seed=0, D=8):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(size=(D, 1)), axis=0)
    y = np.sin(4 * x[:, 0]) + x[:, 0]
    return emulator_fit(x, y, seed=seed), x, y


class TestEmulatorFit:
    def test_linear_outputs_are_absorbed_by_basis(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(12, 2))
        basis = [lambda Z: np.ones(len(Z)), lambda Z: Z[:, 0], lambda Z: Z[:, 1]]
        coef = np.array([0.5, 2.0, -1.5])
        y = coef[0] + coef[1] * X[:, 0] + coef[2] * X[:, 1]
        em = emulator_fit(X, y, mean_basis=basis, seed=1)
        assert em.sigma2_hat / np.var(y) < 1e-8
        np.testing.assert_allclose(em.beta_hat, coef, atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["design", "outputs"])
    def test_non_finite_runs_are_rejected(self, where, bad):
        # rejected up front, before any distance, warning or factorization
        rng = np.random.default_rng(2)
        design = rng.uniform(size=(10, 2))
        y = design.sum(axis=1)
        if where == "design":
            design[3, 1] = bad
        else:
            y[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="design and outputs must be finite"):
                emulator_fit(design, y, ranges=[0.5, 0.5])
            with pytest.raises(ValueError, match="design and outputs must be finite"):
                emulator_fit(design, y, n_starts=1)

    def test_dof(self):
        em, _, _ = _fit_1d()
        assert em.dof == em.n_design - 1

    def test_empty_basis_is_simple_kriging(self):
        # no trend: the mean is r' R^-1 y, the variance sigma2 (1 - r' R^-1 r)
        # with sigma2 = y' R^-1 y / D
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(10, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        em = emulator_fit(X, y, mean_basis=[], ranges=[0.3, 0.4])
        assert em.dof == 10 and em.beta_hat.shape == (0,)
        Z = rng.uniform(size=(6, 2))
        mean, var, _ = emulator_predict(em, Z)
        R, r = corr_matrix(X, X, em.kernel), corr_matrix(X, Z, em.kernel)
        np.testing.assert_allclose(mean, r.T @ np.linalg.solve(R, y), rtol=1e-10, atol=1e-12)
        sigma2 = y @ np.linalg.solve(R, y) / 10
        want = sigma2 * (1 - np.einsum("ij,ij->j", r, np.linalg.solve(R, r)))
        np.testing.assert_allclose(var, want, rtol=1e-8, atol=1e-12)
        # the range optimization runs on the zero-trend marginal too
        assert np.all(np.isfinite(emulator_fit(X, y, mean_basis=[], n_starts=2).kernel.ranges))

    def test_rejects_duplicate_design(self):
        with pytest.raises(ValueError):
            emulator_fit([[0.1], [0.1], [0.5], [0.8]], [1.0, 2.0, 3.0, 4.0])

    def test_rejects_rank_deficient_basis(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(8, 1))
        basis = [lambda Z: np.ones(len(Z)), lambda Z: 2 * np.ones(len(Z))]
        with pytest.raises(ValueError):
            emulator_fit(X, rng.normal(size=8), mean_basis=basis)

    def test_row_permutation_leaves_predictions_unchanged(self):
        # exact invariance of the kriging equations at fixed ranges
        em, x, y = _fit_1d(seed=3)
        perm = np.random.default_rng(0).permutation(len(y))
        em2 = emulator_fit(x[perm], y[perm], seed=3, ranges=em.kernel.ranges)
        Xs = np.linspace(0, 1, 11)[:, None]
        m1, v1, _ = emulator_predict(em, Xs)
        m2, v2, _ = emulator_predict(em2, Xs)
        np.testing.assert_allclose(m1, m2, atol=1e-10)
        np.testing.assert_allclose(v1, v2, atol=1e-10)

    def test_fixed_ranges_reproduce_the_fit_exactly(self):
        rng = np.random.default_rng(4)
        design = np.column_stack([rng.uniform(size=12), rng.uniform(1, 3, size=12)])
        em = emulator_fit(design, np.sin(design[:, 1] * design[:, 0]), seed=4)
        again = emulator_fit(em.design, em.outputs, ranges=em.kernel.ranges)
        assert np.array_equal(again.kernel.ranges, em.kernel.ranges)
        for got, want in zip(again._gls, em._gls):
            assert np.array_equal(got, want)
        # kept as given: 1 / (1 / 1.94718889) is not 1.94718889 in floating point
        fixed = emulator_fit(design, em.outputs, ranges=[0.5, 1.94718889])
        assert np.array_equal(fixed.kernel.ranges, [0.5, 1.94718889])

    def test_row_permutation_refit_is_stable(self):
        # the refit re-estimates the ranges; optimizer noise stays tiny
        em, x, y = _fit_1d(seed=3)
        perm = np.random.default_rng(0).permutation(len(y))
        em2 = emulator_fit(x[perm], y[perm], seed=3)
        Xs = np.linspace(0, 1, 11)[:, None]
        m1, _, _ = emulator_predict(em, Xs)
        m2, _, _ = emulator_predict(em2, Xs)
        np.testing.assert_allclose(m1, m2, atol=1e-4)


class TestEmulatorPredict:
    def test_interpolates_design(self):
        em, x, y = _fit_1d()
        mean, var, _ = emulator_predict(em, x)
        np.testing.assert_allclose(mean, y, atol=1e-8)
        assert np.all(var <= 1e-8 * max(em.sigma2_hat, 1.0))

    def test_far_field_reverts_to_trend(self):
        em, _, _ = _fit_1d()
        far = np.array([[1e6]])
        mean, var, _ = emulator_predict(em, far)
        h = np.ones((1, 1))
        assert np.isclose(mean[0], em.beta_hat[0], rtol=1e-10)
        # at zero correlation the variance is sigma2 * (1 + h' M^-1 h)
        H = em.basis(em.design)
        R = corr_matrix(em.design, em.design, em.kernel)
        M = H.T @ np.linalg.solve(R, H)
        expected = em.sigma2_hat * (1.0 + (h @ np.linalg.solve(M, h.T)).item())
        assert np.isclose(var[0], expected, rtol=1e-6)

    def test_dense_formula_oracle(self):
        # direct universal-kriging formulas with explicit inverses
        em, x, y = _fit_1d(seed=4, D=5)
        Xs = np.array([[0.21], [0.55], [0.83]])
        R = corr_matrix(x, x, em.kernel)
        r = corr_matrix(x, Xs, em.kernel)
        H = np.ones((5, 1))
        h = np.ones((3, 1))
        Rinv = np.linalg.inv(R)
        M = H.T @ Rinv @ H
        beta = np.linalg.solve(M, H.T @ Rinv @ y)
        resid = y - H @ beta
        mean_oracle = h @ beta + r.T @ Rinv @ resid
        quad = resid @ Rinv @ resid
        s2 = quad / (5 - 1)
        u = h.T - H.T @ Rinv @ r
        c = 1.0 - np.einsum("ij,ij->j", r, Rinv @ r) + np.einsum(
            "ij,ij->j", u, np.linalg.solve(M, u)
        )
        var_oracle = s2 * c
        mean, var, dof = emulator_predict(em, Xs)
        np.testing.assert_allclose(mean, mean_oracle, atol=1e-10)
        np.testing.assert_allclose(var, var_oracle, atol=1e-10)
        assert dof == 4

    def test_variance_nonnegative(self):
        em, _, _ = _fit_1d(seed=5, D=10)
        _, var, _ = emulator_predict(em, np.linspace(0, 1, 101)[:, None])
        assert np.all(var >= -1e-12)


class TestScaledPrediction:
    def test_matches_plain_at_vanishing_scaling(self):
        em, _, _ = _fit_1d(seed=6, D=9)
        Xs = np.linspace(0.05, 0.95, 7)[:, None]
        m_plain, v_plain, _ = emulator_predict(em, Xs)
        m_scaled, v_scaled, _ = emulator_predict_scaled(em, Xs, lam=1e-10)
        np.testing.assert_allclose(m_scaled, m_plain, atol=1e-6)
        np.testing.assert_allclose(v_scaled, v_plain, atol=1e-6)

    def test_dense_formula_oracle(self):
        # universal kriging under the shrunk correlation, with explicit
        # inverses over the design and the new points jointly
        em, x, y = _fit_1d(seed=4, D=6)
        Xs = np.array([[0.13], [0.47], [0.9]])
        lam = 2.5
        D, k = len(y), len(Xs)
        Z = np.vstack([x, Xs])
        RC = corr_matrix(x, x, em.kernel)
        rC = corr_matrix(x, Z, em.kernel)
        joint = corr_matrix(Z, Z, em.kernel) - rC.T @ np.linalg.inv(RC + D / lam * np.eye(D)) @ rC
        Rz, rz, cz = joint[:D, :D], joint[:D, D:], np.diag(joint[D:, D:])
        np.testing.assert_allclose(Rz, scaled_cov(x, DiscrepancySpec(SGASP, em.kernel, lam=lam)),
                                   atol=1e-12)
        Rinv = np.linalg.inv(Rz)
        H, h = np.ones((D, 1)), np.ones((k, 1))
        M = H.T @ Rinv @ H
        beta = np.linalg.solve(M, H.T @ Rinv @ y)
        resid = y - H @ beta
        mean_oracle = h @ beta + rz.T @ Rinv @ resid
        s2 = resid @ Rinv @ resid / (D - 1)
        u = h.T - H.T @ Rinv @ rz
        c = cz - np.einsum("ij,ij->j", rz, Rinv @ rz) + np.einsum("ij,ij->j", u, np.linalg.solve(M, u))
        mean, var, dof = emulator_predict_scaled(em, Xs, lam=lam)
        np.testing.assert_allclose(mean, mean_oracle, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, s2 * c, rtol=1e-8, atol=1e-10)
        assert dof == D - 1

    @pytest.mark.parametrize("lam", [None, 2.5])
    def test_factors_constraint_matrix_once(self, lam, monkeypatch):
        # the shrunk correlation, cross-correlation and prior variance share one factor
        em, _, _ = _fit_1d(seed=4, D=6)
        calls = []
        chol = discrepancy.cholesky_with_jitter
        monkeypatch.setattr(discrepancy, "cholesky_with_jitter", lambda *a: calls.append(1) or chol(*a))
        emulator_predict_scaled(em, np.array([[0.13], [0.47]]), lam=lam)
        assert len(calls) == 1

    def test_interpolates_design(self):
        em, x, y = _fit_1d(seed=7, D=8)
        mean, var, _ = emulator_predict_scaled(em, x)
        np.testing.assert_allclose(mean, y, atol=1e-6)


class TestAsComputerModel:
    def test_wraps_design_outputs(self):
        rng = np.random.default_rng(8)
        design = np.column_stack([rng.uniform(size=10), rng.uniform(25, 35, size=10)])
        y = np.sin(design[:, 1] * design[:, 0])
        em = emulator_fit(design, y, seed=8)
        model = as_computer_model(em, p_x=1, theta_bounds=[[25.0, 35.0]])
        got = model.evaluate(design[:1, :1], design[0, 1:])
        assert np.isclose(got[0], y[0], atol=1e-6)

    def test_evaluator_is_the_predictive_mean(self):
        rng = np.random.default_rng(11)
        design = np.column_stack([rng.uniform(size=15), rng.uniform(0, 4, size=15)])
        em = emulator_fit(design, np.cos(design[:, 1] * design[:, 0]), seed=11)
        model = as_computer_model(em, p_x=1, theta_bounds=[[0.0, 4.0]])
        X = rng.uniform(size=(20, 1))
        assert np.array_equal(model.evaluate(X, [1.7]), emulator_predict(em, X, [1.7])[0])

    @pytest.mark.parametrize("p_theta", [1, 2])
    @pytest.mark.parametrize("p_x", [0, 1, 2])
    def test_evaluator_is_bitwise_the_predictive_mean(self, p_x, p_theta):
        # the x-axis factor is cached per input set and the theta-axis factors
        # multiplied into it in axis order, as the full product kernel does
        rng = np.random.default_rng(10 * p_x + p_theta)
        p = p_x + p_theta
        design = rng.uniform(size=(14, p))
        em = emulator_fit(design, np.sin(design @ np.arange(1.0, p + 1)), ranges=np.full(p, 0.4))
        model = as_computer_model(em, p_x=p_x, theta_bounds=[[0.0, 1.0]] * p_theta)
        inputs = [rng.uniform(size=(m, p_x)) for m in (7, 3)]
        for X in inputs + inputs:  # the second pass reuses the cached factors
            theta = rng.uniform(size=p_theta)
            assert np.array_equal(model.evaluate(X, theta), emulator_predict(em, X, theta)[0])

    def test_field_inputs_get_their_distances_once_per_chain(self, monkeypatch):
        rng = np.random.default_rng(12)
        design = np.column_stack([rng.uniform(size=20), rng.uniform(0, 4, size=20)])
        em = emulator_fit(design, np.cos(design[:, 1] * design[:, 0]), ranges=[0.3, 1.5])
        model = as_computer_model(em, p_x=1, theta_bounds=[[0.0, 4.0]])
        x = np.linspace(0, 1, 12)[:, None]
        data = FieldDataset(x, np.cos(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(12), [[0.0, 1.0]])
        rows = []
        dists = emulator._distances
        monkeypatch.setattr(emulator, "_distances", lambda A, B: rows.append(len(B)) or dists(A, B))
        mcmc_run(data, model, DiscrepancySpec(GASP, KernelSpec("matern52", [0.5])), S=300, burn_in=100)
        # one x-axis set for the 12 field inputs; one theta row per new theta
        assert rows.count(12) == 1
        assert rows.count(1) > 50 and len(rows) == rows.count(1) + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_is_rejected(self, bad):
        design = np.column_stack([np.linspace(0, 1, 8), np.random.default_rng(3).uniform(size=8)])
        em = emulator_fit(design, np.sin(3 * design.sum(axis=1)), ranges=[0.3, 0.3])
        model = as_computer_model(em, p_x=1, theta_bounds=[[0.0, 1.0]])
        X = np.linspace(0, 1, 5)[:, None]
        model.evaluate(X, [0.5])  # caches the x-axis factor of X
        with pytest.raises(ValueError, match="finite"):
            model.evaluate(X, [bad])

    def test_inputs_must_have_p_x_columns(self):
        # joint inputs with an empty theta would read the first row's theta
        # for every row, unlike emulator_predict
        design = np.random.default_rng(4).uniform(size=(9, 2))
        em = emulator_fit(design, design.sum(axis=1), ranges=[0.3, 0.3])
        model = as_computer_model(em, p_x=1, theta_bounds=[[0.0, 1.0]])
        with pytest.raises(ValueError, match="p_x = 1"):
            model.evaluate(design[:3], [])

    def test_deterministic(self):
        em, x, y = _fit_1d(seed=9, D=6)
        model = as_computer_model(em, p_x=0, theta_bounds=[[0.0, 1.0]])
        a = model.evaluate(np.zeros((3, 0)), [0.3])
        b = model.evaluate(np.zeros((3, 0)), [0.3])
        assert np.array_equal(a, b)

    @pytest.mark.slow
    def test_emulated_calibration_matches_exact(self):
        # sine-wave model emulated from 50 design runs over (x, theta); the
        # posterior median from the emulated run must track the exact run
        seed = 0
        rng = np.random.default_rng(seed)
        U = maximin_lhd(50, 2, iterations=300, seed=seed)
        design = scale_to_domain(U, [[0.0, 1.0], [25.0, 35.0]])
        runs = np.sin(design[:, 1] * design[:, 0])
        em = emulator_fit(design, runs, seed=seed)
        emulated = as_computer_model(em, p_x=1, theta_bounds=[[25.0, 35.0]])
        exact = builtin_model("sine_theta_x", theta_bounds=[[25.0, 35.0]])

        n = 30
        x = np.linspace(0, 1, n)[:, None]
        y = np.sin(10 * np.pi * x[:, 0]) + np.sin(np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
        data = FieldDataset(x, y, [[0.0, 1.0]])
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        medians = []
        for model in (exact, emulated):
            chain = mcmc_run(data, model, spec, S=6000, burn_in=2000, seed=seed)
            medians.append(posterior_summary(chain)["theta_1"]["median"])
        assert abs(medians[0] - medians[1]) <= 1.0
