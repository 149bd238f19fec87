"""Calibration-model checks against dense joint-Gaussian oracles."""

from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import lapack

from gpcalib import calibration, discrepancy, kernels
from gpcalib.calibration import (
    CalibParams,
    ComputerModel,
    FieldDataset,
    LikelihoodCore,
    ParamTransform,
    PriorSpec,
    _predict,
    log_prior,
    marginal_loglik,
    mean_basis_eval,
    predict,
)
from gpcalib.discrepancy import (
    DiscrepancySpec,
    GASP,
    OGASP,
    SGASP,
    ogasp_kernel,
    scaled_cov,
)
from gpcalib.kernels import KernelSpec, corr_matrix
from oracles import (
    MVNModel,
    conditional_mp,
    gp_condition,
    mvn_logdensity,
    scaled_cov_three_kernels,
    transform_log_jacobian,
)


def _constant_model(bounds=((0.0, 10.0),)):
    return ComputerModel(
        evaluator=lambda X, th: np.full(np.atleast_2d(X).shape[0], th[0]),
        theta_bounds=bounds,
        vectorized=True,
    )


def _dataset(n=6, seed=0, p=1):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(size=(n, p)), axis=0)
    y = rng.normal(size=n)
    return FieldDataset(X, y, [[0.0, 1.0]] * p)


def _spec(mode=GASP, p=1, gamma=0.5, lam=None, basis=()):
    return DiscrepancySpec(
        mode, KernelSpec("matern52", [gamma] * p), mean_basis=list(basis), lam=lam
    )


class TestFieldDataset:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FieldDataset([[0.1], [0.1], [0.5]], [1.0, 2.0, 3.0], [[0, 1]])

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            FieldDataset([[0.1], [1.5]], [1.0, 2.0], [[0, 1]])

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            FieldDataset([[0.1]], [1.0], [[0, 1]])

    @pytest.mark.parametrize(
        "X, y",
        [
            ([[0.1], [np.nan], [0.5]], [1.0, 2.0, 3.0]),
            ([[0.1], [0.3], [0.5]], [1.0, np.nan, 3.0]),
            ([[0.1], [0.3], [0.5]], [1.0, np.inf, 3.0]),
        ],
    )
    def test_rejects_non_finite(self, X, y):
        with pytest.raises(ValueError, match="finite"):
            FieldDataset(X, y, [[0, 1]])

    @pytest.mark.parametrize("domain", [[[-1e308, 1e308]], [[-np.inf, 1.0]], [[0.0, np.nan]]])
    def test_rejects_a_domain_without_finite_width(self, domain):
        # a width of inf would reach the kernel as an infinite range
        with pytest.raises(ValueError, match="^domain must be .* finite width"):
            FieldDataset([[0.1], [0.5]], [1.0, 2.0], domain)

    def test_later_writes_to_the_callers_arrays_change_no_fit(self):
        x = np.linspace(0.0, 1.0, 8)[:, None]
        y = np.sin(6.0 * x[:, 0])
        domain = np.array([[0.0, 1.0]])
        data = FieldDataset(x, y, domain)
        model, spec = _constant_model(), _spec()
        params = CalibParams([0.3], [], [2.0], 1.0, 0.1)
        before = marginal_loglik(params, data, model, spec)
        x[0, 0], y[0], domain[0, 1] = 0.95, np.nan, 0.5
        assert marginal_loglik(params, data, model, spec) == before
        for name in ("X", "y", "domain"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(data, name)[0] = 0.0


class TestComputerModel:
    @pytest.mark.parametrize("bounds", [[[-1e308, 1e308]], [[0.0, np.inf]], [[np.nan, 1.0]]])
    def test_rejects_a_box_without_finite_width(self, bounds):
        # a width of inf would make every theta fail the sampler's logit transform
        with pytest.raises(ValueError, match="^theta_bounds must be .* finite width"):
            _constant_model(bounds)

    def test_accepts_a_wide_finite_box(self):
        assert _constant_model([[-1e307, 1e307]]).theta_bounds[0, 1] == 1e307

    @pytest.mark.parametrize("theta", [1.0, 1.000005, 1.00001])
    def test_finite_differences_fit_a_box_narrower_than_the_step(self, theta):
        # the default step 1e-4 has no room in a 1e-5 box; half its width does
        model = ComputerModel(lambda X, th: 3.0 * th[0] * X[:, 0], [[1.0, 1.00001]], vectorized=True)
        X = np.linspace(0.1, 2.0, 4)[:, None]
        grad = model.grad_fn([theta])(X)
        np.testing.assert_allclose(grad, 3.0 * X, rtol=1e-9)


class TestMeanBasis:
    def test_empty_basis_gives_zero(self):
        spec = _spec()
        np.testing.assert_array_equal(
            mean_basis_eval(np.zeros((4, 1)), spec, []), np.zeros(4)
        )

    def test_intercept(self):
        spec = _spec(basis=[lambda X: np.ones(len(X))])
        np.testing.assert_allclose(
            mean_basis_eval(np.zeros((3, 1)), spec, [2.5]), 2.5
        )

    def test_linear_basis_hand_values(self):
        spec = _spec(basis=[lambda X: np.ones(len(X)), lambda X: X[:, 0]])
        out = mean_basis_eval(np.array([[0.0], [1.0]]), spec, [1.0, 2.0])
        np.testing.assert_allclose(out, [1.0, 3.0])


class TestMarginalLoglik:
    def test_matches_dense_assembly(self):
        data = _dataset(n=6, seed=1)
        model = _constant_model()
        for mode, lam in ((GASP, None), (SGASP, 3.0)):
            spec = _spec(mode=mode, lam=lam)
            params = CalibParams([1.2], [], [2.0], 0.8, 0.05)
            got = marginal_loglik(params, data, model, spec)
            kern = replace(spec.kernel, ranges=1.0 / params.psi_delta)
            wspec = replace(spec, kernel=kern)
            K = corr_matrix(data.X, data.X, kern) if mode == GASP else scaled_cov(data.X, wspec)
            cov = params.sigma2_delta * (K + params.eta * np.eye(data.n))
            mean = np.full(data.n, 1.2)
            want = mvn_logdensity(data.y, MVNModel(mean=mean, covariance=cov))
            assert np.isclose(got, want, atol=1e-10)

    def test_scaled_matches_plain_at_vanishing_lambda(self):
        data = _dataset(n=12, seed=2)
        model = _constant_model()
        plain = _spec(GASP)
        scaled = _spec(SGASP, lam=1e-10)
        for theta in np.linspace(0.05, 9.95, 10):
            params = CalibParams([theta], [], [2.0], 1.0, 0.01)
            a = marginal_loglik(params, data, model, plain)
            b = marginal_loglik(params, data, model, scaled)
            assert abs(a - b) <= 1e-6

    def test_row_permutation_invariance(self):
        data = _dataset(n=8, seed=3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(data.n)
        permuted = FieldDataset(data.X[perm], data.y[perm], data.domain)
        model = _constant_model()
        spec = _spec(SGASP)
        params = CalibParams([0.7], [], [1.5], 1.1, 0.1)
        # constraint points default to the design, so pin them to keep the
        # transform identical across orderings
        pinned = DiscrepancySpec(SGASP, spec.kernel, constraint_points=data.X, lam=4.0)
        a = marginal_loglik(params, data, model, pinned)
        b = marginal_loglik(params, permuted, model, pinned)
        assert np.isclose(a, b, rtol=1e-10)

    def test_finite_with_prior_on_interior(self):
        data = _dataset(n=10, seed=4)
        model = _constant_model()
        spec = _spec(GASP)
        prior = PriorSpec.default(data)
        params = CalibParams([2.0], [], [3.0], 0.5, 0.2)
        total = marginal_loglik(params, data, model, spec) + log_prior(
            params, prior, model.theta_bounds
        )
        assert np.isfinite(total)


class TestLoglikDifferenceIdentity:
    """E[loglik(true mean) - loglik(shifted mean)] = half the shifted quad form."""

    def test_symbolic_three_dimensional(self):
        y = sp.Matrix(sp.symbols("y0 y1 y2"))
        A = sp.Matrix(3, 3, sp.symbols("a0:9"))
        A = (A + A.T) / 2  # stands for the inverse covariance
        one = sp.ones(3, 1)
        diff = sp.expand((((y - one).T * A * (y - one))[0] - (y.T * A * y)[0]) / 2)
        for yi in y:
            assert sp.diff(diff, yi, 2) == 0  # no quadratic y terms survive
        expect = diff.subs({s: 0 for s in y})  # E[y] = 0 kills the linear part
        assert sp.simplify(expect - (one.T * A * one)[0] / 2) == 0

    def test_monte_carlo_small(self):
        n, reps = 30, 200
        x = np.linspace(0, 1, n)[:, None]
        kern = KernelSpec("pow_exp", [0.3], roughness=[1.9])
        R = corr_matrix(x, x, kern)
        jitter = 1e-8 * np.eye(n)
        L = np.linalg.cholesky(R + jitter)
        oracle = 0.5 * np.ones(n) @ np.linalg.solve(R + jitter, np.ones(n))
        data_domain = [[0.0, 1.0]]
        model = _constant_model(bounds=((-1.0, 2.0),))
        spec = DiscrepancySpec(GASP, kern)
        diffs = []
        rng = np.random.default_rng(42)
        for _ in range(reps):
            y = L @ rng.normal(size=n)
            data = FieldDataset(x, y, data_domain)
            p0 = CalibParams([0.0], [], [1.0 / 0.3], 1.0, 0.0)
            p1 = CalibParams([1.0], [], [1.0 / 0.3], 1.0, 0.0)
            diffs.append(
                marginal_loglik(p0, data, model, spec)
                - marginal_loglik(p1, data, model, spec)
            )
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(reps)
        assert abs(diffs.mean() - oracle) <= 3 * se


class TestLogPrior:
    def test_scale_prior_in_sigma2(self):
        prior = PriorSpec(jr_a=-0.5, jr_b=1.0, jr_C=[1.0])
        base = CalibParams([0.5], [], [1.0], 1.0, 0.0)
        double = CalibParams([0.5], [], [1.0], 2.0, 0.0)
        a = log_prior(base, prior)
        b = log_prior(double, prior)
        assert np.isclose(a - b, np.log(2.0), rtol=1e-12)

    def test_theta_outside_box(self):
        prior = PriorSpec(jr_a=-0.5, jr_b=1.0, jr_C=[1.0])
        params = CalibParams([5.0], [], [1.0], 1.0, 0.0)
        assert log_prior(params, prior, theta_bounds=[[0.0, 1.0]]) == -np.inf

    def test_scalar_value(self):
        # p=1, C=1, a=-1/2, b=1, psi=1, eta=0, sigma2=1 -> log(1^(-1/2) e^-1) = -1
        prior = PriorSpec(jr_a=-0.5, jr_b=1.0, jr_C=[1.0])
        params = CalibParams([0.5], [], [1.0], 1.0, 0.0)
        assert np.isclose(log_prior(params, prior), -1.0, rtol=1e-12)

    def test_default_hyperparameters(self):
        data = _dataset(n=9, p=2, seed=6)
        prior = PriorSpec.default(data)
        assert prior.jr_a == 0.5 - 2
        assert prior.jr_b == 1.0
        np.testing.assert_allclose(prior.jr_C, 1.0 * 9 ** (-0.5), rtol=1e-12)


class TestPredict:
    def test_interpolates_at_tiny_nugget(self):
        data = _dataset(n=7, seed=7)
        model = _constant_model()
        for mode, lam in ((GASP, None), (SGASP, None)):
            spec = _spec(mode=mode, lam=lam)
            params = CalibParams([1.0], [], [2.0], 1.0, 1e-10)
            out = predict(params, data, model, spec, data.X)
            np.testing.assert_allclose(out.full_mean, data.y, atol=1e-6)

    def test_far_field_reverts_to_model(self):
        X = np.array([[0.01], [0.02], [0.03]])
        data = FieldDataset(X, [5.0, 6.0, 7.0], [[0.0, 1.0]])
        model = _constant_model()
        spec = _spec(GASP, gamma=1e-3)
        params = CalibParams([2.0], [], [1e3], 1.5, 0.1)
        out = predict(params, data, model, spec, [[0.99]])
        assert np.isclose(out.full_mean[0], 2.0, atol=1e-9)
        assert np.isclose(out.variance[0], 1.5 * (1.0 + 0.1), rtol=1e-9)

    @pytest.mark.parametrize("mode", [GASP, SGASP])
    def test_augmented_covariance_oracle(self, mode):
        # oracle: dense conditioning of sigma2*K_joint + sigma2_0*I over the
        # stacked (train, new) points, restricted to observed coordinates
        data = _dataset(n=6, seed=8)
        model = _constant_model()
        xstar = np.array([[0.37], [0.81]])
        spec = DiscrepancySpec(
            mode,
            KernelSpec("matern52", [0.5]),
            constraint_points=data.X if mode == SGASP else None,
            lam=3.0 if mode == SGASP else None,
        )
        params = CalibParams([1.3], [], [2.0], 0.9, 0.08)
        joint = np.vstack([data.X, xstar])
        kern = replace(spec.kernel, ranges=1.0 / params.psi_delta)
        if mode == GASP:
            Kj = corr_matrix(joint, joint, kern)
        else:
            Kj = scaled_cov(joint, replace(spec, kernel=kern))
        sigma2, s20 = params.sigma2_delta, params.sigma2_noise
        cov = sigma2 * Kj + s20 * np.eye(len(joint))
        n = data.n
        mean_obs = np.full(n, 1.3)
        mean_new = np.full(2, 1.3)
        resid = data.y - mean_obs
        inv = np.linalg.inv(cov[:n, :n])
        mean_oracle = mean_new + cov[n:, :n] @ inv @ resid
        var_oracle = np.diag(cov[n:, n:] - cov[n:, :n] @ inv @ cov[:n, n:])
        out = predict(params, data, model, spec, xstar)
        np.testing.assert_allclose(out.full_mean, mean_oracle, atol=1e-8)
        np.testing.assert_allclose(out.variance, var_oracle, atol=1e-8)

    def test_explicit_constraints_factor_once(self, monkeypatch):
        # K, the cross-covariance and the prior variance share one factor of RC + c I
        data = _dataset(n=8, seed=10)
        spec = DiscrepancySpec(
            SGASP, KernelSpec("matern52", [0.5]), constraint_points=[[0.1], [0.4], [0.7], [0.95]], lam=3.0
        )
        calls = []
        chol = discrepancy.cholesky_with_jitter
        monkeypatch.setattr(discrepancy, "cholesky_with_jitter", lambda *a: calls.append(1) or chol(*a))
        params = CalibParams([1.0], [], [2.0], 1.0, 0.05)
        predict(params, data, _constant_model(), spec, np.linspace(0, 1, 7)[:, None])
        assert len(calls) == 1

    def test_variance_at_least_noise(self):
        data = _dataset(n=10, seed=9)
        model = _constant_model()
        spec = _spec(SGASP)
        params = CalibParams([1.0], [], [3.0], 1.2, 0.3)
        out = predict(params, data, model, spec, np.linspace(0, 1, 50)[:, None])
        assert np.all(out.variance >= params.sigma2_noise - 1e-12)


#: each mode; sgasp with the design as its constraint points and with explicit ones
_PREDICT_CASES = [(GASP, None), (SGASP, None), (SGASP, "explicit"), (OGASP, None)]


class TestPredictAccuracy:
    """Prediction against a 50-digit reference on a 2-D design whose
    correlation has condition numbers from 1e6 to 1e10 at these ranges."""

    @pytest.mark.parametrize("mode, points", _PREDICT_CASES[:3])
    @pytest.mark.parametrize("psi", [0.3, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 1e-8])
    def test_matches_mpmath_reference(self, mode, points, psi, eta):
        rng = np.random.default_rng(0)
        X, Xs = rng.uniform(size=(20, 2)), rng.uniform(size=(20, 2))
        XC = rng.uniform(size=(12, 2)) if points else None
        y = np.sin(3 * X[:, 0]) + np.cos(2 * X[:, 1]) + 0.1 * rng.standard_normal(20)
        data = FieldDataset(X, y, [[0.0, 1.0]] * 2)
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [1.0, 1.0]), constraint_points=XC)
        core = LikelihoodCore(data, _constant_model(), spec)
        params = CalibParams([0.5], [], [psi, psi], 1.0, eta)
        out = _predict(core, Xs, params.theta, params.beta_delta, params.psi_delta, params.sigma2_delta, eta)

        kern = KernelSpec("matern52", [1.0 / psi] * 2)
        R, r_star = corr_matrix(X, X, kern), corr_matrix(X, Xs, kern)
        constraint = None
        if mode == SGASP:  # c = N_C / lambda, lambda = n / 2 by default
            c = (20 if XC is None else 12) / 10.0
            blocks = (R, R, r_star) if XC is None else (
                corr_matrix(XC, XC, kern), corr_matrix(XC, X, kern), corr_matrix(XC, Xs, kern)
            )
            constraint = (*blocks, c)
        jitter = core.corr_chol(params.psi_delta, eta)[1]
        mean, cstar = conditional_mp(R, r_star, y - 0.5, eta + jitter, constraint)
        full = 0.5 + mean
        assert np.max(np.abs(out.full_mean - full)) <= 1e-6 * np.max(np.abs(full))
        np.testing.assert_allclose(out.variance - eta, np.maximum(cstar, 0.0), rtol=0, atol=1e-11)


class TestPredictShapes:
    def _setup(self, mode, points):
        data = _dataset(n=9, seed=11)
        model = ComputerModel(
            evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
            theta_bounds=[[0.5, 5.0]],
            vectorized=True,
        )
        XC = [[0.1], [0.4], [0.7], [0.95]] if points else None
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]), constraint_points=XC, quad_points=40)
        return data, model, spec, CalibParams([2.2], [], [3.0], 0.8, 0.02)

    @pytest.mark.parametrize("mode, points", _PREDICT_CASES)
    def test_no_solve_with_one_rhs_per_new_point(self, monkeypatch, mode, points):
        # factors are applied to the columns of r and rC* through their
        # inverses; only ogasp's p_theta x p_theta projection is solved against
        data, model, spec, params = self._setup(mode, points)
        Xs = np.linspace(0, 1, 13)[:, None]
        factor_sizes = []

        def guard(solve):
            def wrapped(L, B, *args, **kwargs):
                if np.ndim(B) == 2 and B.shape[1] == len(Xs):
                    factor_sizes.append(L.shape[0])
                return solve(L, B, *args, **kwargs)

            return wrapped

        for module in (calibration, discrepancy):
            for name in ("dtrtrs", "dpotrs"):
                monkeypatch.setattr(module, name, guard(getattr(lapack, name)), raising=False)
        predict(params, data, model, spec, Xs)
        assert factor_sizes == ([len(params.theta)] if mode == OGASP else [])

    @pytest.mark.parametrize("mode, points", _PREDICT_CASES)
    def test_empty_inputs_predict(self, mode, points):
        data, model, spec, params = self._setup(mode, points)
        out = predict(params, data, model, spec, np.zeros((0, 1)))
        assert out.model_mean.shape == out.full_mean.shape == out.variance.shape == (0,)


def _mode_blocks(mode, X, Xs, kern, lam):
    """Prior correlation over the data, to the new points and at them, for
    gasp, or for sgasp by conditioning the plain process on the constraint
    points (the design) with noise ``n / lam``."""
    joint = np.vstack([X, Xs])
    prior = corr_matrix(joint, joint, kern)
    if mode == SGASP:
        R = corr_matrix(X, X, kern)
        _, prior = gp_condition(R, corr_matrix(X, joint, kern), prior, np.zeros(len(X)), len(X) / lam)
    n = len(X)
    return prior[:n, :n], prior[:n, n:], prior[n:, n:]


class TestPredictAgainstConditioning:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 15),
        p=st.sampled_from([1, 2]),
        mode=st.sampled_from([GASP, SGASP]),
        eta=st.sampled_from([0.0]) | st.floats(1e-6, 1.0),
        log_psi=st.floats(np.log(2.0), np.log(30.0)),
        sigma2=st.floats(0.1, 10.0),
        beta=st.lists(st.floats(-5.0, 5.0), max_size=1),
    )
    def test_matches_gp_condition(self, seed, n, p, mode, eta, log_psi, sigma2, beta):
        # a given beta is used as given: the mean h(x) beta is subtracted from
        # the data and added back at the new points, never re-estimated
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, p))
        Xs = rng.uniform(size=(4, p))
        data = FieldDataset(X, rng.normal(size=n), [[0.0, 1.0]] * p)
        psi = np.full(p, np.exp(log_psi))
        kern = KernelSpec("matern52", 1.0 / psi)
        K, r, c0 = _mode_blocks(mode, X, Xs, kern, n / 2.0)
        assume(np.linalg.cond(K + eta * np.eye(n)) < 1e6)
        basis, b = [lambda Z: 1.0 + Z[:, 0]][: len(beta)], sum(beta)  # q = 0 or 1
        params = CalibParams([1.3], beta, psi, sigma2, eta)
        out = predict(params, data, _constant_model(), _spec(mode, p=p, basis=basis), Xs)
        np.testing.assert_allclose(out.model_mean, 1.3 + b * (1.0 + Xs[:, 0]), rtol=1e-15)
        mean, cov = gp_condition(K, r, c0, data.y - 1.3 - b * (1.0 + X[:, 0]), nugget=eta)
        scale = max(1.0, float(np.max(np.abs(mean))))
        np.testing.assert_allclose(out.full_mean - out.model_mean, mean, rtol=1e-9, atol=1e-9 * scale)
        cstar = np.maximum(np.diag(cov), 0.0)
        np.testing.assert_allclose(
            out.variance, sigma2 * (cstar + eta), rtol=1e-9, atol=1e-9 * sigma2
        )


class TestOgaspPredict:
    def _setup(self):
        rng = np.random.default_rng(12)
        data = FieldDataset(rng.uniform(size=(9, 1)), rng.normal(size=9), [[0.0, 1.0]])
        model = ComputerModel(
            evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
            theta_bounds=[[0.5, 5.0]],
            vectorized=True,
        )
        spec = DiscrepancySpec(OGASP, KernelSpec("matern52", [0.5]), quad_points=40)
        return data, model, spec, CalibParams([2.2], [], [3.0], 0.8, 0.02)

    def test_one_projection_per_call(self, monkeypatch):
        data, model, spec, params = self._setup()
        calls = []
        proj = discrepancy._projection
        monkeypatch.setattr(discrepancy, "_projection", lambda *a: calls.append(1) or proj(*a))
        predict(params, data, model, spec, np.linspace(0, 1, 13)[:, None])
        assert len(calls) == 1

    def test_matches_gp_condition(self):
        data, model, spec, params = self._setup()
        Xs = np.linspace(0, 1, 13)[:, None]
        kern = replace(spec.kernel, ranges=1.0 / params.psi_delta)
        args = (kern, model.grad_fn(params.theta), data.domain, spec.quad_points)
        K = ogasp_kernel(data.X, data.X, *args)
        mode_cov = discrepancy._ModeCov(replace(spec, kernel=kern), data.X, data.domain, model.grad_fn)
        r, c0 = mode_cov.cross(kern.ranges, params.theta, Xs)
        resid = data.y - model.evaluate(data.X, params.theta)
        mean, cov = gp_condition(K, r, np.diag(c0), resid, nugget=params.eta)
        out = predict(params, data, model, spec, Xs)
        np.testing.assert_allclose(
            out.full_mean - model.evaluate(Xs, params.theta), mean, rtol=1e-10, atol=1e-12
        )
        want = params.sigma2_delta * (np.maximum(np.diag(cov), 0.0) + params.eta)
        np.testing.assert_allclose(out.variance, want, rtol=1e-10, atol=1e-12)


class TestCalibParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("theta", np.nan),
            ("theta", np.inf),
            ("beta_delta", np.nan),
            ("beta_delta", -np.inf),
            ("psi_delta", np.nan),
            ("sigma2_delta", np.nan),
            ("sigma2_delta", np.inf),
            ("eta", np.nan),
            ("eta", np.inf),
        ],
    )
    def test_rejects_non_finite(self, name, value):
        good = dict(theta=[1.0], beta_delta=[0.2], psi_delta=[2.0], sigma2_delta=1.0, eta=0.1)
        CalibParams(**good)
        with pytest.raises(ValueError, match=name):
            CalibParams(**{**good, name: value})


class TestParamTransform:
    def _params(self):
        return CalibParams([2.5], [0.3], [np.e, 0.5], 1.7, 0.02)

    def test_round_trip(self):
        tr = ParamTransform([[0.0, 10.0]], n_basis=1, p_x=2)
        params = self._params()
        z = tr.to_vector(params)
        back = tr.from_vector(z)
        np.testing.assert_allclose(back.theta, params.theta, rtol=1e-12)
        np.testing.assert_allclose(back.beta_delta, params.beta_delta, rtol=1e-12)
        np.testing.assert_allclose(back.psi_delta, params.psi_delta, rtol=1e-12)
        assert np.isclose(back.sigma2_delta, params.sigma2_delta, rtol=1e-12)
        assert np.isclose(back.eta, params.eta, rtol=1e-9, atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        tr = ParamTransform([[0.0, 10.0], [-3.0, 4.0]], n_basis=0, p_x=1)
        for _ in range(20):
            params = CalibParams(
                [rng.uniform(0.1, 9.9), rng.uniform(-2.9, 3.9)],
                [],
                [rng.uniform(0.01, 100)],
                rng.uniform(1e-4, 1e4),
                rng.uniform(0, 10),
            )
            back = tr.from_vector(tr.to_vector(params))
            np.testing.assert_allclose(back.theta, params.theta, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(back.psi_delta, params.psi_delta, rtol=1e-12)
            assert np.isclose(back.eta, params.eta, rtol=1e-9, atol=1e-12)

    def test_eta_zero_round_trips(self):
        tr = ParamTransform([[0.0, 1.0]], n_basis=0, p_x=1)
        params = CalibParams([0.5], [], [1.0], 1.0, 0.0)
        back = tr.from_vector(tr.to_vector(params))
        assert abs(back.eta) <= 1e-12

    def test_center_maps_to_zero(self):
        tr = ParamTransform([[2.0, 6.0]], n_basis=0, p_x=1)
        z = tr.to_vector(CalibParams([4.0], [], [1.0], 1.0, 0.0))
        assert abs(z[0]) < 1e-12

    def test_log_psi_coordinate(self):
        tr = ParamTransform([[0.0, 1.0]], n_basis=0, p_x=1)
        z = tr.to_vector(CalibParams([0.5], [], [np.e], 1.0, 0.0))
        assert np.isclose(z[1], 1.0, rtol=1e-12)

    @given(
        # below u = 1e-300 the logit passes -709, where exp(-z) overflows
        st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=2, max_size=2),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=1),
        st.floats(1e-3, 1e3),
        st.floats(1e-4, 1e4),
        st.floats(0.0, 10.0),
    )
    def test_round_trip_property(self, u, beta, psi, sigma2, eta):
        lower, width = np.array([0.0, -3.0]), np.array([10.0, 7.0])
        tr = ParamTransform(np.column_stack([lower, lower + width]), n_basis=1, p_x=1)
        theta = lower + width * np.asarray(u)
        assume(np.all(theta > lower) and np.all(theta < lower + width))
        params = CalibParams(theta, beta, [psi], sigma2, eta)
        back = tr.from_vector(tr.to_vector(params))
        assert np.all(np.abs(back.theta - params.theta) <= 1e-12 * width)
        assert np.array_equal(back.beta_delta, params.beta_delta)
        np.testing.assert_allclose(back.psi_delta, params.psi_delta, rtol=1e-12)
        assert back.sigma2_delta == pytest.approx(params.sigma2_delta, rel=1e-12)
        assert back.eta == pytest.approx(params.eta, rel=1e-9, abs=1e-12)

    def test_layout(self):
        tr = ParamTransform([[0.0, 10.0], [-3.0, 4.0]], n_basis=1, p_x=2)
        assert tr.names == ["theta_1", "theta_2", "beta_1", "psi_1", "psi_2", "sigma2_delta", "eta"]
        assert tr.dim == 7 and tr.p_theta == 2

    def test_unpack_of_split_row_equals_from_vector(self):
        tr = ParamTransform([[0.0, 10.0], [-3.0, 4.0]], n_basis=1, p_x=2)
        z = np.array([0.3, -1.2, 0.7, 0.1, -0.4, 0.2, -2.0])
        row = np.hstack(tr._split(z)[1:])
        got, want = tr.unpack(row), tr.from_vector(z)
        for name in ("theta", "beta_delta", "psi_delta", "sigma2_delta", "eta"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @given(st.lists(st.sampled_from([-745.0, -700.0, 0.0, 700.0, 745.0]), min_size=6, max_size=6))
    def test_split_is_finite_or_minus_inf_at_extremes(self, z):
        # layout: two logit thetas, beta, log psi, log sigma2, log(eta + floor)
        tr = ParamTransform([[0.0, 10.0], [-3.0, 4.0]], n_basis=1, p_x=1)
        z = np.asarray(z)
        with np.errstate(over="ignore", divide="ignore"):
            u, theta, beta, psi, sigma2, eta = tr._split(z)
            # psi, sigma2 and eta are the log-scale coordinates, from psi on
            log_jac = tr._theta_log_jacobian(u) + float(z[tr.psi_slice.start :].sum())
        if np.all(np.abs(z) <= 700.0):  # no exponential overflows in the dense oracle
            assert log_jac == pytest.approx(transform_log_jacobian(tr, z), rel=1e-12, abs=1e-9)
        assert np.all((u >= 0) & (u <= 1))
        assert np.all(np.isfinite(theta))
        assert np.all(theta >= tr.theta_bounds[:, 0]) and np.all(theta <= tr.theta_bounds[:, 1])
        for value in (psi, sigma2, eta):
            assert not np.any(np.isnan(value)) and np.all(value >= 0)
        assert np.isfinite(log_jac) or log_jac == -np.inf
        assert np.isfinite(log_jac) == bool(np.all((u > 0) & (u < 1)))


def _kernel(family, p):
    return KernelSpec(family, [0.5] * p, None if family == "matern52" else [1.4] * p)


def _public_target(core, psi, theta):
    """The correlation of ``core``'s mode from the public builders."""
    data, spec = core.data, core.spec
    kern = replace(spec.kernel, ranges=1.0 / np.asarray(psi, dtype=float))
    if spec.mode == GASP:
        return corr_matrix(data.X, data.X, kern)
    if spec.mode == SGASP:
        return scaled_cov(data.X, replace(spec, kernel=kern))
    grad = core.model.grad_fn(theta)
    return ogasp_kernel(data.X, data.X, kern, grad, data.domain, spec.quad_points)


def _ogasp_model(p, analytic):
    def evaluate(X, th):
        X = np.atleast_2d(X)
        return np.sin(th[0] * X[:, 0]) + th[1] * X[:, -1] ** 2

    def grad(X, th):
        X = np.atleast_2d(X)
        return np.column_stack([X[:, 0] * np.cos(th[0] * X[:, 0]), X[:, -1] ** 2])

    return ComputerModel(
        evaluator=evaluate,
        theta_bounds=[[0.5, 5.0], [-1.0, 1.0]],
        vectorized=True,
        theta_grad=grad if analytic else None,
    )


#: psi-only and theta-only moves, with returns to earlier values, so that a
#: stale or mixed-up cache entry would show
_MOVES = [
    ([2.0, 1.5], [2.2, 0.1]),
    ([3.5, 0.7], [2.2, 0.1]),
    ([3.5, 0.7], [1.1, -0.4]),
    ([2.0, 1.5], [1.1, -0.4]),
    ([2.0, 1.5], [2.2, 0.1]),
    ([3.5, 0.7], [1.1, -0.4]),
    ([9.0, 4.0], [4.0, 0.9]),
]


class TestLikelihoodCoreTarget:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("family", ["matern52", "pow_exp"])
    @pytest.mark.parametrize(
        "mode, extra",
        [
            (GASP, {}),
            (SGASP, {}),
            (SGASP, {"lam": 2.5}),
            (SGASP, {"constraint_points": "grid", "lam": 4.0}),
            (OGASP, {"quad_points": 12, "analytic": True}),
            (OGASP, {"quad_points": 12, "analytic": False}),
        ],
    )
    def test_equals_public_builders(self, mode, extra, family, p):
        extra = dict(extra)
        data = _dataset(n=9, seed=3, p=p)
        model = _ogasp_model(p, extra.pop("analytic", True))
        if extra.get("constraint_points") == "grid":
            extra["constraint_points"] = np.random.default_rng(4).uniform(size=(7, p))
        spec = DiscrepancySpec(mode, _kernel(family, p), **extra)
        core = LikelihoodCore(data, model, spec)
        for psi, theta in _MOVES:
            psi = psi[:p]
            got = core.cov.corr(1.0 / np.array(psi), np.array(theta))
            assert np.array_equal(got, _public_target(core, psi, theta))

    @pytest.mark.parametrize("mode", [GASP, SGASP])
    def test_sampler_builds_no_spec_objects(self, mode, monkeypatch):
        data = _dataset(n=8, seed=5)
        model = _ogasp_model(1, True)
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]))
        built = []
        for cls in (KernelSpec, DiscrepancySpec):
            init = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, init=init: built.append(1) or init(self)
            )
        from gpcalib.inference import mcmc_run

        mcmc_run(data, model, spec, S=40, burn_in=20, seed=0)
        assert built == []

    def test_ogasp_chain_builds_one_grid(self, monkeypatch):
        data = _dataset(n=8, seed=5)
        calls = []
        grid = discrepancy._ogasp_grid
        monkeypatch.setattr(discrepancy, "_ogasp_grid", lambda *a: calls.append(1) or grid(*a))
        spec = DiscrepancySpec(OGASP, KernelSpec("matern52", [0.5]), quad_points=30)
        from gpcalib.inference import mcmc_run

        mcmc_run(data, _ogasp_model(1, True), spec, S=40, burn_in=20, seed=0)
        assert len(calls) == 1

    def test_ogasp_theta_move_evaluates_no_kernel(self, monkeypatch):
        data = _dataset(n=8, seed=6)
        spec = DiscrepancySpec(OGASP, KernelSpec("matern52", [0.5]), quad_points=30)
        base = _ogasp_model(1, True)
        grad_calls = []
        model = ComputerModel(
            evaluator=base.evaluator,
            theta_bounds=base.theta_bounds,
            vectorized=True,
            theta_grad=lambda X, th: grad_calls.append(1) or base.theta_grad(X, th),
        )
        core = LikelihoodCore(data, model, spec)
        psi = np.array([2.0])
        core.corr_chol(psi, 0.1, np.array([2.2, 0.1]))
        kernel_calls = []
        matern = kernels._matern52
        monkeypatch.setattr(kernels, "_matern52", lambda *a: kernel_calls.append(1) or matern(*a))
        grad_calls.clear()
        theta = np.array([1.3, -0.5])
        got = core.cov.corr(1.0 / psi, theta)  # theta move
        assert kernel_calls == [] and grad_calls == [1]
        core.cov.corr(1.0 / np.array([3.0]), theta)  # psi move
        assert kernel_calls != [] and grad_calls == [1]
        assert np.array_equal(got, _public_target(core, psi, theta))

    def test_tiny_inverse_range_is_rejected(self):
        # 1/psi overflows to inf below 2**-1024, though psi itself is positive
        with pytest.raises(ValueError, match="psi_delta"):
            CalibParams([1.0], [], [np.exp(-720.0)], 1.0, 0.1)
        CalibParams([1.0], [], [np.exp(-700.0)], 1.0, 0.1)


#: cases of the covariance property test: the mode, and for sgasp whether lambda
#: and the constraint points are given
_PROPERTY_CASES = ["gasp", "sgasp", "sgasp_lam", "sgasp_points", "ogasp"]


class TestModeCovProperties:
    @settings(max_examples=200)
    @given(
        case=st.sampled_from(_PROPERTY_CASES),
        p=st.integers(1, 3),
        n=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        lam_per_n=st.floats(0.05, 20.0),
    )
    def test_corr_target_is_symmetric_psd(self, case, p, n, seed, log_scale, lam_per_n):
        # ranges from 1e-2 to 1e2 times the domain length, eta = 0
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, p))
        data = FieldDataset(X, rng.normal(size=n), [[0.0, 1.0]] * p)
        extra = {}
        if case == "sgasp_lam":
            extra["lam"] = lam_per_n * n
        elif case == "sgasp_points":
            extra = {"constraint_points": rng.uniform(size=(int(rng.integers(2, 9)), p)), "lam": lam_per_n * n}
        mode = case.split("_")[0]
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5] * p), **extra)
        core = LikelihoodCore(data, _ogasp_model(p, True), spec)
        gamma = 10.0 ** np.asarray(log_scale[:p])
        theta = np.array([2.2, 0.1])
        K = core.cov.corr(gamma, theta)
        assert np.all(np.isfinite(K))
        np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-10 * n
        kern = replace(spec.kernel, ranges=gamma)
        if mode == SGASP and "constraint_points" not in extra:
            if np.linalg.cond(corr_matrix(X, X, kern)) < 1e8:
                lam = extra.get("lam", n / 2.0)
                np.testing.assert_allclose(K, scaled_cov_three_kernels(X, kern, lam), rtol=0, atol=1e-12)
