"""Estimation machinery: MLE recovery, sampler correctness, summaries."""

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.optimize import OptimizeResult, minimize_scalar

from gpcalib import calibration, discrepancy, inference
from gpcalib.baselines import fit_field_gasp, l2_calibrate
from gpcalib.calibration import (
    CalibParams,
    ComputerModel,
    FieldDataset,
    LikelihoodCore,
    ParamTransform,
    PriorSpec,
    basis_matrix,
    initial_params,
    log_prior,
    marginal_loglik,
    predict,
)
from gpcalib.discrepancy import DiscrepancySpec, GASP, OGASP, SGASP
from gpcalib.emulator import emulator_fit
from gpcalib.kernels import KernelSpec
from gpcalib.linalg import NumericalError
from gpcalib.models import builtin_model
from gpcalib.inference import (
    OptimizationError,
    PosteriorChain,
    _CalibPosterior,
    _sample_chain,
    mcmc_run,
    mle_fit,
    posterior_summary,
    predict_posterior,
)
from oracles import integrated_log_marginal, transform_log_jacobian


def _quadratic_setup():
    x = np.linspace(0, 1, 12)[:, None]
    y = (x[:, 0] - 0.3) ** 2
    data = FieldDataset(x, y, [[0.0, 1.0]])
    model = ComputerModel(
        evaluator=lambda X, th: (np.atleast_2d(X)[:, 0] - th[0]) ** 2,
        theta_bounds=[[0.0, 1.0]],
        vectorized=True,
    )
    return data, model


class TestMleFit:
    def test_perfect_model_recovery(self):
        data, model = _quadratic_setup()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        fit = mle_fit(data, model, spec, n_starts=6, seed=0, sigma2_fixed=1.0)
        theta_hat = fit.best_params.theta[0]
        assert abs(theta_hat - 0.3) <= 1e-3
        # grid-search oracle at the fitted correlation parameters
        grid = np.linspace(0.25, 0.35, 2001)
        lls = [
            marginal_loglik(
                CalibParams([t], [], fit.best_params.psi_delta, 1.0, fit.best_params.eta),
                data,
                model,
                spec,
            )
            for t in grid
        ]
        assert abs(grid[int(np.argmax(lls))] - 0.3) <= 1e-3

    def test_best_is_max_over_starts(self):
        data, model = _quadratic_setup()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        fit = mle_fit(data, model, spec, n_starts=5, seed=1, sigma2_fixed=1.0)
        converged = [s["loglik"] for s in fit.per_start if s["converged"]]
        assert fit.best_loglik == pytest.approx(max(converged), rel=1e-12)
        base = initial_params(data, model, spec)
        base = CalibParams(base.theta, base.beta_delta, base.psi_delta, 1.0, base.eta)
        assert fit.best_loglik >= marginal_loglik(base, data, model, spec) - 1e-9

    def test_profiled_sigma2_is_stationary(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(size=10))[:, None]
        y = np.sin(3 * x[:, 0]) + 0.1 * rng.standard_normal(10)
        data = FieldDataset(x, y, [[0.0, 1.0]])
        model = ComputerModel(
            evaluator=lambda X, th: np.full(np.atleast_2d(X).shape[0], th[0]),
            theta_bounds=[[-2.0, 2.0]],
            vectorized=True,
        )
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        fit = mle_fit(data, model, spec, n_starts=4, seed=2)
        p = fit.best_params
        # the profiled variance maximizes the likelihood in the sigma2 slice
        for factor in (0.8, 1.25):
            bumped = CalibParams(p.theta, p.beta_delta, p.psi_delta, p.sigma2_delta * factor, p.eta)
            assert marginal_loglik(bumped, data, model, spec) <= fit.best_loglik + 1e-9

    def test_fixed_variance_is_reported_exactly(self):
        # exp(log(1000.0)) is 999.9999999999998: the fit must not round-trip it
        data, model = _quadratic_setup()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        fit = mle_fit(data, model, spec, n_starts=3, seed=0, sigma2_fixed=1000.0)
        assert fit.best_params.sigma2_delta == 1000.0
        assert not fit.sigma2_profiled
        want = marginal_loglik(fit.best_params, data, model, spec)
        assert fit.best_loglik == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sigma2_fixed", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_a_fixed_variance_that_is_not_positive_and_finite(self, sigma2_fixed):
        data, model = _quadratic_setup()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        with pytest.raises(ValueError, match="sigma2_fixed"):
            mle_fit(data, model, spec, n_starts=2, sigma2_fixed=sigma2_fixed)
        # a positive one too, with a prior, whose objective integrates the variance out
        with pytest.raises(ValueError, match="prior=.*sigma2_fixed="):
            mle_fit(data, model, spec, n_starts=2, sigma2_fixed=1.0, prior=PriorSpec.default(data))

    def test_rejects_no_more_observations_than_basis_functions(self):
        # the GLS trend would interpolate the data, leaving no residual variance
        data = FieldDataset([[0.2], [0.7]], [1.0, 2.0], [[0.0, 1.0]])
        basis = [lambda X: np.ones(X.shape[0]), lambda X: X[:, 0]]
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]), mean_basis=basis)
        with pytest.raises(ValueError, match="more observations"):
            mle_fit(data, builtin_model("sine_theta_x"), spec, n_starts=2)

    def test_mean_basis_is_profiled_by_gls(self):
        data, model = _quadratic_setup()
        rng = np.random.default_rng(5)
        data = FieldDataset(data.X, data.y + 0.5 + 0.05 * rng.standard_normal(data.n), data.domain)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]), mean_basis=[lambda X: np.ones(X.shape[0])])
        fit = mle_fit(data, model, spec, n_starts=4, seed=0)
        p = fit.best_params
        # the optimizer searches theta, psi and eta only
        assert all(s["x"].size == model.p_theta + data.p + 1 for s in fit.per_start)
        # beta is the dense GLS estimate at the fitted (theta, psi, eta)
        A = LikelihoodCore(data, model, spec).cov.corr(1.0 / p.psi_delta, p.theta) + p.eta * np.eye(data.n)
        H = basis_matrix(data.X, spec.mean_basis)
        r = data.y - model.evaluate(data.X, p.theta)
        AinvH = np.linalg.solve(A, H)
        want = np.linalg.solve(H.T @ AinvH, AinvH.T @ r)
        np.testing.assert_allclose(p.beta_delta, want, rtol=1e-10, atol=0.0)
        # and it maximizes the likelihood in the beta slice
        step = 1e-3 * (1.0 + np.abs(p.beta_delta))
        for sign in (-1.0, 1.0):
            bumped = CalibParams(p.theta, p.beta_delta + sign * step, p.psi_delta, p.sigma2_delta, p.eta)
            assert marginal_loglik(bumped, data, model, spec) <= fit.best_loglik + 1e-9

    def test_equal_optima_pick_lowest_start_index(self, monkeypatch):
        # every start "converges" where it began, at the same objective value
        def flat_minimize(fun, x0, **kwargs):
            return OptimizeResult(x=np.array(x0), fun=1.0, success=True, message="flat")

        # _multistart imports minimize when it runs, so patch it at the source
        monkeypatch.setattr("scipy.optimize.minimize", flat_minimize)
        data, model = _quadratic_setup()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        fit = mle_fit(data, model, spec, n_starts=4, seed=3, sigma2_fixed=1.0)
        assert [s["index"] for s in fit.per_start] == [0, 1, 2, 3]
        assert all(s["loglik"] == -1.0 for s in fit.per_start)
        first = fit.per_start[0]["x"]
        assert not np.allclose(first, fit.per_start[1]["x"])
        tr = ParamTransform(model.theta_bounds, 0, 1)
        want = tr.from_vector(np.append(first[:2], [0.0, first[2]]))
        np.testing.assert_allclose(fit.best_params.theta, want.theta, rtol=1e-12)
        np.testing.assert_allclose(fit.best_params.psi_delta, want.psi_delta, rtol=1e-12)

    def test_every_start_failing_raises_with_all_records(self, monkeypatch):
        def singular(self, psi, eta, theta=None):
            raise NumericalError("forced failure")

        monkeypatch.setattr(LikelihoodCore, "corr_chol", singular)
        data, model = _quadratic_setup()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        with pytest.raises(OptimizationError) as err:
            mle_fit(data, model, spec, n_starts=3, seed=0)
        records = err.value.per_start
        assert [s["index"] for s in records] == [0, 1, 2]
        assert not any(s["converged"] for s in records)
        assert "no point the search visited had a finite score" in str(err.value)


def _smooth_sine_data():
    x = np.linspace(0, 1, 15)[:, None]
    rng = np.random.default_rng(3)
    y = np.sin(12 * x[:, 0]) + 0.5 * x[:, 0] + 0.05 * rng.standard_normal(15)
    data = FieldDataset(x, y, [[0.0, 1.0]])
    model = ComputerModel(
        evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
        theta_bounds=[[0.0, 40.0]],
        vectorized=True,
    )
    return data, model


class TestMleFitGolden:
    @pytest.mark.parametrize(
        "mode, sigma2_fixed, loglik, best",
        [
            (GASP, None, 13.011887305336185,
             [11.995327220133227, 1.0490344622829106, 0.0940895160034944, 0.052970562618404875]),
            (GASP, 0.5, -5.65633093039653,
             [0.3281727827424425, 6.626216441763306, 0.5, 6.84985332969839e-08]),
            (SGASP, None, -4.911886483710539,
             [0.33751508737406727, 4.7267924254433815, 1.6203184532651602, 9.990000000000006e-10]),
            (SGASP, 0.5, -7.059323630221693,
             [0.2746220671802645, 6.71651091920921, 0.5, 1.1111174125658237e-09]),
        ],
    )
    def test_golden_fit(self, mode, sigma2_fixed, loglik, best):
        # a fixed-seed three-start fit without a prior: a change to the
        # objective's arithmetic or to the optimizer's path shows here
        data, model = _smooth_sine_data()
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]))
        fit = mle_fit(data, model, spec, n_starts=3, seed=0, sigma2_fixed=sigma2_fixed)
        p = fit.best_params
        np.testing.assert_allclose(fit.best_loglik, loglik, rtol=1e-9)
        np.testing.assert_allclose([p.theta[0], p.psi_delta[0], p.sigma2_delta, p.eta], best, rtol=1e-9)

    @pytest.mark.parametrize("prior", [False, True])
    def test_objective_builds_no_parameter_record(self, prior, monkeypatch):
        # parameters are checked where they enter: the objective reads the
        # vector unchecked, so a fit builds one record, for its result,
        # however many points the optimizer scores
        calls = {"from_vector": 0, "records": 0}
        from_vector, post_init = ParamTransform.from_vector, CalibParams.__post_init__

        def counting_from_vector(self, z):
            calls["from_vector"] += 1
            return from_vector(self, z)

        def counting_post_init(self):
            calls["records"] += 1
            post_init(self)

        monkeypatch.setattr(ParamTransform, "from_vector", counting_from_vector)
        monkeypatch.setattr(CalibParams, "__post_init__", counting_post_init)
        data, model = _smooth_sine_data()
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        mle_fit(data, model, spec, n_starts=2, seed=0, prior=PriorSpec.default(data) if prior else None)
        assert calls == {"from_vector": 0, "records": 1}

    def test_a_range_that_overflows_scores_the_penalty(self, monkeypatch):
        # the search box reaches psi = 1e-2 / width = 5e-310 here, whose range
        # 1/psi overflows: that corner scores the penalty instead of raising
        corner = []

        def corner_minimize(fun, x0, bounds, **kwargs):
            corner.append(fun(np.array([lo for lo, _ in bounds])))
            return OptimizeResult(x=np.array(x0), fun=fun(np.array(x0)), success=True, message="corner")

        monkeypatch.setattr("scipy.optimize.minimize", corner_minimize)
        x = np.linspace(0, 1, 12)[:, None]
        data = FieldDataset(x, np.sin(6 * x[:, 0]), [[-1e307, 1e307]])
        fit = fit_field_gasp(data, seed=0, n_starts=1)
        assert corner == [inference._BAD_OBJECTIVE]
        assert fit.params.psi_delta[0] > calibration.PSI_OVERFLOW


class TestModelWithoutTheta:
    """A computer model with an empty parameter box, as behind the field GP."""

    @staticmethod
    def _case():
        x = np.linspace(0, 1, 12)[:, None]
        data = FieldDataset(x, np.sin(6 * x[:, 0]), [[0.0, 1.0]])
        model = ComputerModel(
            evaluator=lambda X, th: np.zeros(np.atleast_2d(X).shape[0]),
            theta_bounds=np.zeros((0, 2)),
            vectorized=True,
        )
        return data, model, DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))

    def test_transform_has_no_theta_coordinates(self):
        data, model, _ = self._case()
        assert ParamTransform(model.theta_bounds, 0, data.p).names == ["psi_1", "sigma2_delta", "eta"]

    def test_mle_fit_searches_ranges_and_nugget_only(self):
        data, model, spec = self._case()
        fit = mle_fit(data, model, spec, n_starts=3)
        assert [s["x"].size for s in fit.per_start] == [data.p + 1] * 3
        assert fit.best_params.theta.size == 0
        res = predict(fit.best_params, data, model, spec, np.linspace(0, 1, 7)[:, None])
        assert np.all(np.isfinite(res.full_mean)) and np.all(res.variance >= 0)

    def test_field_gasp_has_no_theta(self):
        data, _, _ = self._case()
        assert fit_field_gasp(data, n_starts=2).params.theta.size == 0

    def test_an_empty_bounds_list_is_rejected(self):
        with pytest.raises(ValueError, match="^theta_bounds must be"):
            ComputerModel(evaluator=lambda x, th: 0.0, theta_bounds=[])


@pytest.mark.parametrize("value", [2.5, np.float64(3), True])
@pytest.mark.parametrize("fit", ["mle_fit", "emulator_fit", "l2_calibrate"])
def test_multistart_fits_reject_non_integer_n_starts(fit, value):
    data, model = _quadratic_setup()
    spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
    calls = {
        "mle_fit": lambda: mle_fit(data, model, spec, n_starts=value),
        "emulator_fit": lambda: emulator_fit(data.X, data.y, n_starts=value),
        "l2_calibrate": lambda: l2_calibrate(data, model, n_starts=value),
    }
    with pytest.raises(ValueError, match="^n_starts must be an integer"):
        calls[fit]()


class TestSampleChain:
    def test_two_parameter_gaussian_moments(self):
        # detailed-balance smoke test against a known normal target
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        prec = np.linalg.inv(cov)

        def logpost(x):
            d = x - mean
            return -0.5 * d @ prec @ d

        # the loop's score/accept protocol over the plain density; no coordinate is left to draw
        target = SimpleNamespace(score=lambda x, block: logpost(x), accept=lambda: None)
        blocks = {"a": np.array([0]), "b": np.array([1])}
        rng, x0, keep = np.random.default_rng(7), np.zeros(2), lambda x, rng: x
        draws = _sample_chain(target, blocks, keep, x0, logpost(x0), rng, 40_000, 5_000)[0][5_000:]
        for j in range(2):
            col = draws[:, j]
            batches = col.reshape(35, -1).mean(axis=1)
            se = batches.std(ddof=1) / np.sqrt(len(batches))
            assert abs(col.mean() - mean[j]) <= 3 * se
            m2 = col**2
            b2 = m2.reshape(35, -1).mean(axis=1)
            se2 = b2.std(ddof=1) / np.sqrt(len(b2))
            assert abs(m2.mean() - (cov[j, j] + mean[j] ** 2)) <= 3 * se2

    def test_rejects_non_finite_start(self, monkeypatch):
        # mcmc_run scores the start before the loop runs: a log posterior
        # that is -inf everywhere, at a start that can be factored, is a ValueError
        monkeypatch.setattr(_CalibPosterior, "_evaluate", lambda self, z, block: (-np.inf, None))
        data, model = _sine_data()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        with pytest.raises(ValueError):
            mcmc_run(data, model, spec, S=10, burn_in=1)


def _sine_data(n=15, seed=3):
    x = np.linspace(0, 1, n)[:, None]
    rng = np.random.default_rng(seed)
    y = np.sin(10 * np.pi * x[:, 0]) + np.sin(np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    data = FieldDataset(x, y, [[0.0, 1.0]])
    model = ComputerModel(
        evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
        theta_bounds=[[0.0, 40.0]],
        vectorized=True,
    )
    return data, model


class TestMcmcRun:
    def test_bitwise_reproducibility(self):
        data, model = _sine_data()
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        a = mcmc_run(data, model, spec, S=400, burn_in=100, seed=11)
        b = mcmc_run(data, model, spec, S=400, burn_in=100, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_samples_respect_bounds(self):
        data, model = _sine_data()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        chain = mcmc_run(data, model, spec, S=600, burn_in=200, seed=12)
        th = chain.samples[:, 0]
        assert np.all(th >= 0.0) and np.all(th <= 40.0)
        assert np.all(chain.samples[:, 1] > 0)  # psi
        assert np.all(chain.samples[:, 2] > 0)  # sigma2
        assert np.all(chain.samples[:, 3] >= 0)  # eta

    def test_params_at_reads_columns_by_name(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(12, 2))
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] + 0.1 * rng.standard_normal(12)
        data = FieldDataset(X, y, [[0.0, 1.0], [0.0, 1.0]])
        model = ComputerModel(
            evaluator=lambda X, th: th[0] * X[:, 0] + th[1] * X[:, 1],
            theta_bounds=[[0.0, 2.0], [-1.0, 1.0]],
            vectorized=True,
        )
        basis = [lambda Z: np.ones(len(Z))]
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5, 0.5]), mean_basis=basis)
        chain = mcmc_run(data, model, spec, S=60, burn_in=20, seed=3)
        assert chain.param_names == [
            "theta_1", "theta_2", "beta_1", "psi_1", "psi_2", "sigma2_delta", "eta"
        ]
        for i in (0, 37, 59):
            col = dict(zip(chain.param_names, chain.samples[i]))
            params = chain.params_at(i)
            assert np.array_equal(params.theta, [col["theta_1"], col["theta_2"]])
            assert np.array_equal(params.beta_delta, [col["beta_1"]])
            assert np.array_equal(params.psi_delta, [col["psi_1"], col["psi_2"]])
            assert (params.sigma2_delta, params.eta) == (col["sigma2_delta"], col["eta"])

    def test_acceptance_rates_tuned(self):
        data, model = _sine_data(n=20, seed=4)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        chain = mcmc_run(data, model, spec, S=6000, burn_in=2000, seed=13)
        for name, rate in chain.acceptance_rates.items():
            assert 0.1 <= rate <= 0.6, (name, rate)

    def test_conjugate_variance_draws(self):
        # with every Metropolis block frozen, the variance draws are i.i.d.
        # inverse-gamma(n/2, quad/2); compare with the analytic distribution
        data, model = _sine_data(n=12, seed=6)
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        start = initial_params(data, model, spec, eta=0.05)
        chain = mcmc_run(
            data,
            model,
            spec,
            S=5_100,
            burn_in=100,
            seed=14,
            initial=start,
            update_theta=False,
            update_corr=False,
        )
        core = LikelihoodCore(data, model, spec)
        L, _ = core.corr_chol(start.psi_delta, start.eta)
        resid = data.y - core.mean_vector(start.theta, start.beta_delta)
        quad = float(np.sum(solve_triangular(L, resid, lower=True) ** 2))
        draws = chain.post_burn_in()[:, 2]
        ks = stats.kstest(draws, stats.invgamma(a=data.n / 2, scale=quad / 2).cdf)
        assert ks.statistic < 0.05

    def test_exact_variance_and_trend_draws(self):
        # with (theta, psi, eta) fixed and one basis function, sigma2 follows
        # IG((n - 1)/2, Q/2) and beta, with sigma2 integrated out, follows
        # beta_hat + t_(n-1) * sqrt(Q / (n - 1) / M)
        data, model = _sine_data(n=12, seed=6)
        spec = DiscrepancySpec(
            SGASP, KernelSpec("matern52", [0.5]), mean_basis=[lambda X: np.ones(X.shape[0])]
        )
        start = initial_params(data, model, spec, eta=0.05)
        chain = mcmc_run(
            data, model, spec, S=5_100, burn_in=100, seed=15, initial=start,
            update_theta=False, update_corr=False,
        )
        n = data.n
        A = LikelihoodCore(data, model, spec).cov.corr(1.0 / start.psi_delta) + start.eta * np.eye(n)
        H = np.ones((n, 1))
        r = data.y - model.evaluate(data.X, start.theta)
        AinvH = np.linalg.solve(A, H)
        M = (H.T @ AinvH).item()
        beta_hat = (AinvH.T @ r).item() / M
        Q = (r - beta_hat) @ np.linalg.solve(A, r - beta_hat)
        kept = chain.post_burn_in()
        sigma2 = kept[:, chain.param_names.index("sigma2_delta")]
        beta = kept[:, chain.param_names.index("beta_1")]
        assert stats.kstest(sigma2, stats.invgamma(a=(n - 1) / 2, scale=Q / 2).cdf).statistic < 0.05
        t = stats.t(df=n - 1, loc=beta_hat, scale=np.sqrt(Q / (n - 1) / M))
        assert stats.kstest(beta, t.cdf).statistic < 0.05

    def test_theta_marginal_matches_grid_quadrature(self):
        # with psi and eta fixed, theta's median and 95% endpoints match a grid
        # quadrature of the integrated posterior within 3 batch-means MC
        # standard errors
        x = np.linspace(0, 1, 10)[:, None]
        rng = np.random.default_rng(12)
        y = 1.3 * x[:, 0] + 0.2 * np.sin(5 * x[:, 0]) + 0.1 * rng.standard_normal(10)
        data = FieldDataset(x, y, [[0.0, 1.0]])
        model = ComputerModel(lambda X, th: th[0] * X[:, 0], theta_bounds=[[0.0, 3.0]], vectorized=True)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        start = initial_params(data, model, spec, theta=[1.0], eta=0.1)
        chain = mcmc_run(data, model, spec, S=22_000, burn_in=2_000, seed=16, initial=start, update_corr=False)
        theta = chain.post_burn_in()[:, 0]

        A = LikelihoodCore(data, model, spec).cov.corr(1.0 / start.psi_delta) + start.eta * np.eye(10)
        grid = np.linspace(0.0, 3.0, 3001)
        logp = np.array([integrated_log_marginal(A, np.zeros((10, 0)), y - t * x[:, 0]) for t in grid])
        dens = np.exp(logp - logp.max())
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
        probs = [0.025, 0.5, 0.975]
        want = np.interp(probs, cdf / cdf[-1], grid)
        got = np.quantile(theta, probs)
        se = np.quantile(theta.reshape(40, -1), probs, axis=1).std(axis=1, ddof=1) / np.sqrt(40)
        assert np.all(np.abs(got - want) <= 3 * se), (got, want, se)

    @pytest.mark.parametrize("name, value", [("S", 20.5), ("burn_in", 5.0), ("S", "30"), ("S", True)])
    def test_rejects_non_integer_counts(self, name, value):
        data, model = _sine_data()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            mcmc_run(data, model, spec, **{"S": 30, "burn_in": 10, name: value})

    def test_rejects_as_many_basis_functions_as_observations(self):
        # the variance draw IG((n - q)/2, Q/2) needs n > q
        data, model = _sine_data(n=2)
        basis = [lambda X: np.ones(X.shape[0]), lambda X: X[:, 0]]
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]), mean_basis=basis)
        with pytest.raises(ValueError, match="more observations than mean basis functions"):
            mcmc_run(data, model, spec, S=10, burn_in=1)

    def test_rejects_boundary_start(self):
        data, model = _sine_data()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        bad = CalibParams([40.0], [], [2.0], 1.0, 0.01)
        with pytest.raises(ValueError):
            # theta on the bound cannot be mapped to the sampling scale
            mcmc_run(data, model, spec, S=10, burn_in=1, seed=0, initial=bad)

    def test_unfactorable_start_is_a_numerical_error(self):
        # lam = 5e-324 makes the shrinkage c = n / lam infinite, so no start's
        # correlation can be factored: the error says so, not just that the
        # log posterior is not finite there
        data, model = _sine_data()
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]), lam=5e-324)
        with pytest.raises(NumericalError, match="not finite"):
            mcmc_run(data, model, spec, S=10, burn_in=1)

    def test_start_outside_the_prior_support_stays_a_value_error(self):
        data, model = _sine_data()
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        prior = PriorSpec.default(data, theta_log_prior=lambda theta: -np.inf)
        with pytest.raises(ValueError, match="not finite at the initial point"):
            mcmc_run(data, model, spec, prior, S=10, burn_in=1)


_WRONG_LENGTHS = {
    "theta_long": ("theta", [3.0, 4.0]),
    "beta_missing": ("beta_delta", []),
    "beta_long": ("beta_delta", [0.0, 1.0]),
    "psi_long": ("psi_delta", [2.0, 1.0]),
    "psi_missing": ("psi_delta", []),
}


@pytest.mark.parametrize("call", ["mcmc_run", "marginal_loglik", "predict"])
@pytest.mark.parametrize("case", sorted(_WRONG_LENGTHS))
def test_parameter_blocks_of_the_wrong_length_are_rejected(case, call):
    # one-dimensional data, one calibration parameter, an intercept basis
    x = np.linspace(0, 1, 8)[:, None]
    data = FieldDataset(x, np.sin(10 * x[:, 0]), [[0.0, 1.0]])
    model = builtin_model("sine_theta_x")
    spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]), mean_basis=[lambda X: np.ones(X.shape[0])])
    name, value = _WRONG_LENGTHS[case]
    good = dict(theta=[3.0], beta_delta=[0.0], psi_delta=[2.0], sigma2_delta=1.0, eta=0.1)
    bad = CalibParams(**{**good, name: value})
    run = {
        "mcmc_run": lambda: mcmc_run(data, model, spec, S=10, burn_in=1, initial=bad),
        "marginal_loglik": lambda: marginal_loglik(bad, data, model, spec),
        "predict": lambda: predict(bad, data, model, spec, x[:3]),
    }[call]
    with pytest.raises(ValueError, match=f"^{name} has length {len(value)}, expected 1$"):
        run()


@pytest.mark.parametrize("call", ["mcmc_run", "mle_fit", "marginal_loglik", "predict", "emulator_fit"])
def test_a_rank_deficient_mean_basis_is_rejected(call):
    # with the basis [1, 1] only beta_1 + beta_2 is identified, so the GLS
    # fit and the sampler's beta draws would wander along (1, -1)
    data, model = _sine_data(n=10)
    one = lambda X: np.ones(X.shape[0])
    spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]), mean_basis=[one, one])
    params = CalibParams([3.0], [0.0, 0.0], [2.0], 1.0, 0.1)
    run = {
        "mcmc_run": lambda: mcmc_run(data, model, spec, S=200, burn_in=50),
        "mle_fit": lambda: mle_fit(data, model, spec, n_starts=1),
        "marginal_loglik": lambda: marginal_loglik(params, data, model, spec),
        "predict": lambda: predict(params, data, model, spec, data.X[:3]),
        "emulator_fit": lambda: emulator_fit(data.X, data.y, mean_basis=[one, one], n_starts=1),
    }[call]
    with pytest.raises(ValueError, match="^mean basis is rank deficient on the design$"):
        run()


def test_an_intercept_basis_still_fits():
    data, model = _sine_data(n=10)
    spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]), mean_basis=[lambda X: np.ones(X.shape[0])])
    chain = mcmc_run(data, model, spec, S=200, burn_in=50)
    best = mle_fit(data, model, spec, n_starts=2).best_params
    assert np.all(np.isfinite(chain.samples)) and best.beta_delta.size == 1
    assert np.isfinite(marginal_loglik(best, data, model, spec))
    assert np.all(np.isfinite(predict(best, data, model, spec, data.X[:3]).full_mean))


def _posterior_case(mode, theta_log_prior=lambda th: -0.5 * ((th[0] - 20.0) / 8.0) ** 2, n_basis=2):
    """Posterior with the first ``n_basis`` of (1, x) as the mean basis and a
    Gaussian theta prior."""
    x = np.linspace(0, 1, 12)[:, None]
    rng = np.random.default_rng(8)
    data = FieldDataset(x, np.sin(10 * x[:, 0]) + 0.3 * rng.standard_normal(12), [[0.0, 1.0]])
    model = builtin_model("sine_theta_x")
    basis = [lambda X: np.ones(X.shape[0]), lambda X: X[:, 0]][:n_basis]
    spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]), mean_basis=basis, quad_points=60)
    prior = PriorSpec.default(data, theta_log_prior=theta_log_prior)
    tr = ParamTransform(model.theta_bounds, spec.n_basis, data.p)
    return data, model, spec, prior, tr, _CalibPosterior(LikelihoodCore(data, model, spec), prior, tr)


def _random_z(rng, n_basis=2):
    # layout: logit theta, beta, log psi, log sigma2, log(eta + floor)
    return np.concatenate(
        [
            rng.normal(0.0, 1.5, 1),
            rng.normal(0.0, 1.0, n_basis),
            rng.uniform(np.log(0.5), np.log(20.0), 1),
            rng.normal(0.0, 1.0, 1),
            rng.uniform(np.log(1e-4), 0.0, 1),
        ]
    )


class TestCalibPosterior:
    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_raw_vector_matches_assembled_posterior(self, mode):
        # the score is the log prior and log-Jacobian (whose log sigma2 terms
        # cancel) plus the dense integrated likelihood, whatever beta and
        # sigma2 the vector holds
        data, model, spec, prior, tr, post = _posterior_case(mode, n_basis=1)
        core = LikelihoodCore(data, model, spec)
        H = basis_matrix(data.X, spec.mean_basis)
        rng = np.random.default_rng(21)
        for _ in range(50):
            z = _random_z(rng, n_basis=1)
            params = tr.from_vector(z)
            A = core.cov.corr(1.0 / params.psi_delta, params.theta) + params.eta * np.eye(data.n)
            want = (
                log_prior(params, prior, model.theta_bounds)
                + transform_log_jacobian(tr, z)
                + integrated_log_marginal(A, H, data.y - model.evaluate(data.X, params.theta))
            )
            got = post(z)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)
            assert post(z) == got  # cached factor and model values give the same value

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_score_differences_match_joint_target_integrated_over_log_variance(self, mode):
        # with no mean basis, the score is log of the integral of the joint
        # target (log prior + log-Jacobian + Gaussian log-likelihood) over
        # log sigma2, up to a constant that cancels between points
        data, model, spec, prior, tr, post = _posterior_case(mode, n_basis=0)
        core = LikelihoodCore(data, model, spec)

        def log_integral(z):
            def joint(s):
                w = z.copy()
                w[tr.sigma2_index] = s
                params = tr.from_vector(w)
                lj = transform_log_jacobian(tr, w)
                return log_prior(params, prior, model.theta_bounds) + lj + core.loglik(params)

            peak = minimize_scalar(lambda s: -joint(s)).x
            top = joint(peak)
            area, _ = quad(
                lambda s: np.exp(joint(s) - top), peak - 40, peak + 40,
                points=[peak], epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return top + np.log(area)

        rng = np.random.default_rng(22)
        zs = [_random_z(rng, n_basis=0) for _ in range(8)]
        got = np.array([post(z) for z in zs])
        want = np.array([log_integral(z) for z in zs])
        np.testing.assert_allclose(got[1:] - got[0], want[1:] - want[0], rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_closed_form_gibbs_matches_full_evaluation(self, mode, monkeypatch):
        # the exact variance and trend draw moves only the sigma2 and beta
        # coordinates, which the log posterior does not read: the value the
        # sampler keeps across the draw equals a full evaluation after it
        data, model, spec, prior, tr, _ = _posterior_case(mode)
        drawn = np.r_[tr.beta_slice, tr.sigma2_index]
        draws = []
        sample_chain = inference._sample_chain

        def checking_chain(posterior, blocks, draw, *args):
            def checked(x, rng):
                new = draw(x, rng)
                draws.append((posterior(x), posterior(new), np.delete(x, drawn), np.delete(new, drawn)))
                return new

            return sample_chain(posterior, blocks, checked, *args)

        monkeypatch.setattr(inference, "_sample_chain", checking_chain)
        chain = mcmc_run(data, model, spec, prior, S=150, burn_in=50, seed=5)
        assert len(draws) == 150
        for before, after, kept_before, kept_after in draws:
            assert np.isfinite(before) and after == before
            assert np.array_equal(kept_after, kept_before)
        assert np.unique(chain.samples[:, tr.sigma2_index]).size == 150

    @pytest.mark.parametrize(
        "coord, value",
        [
            (0, np.nan),  # non-finite vector
            (1, np.inf),
            (3, 800.0),  # psi overflows
            (3, -800.0),  # psi underflows to 0
            (5, 800.0),  # eta overflows
        ],
    )
    def test_bad_coordinates_score_minus_inf(self, coord, value):
        *_, post = _posterior_case(GASP)
        z = _random_z(np.random.default_rng(2))
        z[coord] = value
        # called outside the errstate that mcmc_run and mle_fit set, exp(800) warns
        overflow = value == 800.0
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp") if overflow else nullcontext():
            assert post(z) == -np.inf

    def test_jointly_robust_sum_at_zero_scores_minus_inf(self):
        *_, post = _posterior_case(GASP)
        z = _random_z(np.random.default_rng(2))
        z[3], z[5] = -745.0, -40.0  # C psi underflows to 0 and eta = 0
        assert post(z) == -np.inf

    def test_non_finite_theta_prior_scores_minus_inf(self):
        *_, post = _posterior_case(GASP, theta_log_prior=lambda th: -np.inf)
        assert post(_random_z(np.random.default_rng(2))) == -np.inf

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_non_finite_correlation_scores_minus_inf(self, mode, monkeypatch):
        *_, post = _posterior_case(mode)
        z = _random_z(np.random.default_rng(2))
        K = np.eye(12)
        K[0, 5] = K[5, 0] = np.nan  # finite diagonal, NaN correlation
        monkeypatch.setattr(discrepancy._ModeCov, "corr", lambda self, gamma, theta=None: K)
        assert post(z) == -np.inf

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_huge_inverse_range_does_not_crash(self, mode):
        # log psi = 702 made the Matern correlation NaN (inf * 0), and the
        # chain died in the Cholesky factorization
        *_, post = _posterior_case(mode)
        z = _random_z(np.random.default_rng(2))
        sane = post(z)
        z[3] = 702.0
        assert post(z) < sane - 1e100

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_tiny_inverse_range_scores_minus_inf(self, mode):
        # log psi = -720: psi is positive, but the range 1/psi overflows to inf
        # and used to stop the chain with a ValueError
        *_, post = _posterior_case(mode)
        z = _random_z(np.random.default_rng(2))
        z[3] = -720.0
        assert post(z) == -np.inf
        z[3] = -700.0  # the range is finite here
        assert np.isfinite(post(z))

    def test_mcmc_scores_two_blocks_per_iteration(self, monkeypatch):
        calls = []
        score = _CalibPosterior.score
        monkeypatch.setattr(
            _CalibPosterior, "score", lambda self, z, block: calls.append(block) or score(self, z, block)
        )
        data, model = _sine_data()
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        mcmc_run(data, model, spec, S=60, burn_in=20, seed=1)
        assert len(calls) == 2 * 60 + 1  # theta and corr blocks, plus the start
        assert calls[:3] == [None, "theta", "corr"]

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_block_scores_equal_full_scores(self, mode):
        # random block moves, some taken and some not, with log sigma2 and
        # beta moved in between as the exact draw does: every score equals a
        # fresh full evaluation, and the carried GLS fit a fresh one, bit for bit
        data, model, spec, prior, tr, post = _posterior_case(mode)
        blocks = [
            ("theta", np.r_[tr.theta_slice]),
            ("corr", np.r_[tr.psi_slice, tr.eta_index]),
        ]
        rng = np.random.default_rng(31)
        z = tr.to_vector(initial_params(data, model, spec))
        assert post.score(z, None) == post(z)
        post.accept()
        taken = 0
        for _ in range(90):
            name, idx = blocks[rng.integers(2)]
            prop = z.copy()
            prop[idx] += 0.4 * rng.standard_normal(idx.size)
            got = post.score(prop, name)
            assert np.isfinite(got) and got == post(prop), name
            if rng.random() < 0.5:
                post.accept()
                z, taken = prop, taken + 1
            if rng.random() < 0.3:
                z = z.copy()
                z[tr.sigma2_index] += rng.normal()
                z[tr.beta_slice] += rng.normal(size=tr.n_basis)
            for got_field, want_field in zip(post.gls, post._evaluate(z, None)[1][2]):
                assert np.array_equal(got_field, want_field)
        assert 20 < taken < 70

    @pytest.mark.parametrize("mode", [GASP, SGASP, OGASP])
    def test_model_and_factor_work_per_proposal(self, mode, monkeypatch):
        # the model runs once per theta proposal, never for a correlation
        # move or the exact draw; the correlation is factored once per
        # correlation proposal, and per theta proposal too where it depends
        # on theta
        calls = {"evaluate": 0, "corr_chol": 0}
        for cls, name in ((ComputerModel, "evaluate"), (LikelihoodCore, "corr_chol")):
            def counting(self, *args, _f=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _f(self, *args)

            monkeypatch.setattr(cls, name, counting)
        data, model, spec, prior, *_ = _posterior_case(mode)
        S = 120
        mcmc_run(data, model, spec, prior, S=S, burn_in=40, seed=4)
        assert calls["evaluate"] == 1 + 1 + S  # initial_params, the start, theta moves
        assert calls["corr_chol"] == 1 + S + (S if mode == OGASP else 0)

    @pytest.mark.parametrize(
        "mode, sums, last, rates",
        [
            (
                GASP,
                [1043.2041970376733, -54.29020297002654, 64.72050244672491,
                 509.0184453616658, 327.35344499798435, 69.90694312242947],
                [9.968222727478008, -0.5026859903426149, 0.8530856056471101,
                 19.050270029204622, 0.033216431649531336, 0.9379239919164342],
                [0.05, 0.5],
            ),
            (
                SGASP,
                [1047.7000913564373, -56.237060115214376, 87.28342573691543,
                 708.8242969400221, 301.46654404418575, 67.63007292540301],
                [10.02122778925, -0.5141946841286456, 0.8836086127872406,
                 16.621517738523206, 0.028464794486210643, 1.3940450586403617],
                [0.05, 0.43333333333333335],
            ),
            (
                OGASP,
                [1059.041573843883, -60.16114167042805, 85.94780450531522,
                 565.9763809943267, 362.0124147085705, 73.73559855821127],
                [10.281812962729283, -0.5179488726647127, 1.0195162534557696,
                 0.9551770732278512, 0.13838542649131164, 0.3609313872435058],
                [0.06666666666666667, 0.3],
            ),
        ],
    )
    def test_golden_chain(self, mode, sums, last, rates):
        # a fixed-seed 100-iteration chain through both blocks and the exact
        # variance and trend draw: a change to the sampler's arithmetic or to
        # the order of its random draws shows here
        data, model, spec, prior, *_ = _posterior_case(mode)
        chain = mcmc_run(data, model, spec, prior, S=100, burn_in=40, seed=9)
        np.testing.assert_allclose(chain.samples.sum(axis=0), sums, rtol=1e-9)
        np.testing.assert_allclose(chain.samples[-1], last, rtol=1e-9)
        got = [chain.acceptance_rates[name] for name in ("theta", "corr")]
        np.testing.assert_allclose(got, rates, rtol=1e-9)


def _chain_from(samples, burn_in=0):
    samples = np.asarray(samples, dtype=float)
    return PosteriorChain(
        samples=samples,
        burn_in=burn_in,
        acceptance_rates={},
        param_names=["theta_1", "psi_1", "sigma2_delta", "eta"][: samples.shape[1]],
        theta_bounds=np.array([[0.0, 40.0]]),
        n_basis=0,
        p_x=1,
    )


class TestPosteriorSummary:
    def test_constant_chain(self):
        chain = _chain_from(np.tile([3.0, 1.0, 1.0, 0.1], (200, 1)))
        summ = posterior_summary(chain)
        assert summ["theta_1"]["median"] == 3.0
        assert summ["theta_1"]["mean"] == 3.0
        assert summ["theta_1"]["upper95"] - summ["theta_1"]["lower95"] == 0.0

    def test_standard_normal_chain(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal(10_000)
        samples = np.column_stack([z, np.ones_like(z), np.ones_like(z), np.zeros_like(z)])
        summ = posterior_summary(_chain_from(samples))
        assert abs(summ["theta_1"]["median"]) <= 0.05
        assert abs(summ["theta_1"]["lower95"] + 1.96) <= 0.1
        assert abs(summ["theta_1"]["upper95"] - 1.96) <= 0.1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(16)
        samples = np.column_stack(
            [rng.normal(size=500), np.ones(500), np.ones(500), np.zeros(500)]
        )
        a = posterior_summary(_chain_from(samples))
        b = posterior_summary(_chain_from(samples[rng.permutation(500)]))
        for name in a:
            for key in a[name]:
                assert a[name][key] == pytest.approx(b[name][key], rel=1e-12, abs=1e-12)

    def test_insufficient_samples(self):
        chain = _chain_from(np.tile([1.0, 1.0, 1.0, 0.0], (50, 1)))
        with pytest.raises(ValueError):
            posterior_summary(chain)


class TestPosteriorChainLayout:
    NAMES = ["theta_1", "psi_1", "sigma2_delta", "eta"]

    def _chain(self, width, n_basis=0, names=NAMES):
        return PosteriorChain(
            samples=np.tile([0.5, 1.0, 1.0, 0.1, 2.0][:width], (3, 1)),
            burn_in=0,
            acceptance_rates={},
            param_names=names,
            theta_bounds=np.array([[0.0, 1.0]]),
            n_basis=n_basis,
            p_x=1,
        )

    def test_rejects_a_column_the_layout_has_no_name_for(self):
        # a fifth column would be dropped silently by posterior_summary
        with pytest.raises(ValueError, match=r"^a chain of 5 columns .* lay out 4 columns"):
            self._chain(5)

    def test_rejects_a_chain_narrower_than_its_layout(self):
        # one trend coefficient needs a fifth column, which params_at would index past
        with pytest.raises(ValueError, match=r"lay out 5 columns named \['theta_1', 'beta_1', 'psi_1'"):
            self._chain(4, n_basis=1)

    def test_rejects_names_out_of_layout_order(self):
        with pytest.raises(ValueError, match="^a chain of 4 columns"):
            self._chain(4, names=["psi_1", "theta_1", "sigma2_delta", "eta"])


class TestPredictPosterior:
    def test_single_sample_matches_plugin(self):
        data, model = _sine_data(n=10, seed=8)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        params = CalibParams([31.0], [], [2.0], 1.0, 0.05)
        row = np.concatenate([params.theta, params.psi_delta, [params.sigma2_delta], [params.eta]])
        chain = _chain_from(row[None, :])
        Xs = np.linspace(0, 1, 9)[:, None]
        got = predict_posterior(chain, data, model, spec, Xs, thin=1)
        want = predict(params, data, model, spec, Xs)
        np.testing.assert_allclose(got.model_mean, want.model_mean, rtol=1e-12)
        np.testing.assert_allclose(got.full_mean, want.full_mean, rtol=1e-12)
        np.testing.assert_allclose(got.variance, want.variance, rtol=1e-12)

    @pytest.mark.parametrize(
        "mode, points, kinds",
        [(GASP, None, 1), (SGASP, None, 1), (SGASP, [[0.1], [0.5], [0.9]], 2), (OGASP, None, 2)],
    )
    def test_distances_to_inputs_formed_once_per_call(self, monkeypatch, mode, points, kinds):
        # the design to Xstar, and for ogasp Xstar to the grid or for explicit
        # constraint points those to Xstar: once per call, not per sample
        data, model = _sine_data(n=10, seed=4)
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]), constraint_points=points, quad_points=50)
        chain = _chain_from([[30.0 + i, 1.5 + 0.2 * i, 1.0, 0.05] for i in range(4)])
        Xs = np.linspace(0.03, 0.97, 11)[:, None]
        calls = []
        dists = discrepancy._distances

        def counting(A, B):
            calls.extend(1 for M in (A, B) if M.shape == Xs.shape and np.array_equal(M, Xs))
            return dists(A, B)

        monkeypatch.setattr(discrepancy, "_distances", counting)
        predict_posterior(chain, data, model, spec, Xs, thin=1)
        assert len(calls) == kinds

    @pytest.mark.parametrize(
        "mode, points", [(GASP, None), (SGASP, None), (SGASP, [[0.1], [0.5], [0.9]]), (OGASP, None)]
    )
    def test_streamed_averages_match_stacked_formula(self, mode, points):
        data, model = _sine_data(n=10, seed=5)
        spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]), constraint_points=points, quad_points=50)
        chain = mcmc_run(data, model, spec, S=200, burn_in=100, seed=7)
        Xs = np.linspace(0.02, 0.98, 23)[:, None]
        got = predict_posterior(chain, data, model, spec, Xs, thin=3)
        each = [predict(chain.params_at(i), data, model, spec, Xs) for i in range(100, 200, 3)]
        model_means, full_means, variances = (
            np.stack([getattr(r, f) for r in each]) for f in ("model_mean", "full_mean", "variance")
        )
        np.testing.assert_allclose(got.model_mean, model_means.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(got.full_mean, full_means.mean(axis=0), rtol=1e-12)
        want = variances.mean(axis=0) + full_means.var(axis=0)
        np.testing.assert_allclose(got.variance, want, rtol=1e-12)
        empty = predict_posterior(chain, data, model, spec, np.zeros((0, 1)), thin=50)
        assert empty.model_mean.shape == empty.full_mean.shape == empty.variance.shape == (0,)

    def test_builds_no_parameter_record_per_sample(self, monkeypatch):
        calls = []
        post_init = CalibParams.__post_init__
        monkeypatch.setattr(CalibParams, "__post_init__", lambda self: calls.append(1) or post_init(self))
        data, model = _sine_data(n=10, seed=8)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        chain = _chain_from([[30.0 + i, 1.5 + 0.2 * i, 1.0, 0.05] for i in range(6)])
        predict_posterior(chain, data, model, spec, np.linspace(0, 1, 7)[:, None], thin=1)
        assert calls == []

    @staticmethod
    def _predict_nothing(monkeypatch, chain):
        calls = []
        monkeypatch.setattr(inference, "_predict", lambda *args: calls.append(1))
        data, model = _sine_data(n=10, seed=8)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        with pytest.raises(ValueError) as err:
            predict_posterior(chain, data, model, spec, [[0.4]], thin=2)
        assert calls == []
        return str(err.value)

    def test_rejects_a_bad_row_before_predicting(self, monkeypatch):
        rows = np.tile([31.0, 2.0, 1.0, 0.05], (6, 1))
        rows[4, 2] = np.nan  # thin=2 reads rows 1, 3 and 5, counted from 1
        message = self._predict_nothing(monkeypatch, _chain_from(rows))
        assert message.startswith("parameter row 5 must be finite")

    def test_rejects_a_chain_of_another_width_before_predicting(self, monkeypatch):
        chain = _chain_from(np.tile([31.0, 2.0, 1.0, 0.05], (6, 1)))
        chain.samples = np.column_stack([chain.samples, np.ones(6)])
        assert "in rows of 5 values" in self._predict_nothing(monkeypatch, chain)

    def test_rejects_non_integer_thin(self):
        data, model = _sine_data(n=10, seed=8)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        chain = _chain_from(np.tile([31.0, 2.0, 1.0, 0.05], (4, 1)))
        with pytest.raises(ValueError, match="^thin must be an integer"):
            predict_posterior(chain, data, model, spec, [[0.4]], thin=2.5)
        with pytest.raises(ValueError, match="^thin must be an integer"):
            predict_posterior(chain, data, model, spec, [[0.4]], thin=True)

    def test_two_equal_samples_match_single(self):
        data, model = _sine_data(n=10, seed=9)
        spec = DiscrepancySpec(GASP, KernelSpec("matern52", [0.5]))
        row = np.array([31.0, 2.0, 1.0, 0.05])
        one = predict_posterior(_chain_from(row[None, :]), data, model, spec, [[0.4]], thin=1)
        two = predict_posterior(
            _chain_from(np.tile(row, (2, 1))), data, model, spec, [[0.4]], thin=1
        )
        np.testing.assert_allclose(one.full_mean, two.full_mean, rtol=1e-12)
        np.testing.assert_allclose(one.variance, two.variance, rtol=1e-12)
