"""Covariance-transform checks: shrinkage identities, orthogonality, gradients."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dpotrs

from gpcalib.calibration import CalibParams, ComputerModel, FieldDataset, LikelihoodCore, marginal_loglik
from gpcalib.discrepancy import (
    OGASP,
    DiscrepancySpec,
    SGASP,
    _grid_corr_apply,
    model_grad_fd,
    ogasp_kernel,
    scaled_cov,
    scaled_cross_cov,
)
from gpcalib import discrepancy
from gpcalib.emulator import emulator_fit, emulator_predict_scaled
from gpcalib.kernels import KernelSpec, _corr_1d, _product_corr, corr_matrix
from gpcalib.linalg import NumericalError
from oracles import gp_condition, scaled_cov_three_kernels


def _sgasp_spec(p=1, gamma=0.5, XC=None, lam=None):
    return DiscrepancySpec(
        SGASP, KernelSpec("matern52", [gamma] * p), constraint_points=XC, lam=lam
    )


class TestScaledCov:
    def test_vanishing_scaling_recovers_base(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 1))
        spec = _sgasp_spec(lam=1e-10)
        R = corr_matrix(X, X, spec.kernel)
        Rz = scaled_cov(X, spec)
        assert np.max(np.abs(Rz - R)) <= 1e-8

    def test_full_shrinkage_at_large_scaling(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(10, 1))
        spec = _sgasp_spec(lam=1e12)
        Rz = scaled_cov(X, spec)
        assert np.max(np.abs(Rz)) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_noisy_conditioning_equivalence(self, seed):
        # oracle: posterior covariance of a zero-mean GP observed at the
        # constraint points with i.i.d. noise variance N_C / lambda
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        p = int(rng.integers(1, 4))
        X = rng.uniform(size=(n, p))
        NC = int(rng.integers(4, 15))
        XC = rng.uniform(size=(NC, p))
        lam = float(rng.uniform(0.5, 2 * n))
        spec = _sgasp_spec(p=p, gamma=0.6, XC=XC, lam=lam)
        Rz = scaled_cov(X, spec)
        RC = corr_matrix(XC, XC, spec.kernel)
        rC = corr_matrix(XC, X, spec.kernel)
        prior = corr_matrix(X, X, spec.kernel)
        _, oracle = gp_condition(RC, rC, prior, np.zeros(NC), nugget=NC / lam)
        np.testing.assert_allclose(Rz, oracle, atol=1e-10)

    def test_shrinks_prior_variance(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(15, 2))
        spec = _sgasp_spec(p=2)
        Rz = scaled_cov(X, spec)
        assert np.all(np.diag(Rz) <= 1.0 + 1e-12)

    def test_trace_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(16, 1))
        n = X.shape[0]
        traces = []
        for lam in (n / 8, n / 4, n / 2, n, 2 * n):
            traces.append(np.trace(scaled_cov(X, _sgasp_spec(lam=lam))))
        assert np.all(np.diff(traces) < 0)

    def test_default_constraints_and_scaling(self):
        # the default constraint set is the design and the default lambda n / 2
        X = np.linspace(0, 1, 9)[:, None]
        np.testing.assert_allclose(
            scaled_cov(X, _sgasp_spec()), scaled_cov(X, _sgasp_spec(XC=X, lam=4.5)), rtol=0, atol=1e-12
        )

    def test_constraint_points_outside_the_domain(self):
        X = np.linspace(0, 1, 6)[:, None]
        data = FieldDataset(X, np.sin(X[:, 0]), [[0.0, 1.0]])
        model = ComputerModel(lambda Z, th: th[0] * Z[:, 0], theta_bounds=[[0.0, 2.0]], vectorized=True)
        spec = _sgasp_spec(XC=[[0.5], [1.5]])
        params = CalibParams([1.0], [], [2.0], 1.0, 0.01)
        with pytest.raises(ValueError, match="constraint points must lie inside the domain"):
            marginal_loglik(params, data, model, spec)
        assert scaled_cov(X, spec).shape == (6, 6)  # no domain, no check

    def test_mode_guard(self):
        spec = DiscrepancySpec("gasp", KernelSpec("matern52", [1.0]))
        with pytest.raises(ValueError):
            scaled_cov(np.zeros((3, 1)), spec)

    @pytest.mark.parametrize("lam_per_n", [1 / 8, 1 / 2, 2.0, 1e-8])
    @pytest.mark.parametrize("p", [1, 2])
    def test_default_constraints_match_three_kernel_formula(self, lam_per_n, p):
        rng = np.random.default_rng(p)
        X = rng.uniform(size=(20, p))
        kern = KernelSpec("matern52", rng.uniform(0.2, 0.8, size=p))
        lam = lam_per_n * X.shape[0]
        Rz = scaled_cov(X, DiscrepancySpec(SGASP, kern, lam=lam))
        np.testing.assert_allclose(Rz, scaled_cov_three_kernels(X, kern, lam), rtol=0, atol=1e-12)
        assert np.array_equal(Rz, Rz.T)

    def test_default_constraints_build_one_kernel_matrix(self, monkeypatch):
        calls = []
        corr = discrepancy._product_corr
        monkeypatch.setattr(discrepancy, "_product_corr", lambda *a: calls.append(1) or corr(*a))
        scaled_cov(np.linspace(0, 1, 9)[:, None], _sgasp_spec())
        assert len(calls) == 1


class TestScaledCrossCov:
    def test_vanishing_scaling_recovers_cross(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(10, 1))
        Xs = rng.uniform(size=(4, 1))
        spec = _sgasp_spec(lam=1e-10)
        r_z, _ = scaled_cross_cov(X, Xs, spec)
        np.testing.assert_allclose(r_z, corr_matrix(X, Xs, spec.kernel), atol=1e-8)

    def test_consistency_with_cov_at_training_point(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(8, 1))
        spec = _sgasp_spec()  # constraints default to X
        Rz = scaled_cov(X, spec)
        r_z, c_z = scaled_cross_cov(X, X[2:3], spec)
        np.testing.assert_allclose(r_z[:, 0], Rz[:, 2], atol=1e-10)
        assert np.isclose(c_z[0], Rz[2, 2], atol=1e-10)

    def test_block_extraction_oracle(self):
        # assemble the transformed covariance of (train, new) jointly via the
        # noisy-conditioning oracle and read off blocks
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(8, 1))
        Xs = rng.uniform(size=(3, 1))
        spec = _sgasp_spec(XC=X.copy(), lam=4.0)
        joint = np.vstack([X, Xs])
        XC, lam = spec.constraint_points, spec.lam
        RC = corr_matrix(XC, XC, spec.kernel)
        rC = corr_matrix(XC, joint, spec.kernel)
        prior = corr_matrix(joint, joint, spec.kernel)
        _, joint_cov = gp_condition(RC, rC, prior, np.zeros(len(XC)), nugget=len(XC) / lam)
        r_z, c_z = scaled_cross_cov(X, Xs, spec)
        np.testing.assert_allclose(r_z, joint_cov[:8, 8:], atol=1e-10)
        np.testing.assert_allclose(c_z, np.diag(joint_cov[8:, 8:]), atol=1e-10)


    def test_default_constraints_build_two_kernel_matrices(self, monkeypatch):
        calls = []
        corr = discrepancy._product_corr
        monkeypatch.setattr(discrepancy, "_product_corr", lambda *a: calls.append(1) or corr(*a))
        scaled_cross_cov(np.linspace(0, 1, 9)[:, None], np.array([[0.33], [0.71]]), _sgasp_spec())
        assert len(calls) == 2

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("lam_per_n", [1 / 8, 1 / 2, 2.0])
    def test_default_constraints_match_explicit_design(self, p, lam_per_n):
        # the identity path against the general constraint-point formula
        rng = np.random.default_rng(int(40 + 10 * p + 8 * lam_per_n))
        X = rng.uniform(size=(11, p))
        Xs = rng.uniform(size=(7, p))
        kern = KernelSpec("matern52", rng.uniform(0.2, 0.8, size=p))
        lam = lam_per_n * X.shape[0]
        r_z, c_z = scaled_cross_cov(X, Xs, DiscrepancySpec(SGASP, kern, lam=lam))
        r_ref, c_ref = scaled_cross_cov(
            X, Xs, DiscrepancySpec(SGASP, kern, constraint_points=X, lam=lam)
        )
        np.testing.assert_allclose(r_z, r_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_z, c_ref, rtol=0, atol=1e-12)


_K2 = KernelSpec("matern52", [0.4, 0.6])


def _grad_xy(Z):
    return np.column_stack([Z[:, 0], Z[:, 1] ** 2])


def _ogasp_cross(X, Xs, kern, grad, domain, quad_points):
    """``(r, c0)`` of the orthogonal process at a fixed gradient, from its one builder."""
    spec = DiscrepancySpec(OGASP, kern, quad_points=quad_points)
    return discrepancy._ModeCov(spec, X, domain, lambda theta: grad).cross(kern.ranges, (), Xs)


def _emulator_scaled(X, Xs):
    em = emulator_fit(X, np.sin(3 * X[:, 0]) * X[:, 1], ranges=[0.4, 0.6])
    return emulator_predict_scaled(em, Xs)


_DOMAIN2 = [[0.0, 1.0], [0.0, 1.0]]

#: each public entry point of the mode covariance builder, and the ogasp
#: cross-covariance that only ``_ModeCov.cross`` builds, as (name, call on a
#: design X and new points Xs, the point sets that reach it); the emulator
#: words the error as ``emulator_predict`` does
_BUILDERS = [
    ("scaled_cov", lambda X, Xs: scaled_cov(X, DiscrepancySpec(SGASP, _K2)), ["X"]),
    ("scaled_cross_cov", lambda X, Xs: scaled_cross_cov(X, Xs, DiscrepancySpec(SGASP, _K2)), ["X", "Xs"]),
    (
        "scaled_cross_cov_points",
        lambda X, Xs: scaled_cross_cov(X, Xs, DiscrepancySpec(SGASP, _K2, constraint_points=[[0.2, 0.3]])),
        ["X", "Xs"],
    ),
    ("ogasp_kernel_same", lambda X, Xs: ogasp_kernel(X, X, _K2, _grad_xy, _DOMAIN2, 8), ["X"]),
    ("ogasp_kernel", lambda X, Xs: ogasp_kernel(X, Xs, _K2, _grad_xy, _DOMAIN2, 8), ["X", "Xs"]),
    ("ogasp_cross_cov", lambda X, Xs: _ogasp_cross(X, Xs, _K2, _grad_xy, _DOMAIN2, 8), ["X", "Xs"]),
    ("emulator_predict_scaled", _emulator_scaled, ["Xs"]),
]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize(
    "name, build, where",
    [(name, build, where) for name, build, wheres in _BUILDERS for where in wheres],
    ids=[f"{name}-{where}" for name, _, wheres in _BUILDERS for where in wheres],
)
def test_builders_reject_points_of_another_width(name, build, where, width):
    # the per-axis distances would silently drop extra columns of the second set
    rng = np.random.default_rng(50)
    points = {"X": rng.uniform(size=(6, 2)), "Xs": rng.uniform(size=(3, 2))}
    build(points["X"], points["Xs"])
    points[where] = rng.uniform(size=(points[where].shape[0], width))
    match = "do not match the design dimension" if name.startswith("emulator") else "columns"
    with pytest.raises(ValueError, match=match):
        build(points["X"], points["Xs"])


def _toy_model(kind="linear"):
    if kind == "linear":
        return ComputerModel(
            evaluator=lambda X, th: th[0] * np.atleast_2d(X)[:, 0],
            theta_bounds=[[-5.0, 5.0]],
            vectorized=True,
        )
    return ComputerModel(
        evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
        theta_bounds=[[-5.0, 5.0]],
        vectorized=True,
    )


class TestModelGradFd:
    def test_linear_model_gradient_is_x(self):
        grad = model_grad_fd(_toy_model("linear"), [2.0], step=1e-4)
        X = np.linspace(0, 1, 5)[:, None]
        np.testing.assert_allclose(grad(X)[:, 0], X[:, 0], atol=1e-9)

    def test_sine_gradient_scalar(self):
        grad = model_grad_fd(_toy_model("sine"), [1.0], step=1e-4)
        val = grad(np.array([[1.0]]))[0, 0]
        assert np.isclose(val, np.cos(1.0), atol=1e-6)

    def test_step_sweep_converges(self):
        errors = []
        for step in (1e-3, 1e-4, 1e-5):
            grad = model_grad_fd(_toy_model("sine"), [1.0], step=step)
            errors.append(abs(grad(np.array([[1.0]]))[0, 0] - np.cos(1.0)))
        assert errors[0] > errors[1]
        assert errors[2] < 1e-6

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError):
            model_grad_fd(_toy_model("linear"), [5.0 + 1e-3], step=1e-4)
        with pytest.raises(ValueError):
            model_grad_fd(_toy_model("linear"), [0.0], step=20.0)

    @pytest.mark.parametrize("theta", [-5.0, -5.0 + 5e-5, 5.0 - 5e-5, 5.0])
    def test_one_sided_at_box_edge(self, theta):
        # within step of an edge the difference is one-sided, so its error is
        # O(step): here step/2 * max |x^2 sin(theta x)| <= step/2
        step = 1e-4
        grad = model_grad_fd(_toy_model("sine"), [theta], step=step)
        X = np.linspace(0, 1, 7)[:, None]
        exact = X[:, 0] * np.cos(theta * X[:, 0])
        assert np.max(np.abs(grad(X)[:, 0] - exact)) <= step

    @pytest.mark.parametrize("theta", [5e-5, 10.0 - 5e-5])
    def test_ogasp_corr_chol_near_box_edge(self, theta):
        # a model without an analytic gradient, as every emulator is
        model = ComputerModel(
            evaluator=lambda X, th: np.sin(th[0] * X[:, 0]) + X[:, 0],
            theta_bounds=[[0.0, 10.0]],
            vectorized=True,
        )
        X = np.linspace(0.0, 5.0, 12)[:, None]
        data = FieldDataset(X, np.sin(X[:, 0]), [[0.0, 5.0]])
        spec = DiscrepancySpec(OGASP, KernelSpec("matern52", [0.5]))
        L, _ = LikelihoodCore(data, model, spec).corr_chol([2.0], 0.1, [theta])
        assert np.all(np.isfinite(L))


class TestQuadPoints:
    @pytest.mark.parametrize("q", [2.5, 3.0, 0, -4, True, "10"])
    def test_rejects_non_positive_integer(self, q):
        with pytest.raises(ValueError, match="positive integer"):
            DiscrepancySpec(OGASP, KernelSpec("matern52", [1.0]), quad_points=q)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_points_raise(self):
        # the squared volume scales the ridge of G, so it is checked first
        with pytest.raises(NumericalError, match="squared volume"):
            discrepancy._ogasp_grid([[-1e307, 1e307]], 200, 1)
        with pytest.raises(NumericalError, match="squared volume"):
            discrepancy._ogasp_grid([[0.0, 1.0], [0.0, np.inf]], 3, 2)
        # a finite volume whose midpoints multiply before they divide: 1e306 * 199.5 overflows
        with pytest.raises(ValueError, match="not finite"):
            discrepancy._ogasp_grid([[0.0, 1e306], [0.0, 1e-300]], 200, 2)

    def test_checks_the_domain(self):
        with pytest.raises(ValueError, match="lower < upper"):
            discrepancy._ogasp_grid([[1.0, 0.0]], 5, 1)
        with pytest.raises(ValueError, match="does not match the kernel dimension"):
            discrepancy._ogasp_grid([[0.0, 1.0]], 5, 2)

    def test_weights_integrate_volume(self):
        for q in (1, 7, np.int64(12)):
            grid, w, *_ = discrepancy._ogasp_grid([[0.0, 2.0], [-1.0, 0.5]], q, 2)
            assert grid.shape == (q * q, 2)
            assert np.isclose(w * grid.shape[0], 3.0, rtol=1e-14)
        assert DiscrepancySpec(OGASP, KernelSpec("matern52", [1.0]), quad_points=np.int64(5)).quad_points == 5


class TestOgaspKernel:
    def _grad(self, theta=1.0):
        model = ComputerModel(
            evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
            theta_bounds=[[0.0, 3.0]],
            vectorized=True,
            theta_grad=lambda X, th: (
                np.atleast_2d(X)[:, 0] * np.cos(th[0] * np.atleast_2d(X)[:, 0])
            ).reshape(-1, 1),
        )
        return model.grad_fn([theta])

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 5, size=(6, 1))
        kern = KernelSpec("matern52", [0.5])
        C = ogasp_kernel(X, X, kern, self._grad(), [[0.0, 5.0]], quad_points=100)
        np.testing.assert_allclose(C, C.T, atol=1e-12)

    def test_quadrature_orthogonality(self):
        # for any x, the quadrature of grad(xi) * c_o(x, xi) over xi vanishes
        kern = KernelSpec("matern52", [0.5])
        domain = [[0.0, 5.0]]
        grad = self._grad(1.3)
        grid, w, *_ = discrepancy._ogasp_grid(domain, 200, 1)
        for x in ([0.7], [2.9], [4.4]):
            row = ogasp_kernel(np.array([x]), grid, kern, grad, domain, quad_points=200)
            residual = float(row[0] @ (grad(grid)[:, 0] * w))
            assert abs(residual) <= 1e-6

    def test_gram_psd(self):
        X = np.linspace(0.05, 4.95, 30)[:, None]
        kern = KernelSpec("matern52", [0.5])
        C = ogasp_kernel(X, X, kern, self._grad(), [[0.0, 5.0]], quad_points=150)
        assert np.linalg.eigvalsh(C).min() >= -1e-8

    def test_small_gradient_small_correction(self):
        X = np.linspace(0.1, 4.9, 8)[:, None]
        kern = KernelSpec("matern52", [0.5])
        base = corr_matrix(X, X, kern)
        domain = [[0.0, 5.0]]
        prev = None
        for scale in (1e-7, 1e-9):
            grad = lambda Z, s=scale: s * np.atleast_2d(Z)[:, :1]
            C = ogasp_kernel(X, X, kern, grad, domain, quad_points=100)
            gap = np.max(np.abs(C - base))
            if prev is not None:
                assert gap <= prev
            prev = gap
        assert prev < 1e-6


def _dense_ogasp(Xa, Xb, kern, grad, domain, quad_points):
    """Textbook assembly of the ogasp covariance with the N x N grid kernel."""
    domain = np.asarray(domain, dtype=float)
    grid, w, *_ = discrepancy._ogasp_grid(domain, quad_points, domain.shape[0])
    D = grad(grid)
    g_a = corr_matrix(Xa, grid, kern) @ D * w
    g_b = corr_matrix(Xb, grid, kern) @ D * w
    G = (w * w) * (D.T @ corr_matrix(grid, grid, kern) @ D)
    volume2 = float(np.prod(domain[:, 1] - domain[:, 0])) ** 2
    G += (1e-10 * np.trace(G) / D.shape[1] + 1e-12 * volume2) * np.eye(D.shape[1])
    return corr_matrix(Xa, Xb, kern) - g_a @ np.linalg.solve(G, g_b.T)


_OFFSET_DOMAIN = np.array([[-1.0, 2.5], [3.0, 3.4], [0.5, 10.0]])
_RANGES = np.array([0.7, 0.15, 2.5])


def _grad_2d(Z):
    Z = np.atleast_2d(Z)
    return np.column_stack([np.sin(Z[:, 0]), Z[:, 0] * Z[:, 1]])


class TestStructuredGram:
    @pytest.mark.parametrize("p, q", [(1, 60), (2, 13), (3, 7)])
    @pytest.mark.parametrize("family, rough", [("matern52", None), ("pow_exp", 0.6)])
    def test_matches_dense_grid_product(self, p, q, family, rough):
        rng = np.random.default_rng(10 + p)
        domain = _OFFSET_DOMAIN[:p]
        kern = KernelSpec(family, _RANGES[:p], None if rough is None else [rough] * p)
        grid, _, lags, _ = discrepancy._ogasp_grid(domain, q, p)
        dense = corr_matrix(grid, grid, kern)
        for cols in (1, 3):
            V = rng.standard_normal((grid.shape[0], cols))
            fast = _grid_corr_apply(V, discrepancy._toeplitz_factors(kern, kern.ranges, lags))
            exact = dense @ V
            assert fast.shape == exact.shape
            assert np.max(np.abs(fast - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("q", [1, 2, 7, 200])
    @pytest.mark.parametrize("family, rough", [("matern52", None), ("pow_exp", 0.6)])
    def test_toeplitz_factors_equal_scipy_toeplitz(self, q, family, rough):
        kern = KernelSpec(family, _RANGES, None if rough is None else [rough] * 3)
        lags = [np.arange(q) * (hi - lo) / q for lo, hi in _OFFSET_DOMAIN]
        factors = discrepancy._toeplitz_factors(kern, kern.ranges, lags)
        for l, (T, lag) in enumerate(zip(factors, lags)):
            assert np.array_equal(T, toeplitz(_corr_1d(lag, kern, kern.ranges[l], l)))
            assert T.flags.c_contiguous

    @pytest.mark.parametrize("p", [1, 2])
    def test_kernel_matches_dense_oracle(self, p):
        rng = np.random.default_rng(20 + p)
        domain = _OFFSET_DOMAIN[:p]
        kern = KernelSpec("pow_exp", _RANGES[:p], [0.6] * p)
        grad = (lambda Z: np.atleast_2d(Z)[:, :1] ** 2) if p == 1 else _grad_2d
        lo, hi = domain[:, 0], domain[:, 1]
        Xa = lo + (hi - lo) * rng.uniform(size=(9, p))
        Xb = lo + (hi - lo) * rng.uniform(size=(5, p))
        q = 50 if p == 1 else 12
        for A, B in ((Xa, Xb), (Xa, Xa)):
            oracle = _dense_ogasp(A, B, kern, grad, domain, q)
            C = ogasp_kernel(A, B, kern, grad, domain, quad_points=q)
            assert np.max(np.abs(C - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_cross_cov_matches_kernel(self):
        rng = np.random.default_rng(30)
        domain = _OFFSET_DOMAIN[:2]
        kern = KernelSpec("matern52", _RANGES[:2])
        lo, hi = domain[:, 0], domain[:, 1]
        X = lo + (hi - lo) * rng.uniform(size=(8, 2))
        Xs = lo + (hi - lo) * rng.uniform(size=(11, 2))
        r, c_diag = _ogasp_cross(X, Xs, kern, _grad_2d, domain, quad_points=15)
        np.testing.assert_allclose(
            r, ogasp_kernel(X, Xs, kern, _grad_2d, domain, quad_points=15), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            c_diag,
            np.diag(ogasp_kernel(Xs, Xs, kern, _grad_2d, domain, quad_points=15)),
            rtol=0,
            atol=1e-13,
        )

    def test_peak_memory_has_no_grid_square(self):
        # p = 3 at the default 10 points per axis: N = 1000, so one N x N
        # grid correlation alone would take 8 MB
        rng = np.random.default_rng(40)
        kern = KernelSpec("matern52", [0.4, 0.6, 0.5])
        domain = [[0.0, 1.0]] * 3
        X = rng.uniform(size=(10, 3))
        grad = lambda Z: np.column_stack([Z[:, 0], Z[:, 1] * Z[:, 2]])
        ogasp_kernel(X, X, kern, grad, domain)
        tracemalloc.start()
        try:
            ogasp_kernel(X, X, kern, grad, domain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _unblocked_cross(cov, gamma, theta, Xs):
    """The ogasp ``(r, c0)`` with the whole k x N grid kernel formed at once."""
    _, g, Dw, LG = cov._ogasp(gamma, theta)
    dists, dists_grid = cov._star_dists(Xs)
    g_star = _product_corr(dists_grid, cov.kernel, gamma) @ Dw
    solved = dpotrs(LG, g_star.T, lower=1)[0]
    r = _product_corr(dists, cov.kernel, gamma) - g @ solved
    return r, 1.0 - np.einsum("ij,ji->i", g_star, solved)


def _sine_grad(Z):
    Z = np.atleast_2d(Z)
    return (Z[:, 0] * np.cos(1.3 * Z[:, 0]))[:, None]


class TestBlockedGridFeatures:
    @pytest.mark.parametrize("p, q, k", [(1, 200, 500), (2, 40, 45)])
    def test_cross_matches_dense_and_unblocked(self, p, q, k):
        # 2**14 // N rows a block: 81 (7 blocks) at N = 200, 10 (5 blocks) at N = 1600
        rng = np.random.default_rng(50 + p)
        domain = np.array([[0.0, 5.0]]) if p == 1 else _OFFSET_DOMAIN[:2]
        kern = KernelSpec("matern52", [0.5] if p == 1 else _RANGES[:2])
        grad = _sine_grad if p == 1 else _grad_2d
        lo, hi = domain[:, 0], domain[:, 1]
        X = lo + (hi - lo) * rng.uniform(size=(12, p))
        Xs = lo + (hi - lo) * rng.uniform(size=(k, p))
        assert k > 2 * (discrepancy._GRID_BLOCK // q**p)  # at least 3 blocks
        spec = DiscrepancySpec(OGASP, kern, quad_points=q)
        cov = discrepancy._ModeCov(spec, X, domain, lambda theta: grad)
        r, c0 = cov.cross(kern.ranges, (), Xs)
        r_ref, c0_ref = _unblocked_cross(cov, kern.ranges, (), Xs)
        for got, ref in ((r, r_ref), (c0, c0_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        r_dense = _dense_ogasp(X, Xs, kern, grad, domain, q)
        c0_dense = np.diag(_dense_ogasp(Xs, Xs, kern, grad, domain, q))
        for got, ref in ((r, r_dense), (c0, c0_dense)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_peak_memory_below_one_k_by_n_kernel(self):
        # k = 2000 points against N = 200 grid points: the whole k x N kernel
        # alone would take 3.2 MB; its cached distances are made in the warm-up
        rng = np.random.default_rng(60)
        kern = KernelSpec("matern52", [0.5])
        X = rng.uniform(0.0, 5.0, size=(10, 1))
        Xs = rng.uniform(0.0, 5.0, size=(2000, 1))
        spec = DiscrepancySpec(OGASP, kern, quad_points=200)
        cov = discrepancy._ModeCov(spec, X, [[0.0, 5.0]], lambda theta: _sine_grad)
        cov.cross(np.array([0.5]), (), Xs)
        tracemalloc.start()
        try:
            cov.cross(np.array([0.7]), (), Xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 200 * 8
