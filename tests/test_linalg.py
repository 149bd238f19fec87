"""Dense Gaussian machinery against brute-force oracles."""

import numpy as np
import pytest

from gpcalib.kernels import KernelSpec, corr_matrix
from gpcalib.linalg import NumericalError, cholesky_with_jitter
from oracles import MVNModel, gp_condition, mvn_logdensity


def _dense_mvn_logpdf(y, mean, cov):
    """Oracle: explicit inverse and determinant."""
    resid = y - mean
    return float(
        -0.5 * len(y) * np.log(2 * np.pi)
        - 0.5 * np.log(np.linalg.det(cov))
        - 0.5 * resid @ np.linalg.inv(cov) @ resid
    )


class TestCholeskyWithJitter:
    def test_no_jitter_on_spd(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        L, jitter = cholesky_with_jitter(A)
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, A, atol=1e-14)

    def test_escalates_on_near_singular(self):
        x = np.linspace(0, 1, 60)
        R = corr_matrix(x[:, None], x[:, None], KernelSpec("pow_exp", [1.0], roughness=[2.0]))
        L, jitter = cholesky_with_jitter(R)
        assert jitter > 0
        assert np.all(np.isfinite(L))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_a_numerical_error(self, bad):
        A = np.eye(3)
        A[0, 2] = A[2, 0] = bad
        with pytest.raises(NumericalError):
            cholesky_with_jitter(A)

    def test_fails_on_indefinite(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NumericalError) as err:
            cholesky_with_jitter(A)
        assert err.value.jitter > 0


class TestMvnLogdensity:
    def test_standard_normal_scalar(self):
        model = MVNModel(mean=[0.0], covariance=[[1.0]])
        assert np.isclose(mvn_logdensity([0.0], model), -0.5 * np.log(2 * np.pi), rtol=1e-12)

    def test_independence_factorization(self):
        model = MVNModel(mean=np.zeros(2), covariance=np.eye(2))
        y = np.array([0.3, -1.2])
        one_d = [
            mvn_logdensity([v], MVNModel(mean=[0.0], covariance=[[1.0]])) for v in y
        ]
        assert np.isclose(mvn_logdensity(y, model), sum(one_d), rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.normal(size=(3, 3))
            cov = A @ A.T + 0.5 * np.eye(3)
            mean = rng.normal(size=3)
            y = rng.normal(size=3)
            got = mvn_logdensity(y, MVNModel(mean=mean, covariance=cov))
            assert np.isclose(got, _dense_mvn_logpdf(y, mean, cov), atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 5))
        cov = A @ A.T + np.eye(5)
        mean = rng.normal(size=5)
        y = rng.normal(size=5)
        perm = rng.permutation(5)
        base = mvn_logdensity(y, MVNModel(mean=mean, covariance=cov))
        shuffled = mvn_logdensity(
            y[perm], MVNModel(mean=mean[perm], covariance=cov[np.ix_(perm, perm)])
        )
        assert np.isclose(base, shuffled, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mvn_logdensity([0.0, 1.0], MVNModel(mean=[0.0], covariance=[[1.0]]))


class TestGpCondition:
    def _setup(self, n=5, seed=0, gamma=0.8):
        rng = np.random.default_rng(seed)
        X = np.sort(rng.uniform(size=n))[:, None]
        spec = KernelSpec("matern52", [gamma])
        R = corr_matrix(X, X, spec)
        y = np.linalg.cholesky(R + 1e-10 * np.eye(n)) @ rng.normal(size=n)
        return X, spec, R, y

    def test_interpolates_training_point(self):
        X, spec, R, y = self._setup()
        r = corr_matrix(X, X[:1], spec)
        c0 = corr_matrix(X[:1], X[:1], spec)
        mean, cov = gp_condition(R, r, c0, y, nugget=0.0)
        assert np.isclose(mean[0], y[0], atol=1e-7)
        assert cov[0, 0] <= 1e-8

    def test_uncorrelated_point(self):
        X, spec, R, y = self._setup()
        r = np.zeros((len(y), 1))
        mean, cov = gp_condition(R, r, np.array([[1.0]]), y, nugget=0.0)
        assert mean[0] == 0.0
        assert np.isclose(cov[0, 0], 1.0, rtol=1e-12)

    def test_matches_joint_gaussian_conditioning(self):
        # oracle: dense conditioning of the (n+k)-dimensional joint covariance
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(3, 1))
        Xs = rng.uniform(size=(2, 1))
        spec = KernelSpec("matern52", [0.6])
        joint = np.vstack([X, Xs])
        C = corr_matrix(joint, joint, spec)
        nugget = 0.1
        C_obs = C[:3, :3] + nugget * np.eye(3)
        y = rng.normal(size=3)
        mean_oracle = C[3:, :3] @ np.linalg.inv(C_obs) @ y
        cov_oracle = C[3:, 3:] - C[3:, :3] @ np.linalg.inv(C_obs) @ C[:3, 3:]
        mean, cov = gp_condition(
            C[:3, :3], C[:3, 3:], C[3:, 3:], y, nugget=nugget
        )
        np.testing.assert_allclose(mean, mean_oracle, atol=1e-10)
        np.testing.assert_allclose(cov, cov_oracle, atol=1e-10)

    def test_variance_bounded_by_prior(self):
        X, spec, R, y = self._setup(n=8, seed=5)
        Xs = np.linspace(0, 1, 7)[:, None]
        r = corr_matrix(X, Xs, spec)
        c0 = corr_matrix(Xs, Xs, spec)
        _, cov = gp_condition(R, r, c0, y, nugget=1e-6)
        assert np.all(np.diag(cov) >= -1e-10)
        assert np.all(np.diag(cov) <= np.diag(c0) + 1e-10)

    def test_nugget_continuity(self):
        X, spec, R, y = self._setup(n=6, seed=9, gamma=0.3)
        Xs = np.array([[0.41]])
        r = corr_matrix(X, Xs, spec)
        c0 = corr_matrix(Xs, Xs, spec)
        ref_mean, ref_cov = gp_condition(R, r, c0, y, nugget=0.0)
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            mean, cov = gp_condition(R, r, c0, y, nugget=eps)
            gaps.append(abs(mean[0] - ref_mean[0]) + abs(cov[0, 0] - ref_cov[0, 0]))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4
