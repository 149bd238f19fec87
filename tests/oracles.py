"""Reference implementations the tests compare the library against.

Each is the plain textbook formula: one correlation entry at a time, a
Gaussian density through its own Cholesky factor, and Gaussian conditioning
written out in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from gpcalib.kernels import MATERN52, KernelSpec, corr_matrix, matern52, pow_exp
from gpcalib.linalg import LOG_2PI, cholesky_with_jitter


def matern52_expression(d, gamma):
    """The Matern 5/2 correlation as one expression, allocating its temporaries.

    ``u = min(sqrt(5) d / gamma, 1e3)``, ``(1 + u + u * u / 3) exp(-u)``: the
    order of operations the in-place library kernel must reproduce bit for bit.
    """
    u = np.minimum(np.sqrt(5.0) * d / gamma, 1e3)
    return (1.0 + u + u * u / 3.0) * np.exp(-u)


def product_corr(xa, xb, spec: KernelSpec) -> float:
    """Product-form correlation between two input points.

    The correlation is the product over coordinates of the one-dimensional
    correlation at distance ``|xa_l - xb_l|``.
    """
    xa = np.atleast_1d(np.asarray(xa, dtype=float))
    xb = np.atleast_1d(np.asarray(xb, dtype=float))
    if xa.shape != xb.shape or xa.size != spec.dim:
        raise ValueError(
            f"input dimension mismatch: {xa.shape} vs {xb.shape} vs spec dim {spec.dim}"
        )
    out = 1.0
    for l in range(spec.dim):
        d = abs(xa[l] - xb[l])
        if spec.family == MATERN52:
            out *= float(matern52(d, spec.ranges[l]))
        else:
            out *= float(pow_exp(d, spec.ranges[l], spec.roughness[l]))
    return out


@dataclass(frozen=True)
class MVNModel:
    """Mean vector and symmetric PSD covariance of a multivariate normal."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean length")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def mvn_logdensity(y, model: MVNModel) -> float:
    """Exact Gaussian log-density of ``y`` under ``model``, via Cholesky."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != model.mean.shape:
        raise ValueError("observation length does not match model dimension")
    L, _ = cholesky_with_jitter(model.covariance)
    return _logpdf_from_chol(y - model.mean, L)


def _logpdf_from_chol(resid: np.ndarray, L: np.ndarray) -> float:
    """Gaussian log-density of a centered residual given the covariance factor."""
    alpha = solve_triangular(L, resid, lower=True)
    n = resid.size
    return -0.5 * n * LOG_2PI - float(np.sum(np.log(np.diag(L)))) - 0.5 * float(alpha @ alpha)


def gp_condition(R, r_star, c_star_prior, y_centered, nugget: float = 0.0):
    """Conditional mean and covariance of a Gaussian process.

    Conditions a zero-mean process observed at ``n`` points (correlation ``R``,
    i.i.d. noise variance ``nugget``) on the centered observations
    ``y_centered``, and evaluates at ``k`` target points with prior correlation
    ``c_star_prior`` and cross-correlation ``r_star`` (n x k).

    Returns
    -------
    (mean, cov) : conditional mean (k,) and covariance (k, k)
        ``mean = r_star' (R + nugget I)^-1 y_centered`` and
        ``cov = c_star_prior - r_star' (R + nugget I)^-1 r_star``.
    """
    R = np.asarray(R, dtype=float)
    r_star = np.atleast_2d(np.asarray(r_star, dtype=float))
    c_star_prior = np.atleast_2d(np.asarray(c_star_prior, dtype=float))
    y_centered = np.atleast_1d(np.asarray(y_centered, dtype=float))
    n = R.shape[0]
    if R.shape != (n, n) or r_star.shape[0] != n or y_centered.size != n:
        raise ValueError("inconsistent shapes in gp_condition")
    if nugget < 0:
        raise ValueError("nugget must be non-negative")
    K = R + nugget * np.eye(n) if nugget > 0 else R
    L, _ = cholesky_with_jitter(K)
    mean = r_star.T @ cho_solve((L, True), y_centered)
    cov = c_star_prior - r_star.T @ cho_solve((L, True), r_star)
    return mean, 0.5 * (cov + cov.T)


def scaled_cov_three_kernels(X, kernel: KernelSpec, lam: float) -> np.ndarray:
    """Scaled-process covariance with the design as its constraint points.

    ``R - rC' (RC + (n / lam) I)^-1 rC`` with the correlation over the
    constraint points ``RC``, the constraint-to-data ``rC`` and the data
    correlation ``R`` each built as its own kernel matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    R = corr_matrix(X, X, kernel)
    rC = corr_matrix(X, X, kernel)
    L, _ = cholesky_with_jitter(corr_matrix(X, X, kernel) + (n / lam) * np.eye(n))
    Rz = R - rC.T @ cho_solve((L, True), rC)
    return 0.5 * (Rz + Rz.T)


def _mp(A) -> mpmath.matrix:
    return mpmath.matrix(np.atleast_2d(A).tolist())


def conditional_mp(R, r_star, resid, shift: float, constraint=None, digits: int = 50):
    """Conditional discrepancy mean and correlation-scale variance at ``digits``
    significant digits, the float64 inputs taken as exact.

    ``R`` (n, n) and ``r_star`` (n, m) are the base correlations over the
    design and from it to the new points.  ``constraint=(RC, rC, rC_star, c)``
    applies the scaled process written out in full:
    ``K = R - rC' (RC + c I)^-1 rC``, ``r = r* - rC' (RC + c I)^-1 rC*`` and
    ``c0 = 1 - diag(rC*' (RC + c I)^-1 rC*)``; without it ``K = R``,
    ``r = r*`` and ``c0 = 1``.  With ``L L' = K + shift I``, ``V = L^-1 r`` and
    ``w = L^-1 resid`` give the mean ``V' w`` and the variance
    ``c0 - sum_i V_i^2``, both returned as float arrays (m,).
    """
    n, m = np.shape(r_star)
    with mpmath.workdps(digits):
        K, r = _mp(R), _mp(r_star)
        c0 = [mpmath.mpf(1)] * m
        if constraint is not None:
            RC, rC, rC_star, c = constraint
            Ainv = mpmath.inverse(_mp(RC) + c * mpmath.eye(len(RC)))
            rC, rC_star = _mp(rC), _mp(rC_star)
            K = K - rC.T * Ainv * rC
            solved = Ainv * rC_star
            r = r - rC.T * solved
            c0 = [1 - sum(rC_star[i, j] * solved[i, j] for i in range(rC_star.rows)) for j in range(m)]
        Linv = mpmath.inverse(mpmath.cholesky(K + shift * mpmath.eye(n)))
        V = Linv * r
        w = Linv * _mp(np.reshape(resid, (n, 1)))
        mean = V.T * w
        var = [c0[j] - sum(V[i, j] ** 2 for i in range(n)) for j in range(m)]
        return np.array([float(mean[j]) for j in range(m)]), np.array([float(v) for v in var])


def integrated_log_marginal(A, H, r) -> float:
    """Log-likelihood of ``r ~ N(H beta, sigma2 A)`` with ``beta`` (flat prior)
    and ``sigma2`` (prior ``1/sigma2``) integrated out, up to a constant.

    ``-log|A|/2 - log|M|/2 - ((n - q)/2) log Q`` with ``M = H' A^-1 H``, the
    GLS estimate ``b = M^-1 H' A^-1 r`` and ``Q = (r - H b)' A^-1 (r - H b)``,
    from dense ``slogdet`` and ``solve``.
    """
    n, q = H.shape
    AinvH = np.linalg.solve(A, H)
    M = H.T @ AinvH
    e = r - H @ np.linalg.solve(M, AinvH.T @ r)
    Q = float(e @ np.linalg.solve(A, e))
    return -0.5 * np.linalg.slogdet(A)[1] - 0.5 * np.linalg.slogdet(M)[1] - 0.5 * (n - q) * np.log(Q)


def transform_log_jacobian(tr, z) -> float:
    """``log |det d(original)/d(transformed)|`` of ``tr`` at ``z``, from the
    dense Jacobian of its map written out per coordinate.

    theta = lower + width u with u = 1 / (1 + exp(-z)) has derivative
    width u (1 - u); beta is the identity; psi, sigma2 and eta + floor are
    exponentials, each its own derivative.
    """
    z = np.asarray(z, dtype=float)
    J = np.eye(z.size)
    lower, upper = tr.theta_bounds[:, 0], tr.theta_bounds[:, 1]
    u = 1.0 / (1.0 + np.exp(-z[tr.theta_slice]))
    J[tr.theta_slice, tr.theta_slice] = np.diag((upper - lower) * u * (1.0 - u))
    log_scale = np.r_[tr.psi_slice, tr.sigma2_index, tr.eta_index]
    J[log_scale, log_scale] = np.exp(z[log_scale])
    return float(np.linalg.slogdet(J)[1])
