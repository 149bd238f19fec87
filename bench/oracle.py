"""Dense reference log-likelihoods, written with numpy alone.

Nothing here imports gpcalib: kernels, mode covariances, computer models and
the Gaussian log-density are re-derived from the paper's formulas and solved
with ``numpy.linalg.slogdet``/``solve``, so a job whose likelihood drifts from
these values has a defect in the library, not in a shared helper.
"""

from __future__ import annotations

import numpy as np


def matern52(X1, X2, ranges):
    """Product Matern-5/2 correlation between the rows of X1 and X2."""
    X1, X2 = np.atleast_2d(X1), np.atleast_2d(X2)
    out = np.ones((X1.shape[0], X2.shape[0]))
    for l, gamma in enumerate(ranges):
        u = np.sqrt(5.0) * np.abs(X1[:, l, None] - X2[None, :, l]) / gamma
        out *= (1.0 + u + u * u / 3.0) * np.exp(-u)
    return out


def sgasp_cov(X, ranges, lam=None):
    """Scaled-process correlation with the design as constraint points."""
    n = X.shape[0]
    lam = n / 2.0 if lam is None else lam
    R = matern52(X, X, ranges)
    return R - R @ np.linalg.solve(R + (n / lam) * np.eye(n), R)


def ogasp_cov(X, ranges, grad, domain, quad_points=200):
    """Orthogonal-process correlation by a midpoint rule on a 1-D domain."""
    lo, hi = domain[0]
    grid = (lo + (hi - lo) * (np.arange(quad_points) + 0.5) / quad_points)[:, None]
    w = (hi - lo) / quad_points
    D = grad(grid)
    g = matern52(X, grid, ranges) @ D * w
    G = (w * w) * (D.T @ matern52(grid, grid, ranges) @ D)
    return matern52(X, X, ranges) - g @ np.linalg.solve(G, g.T)


#: Computer models by gpcalib builtin name: value and theta-gradient.
MODELS = {
    "sine_theta_x": (
        lambda X, th: np.sin(th[0] * X[:, 0]),
        lambda X, th: (X[:, 0] * np.cos(th[0] * X[:, 0]))[:, None],
    ),
    "sine_plus_x": (
        lambda X, th: np.sin(th[0] * X[:, 0]) + X[:, 0],
        lambda X, th: (X[:, 0] * np.cos(th[0] * X[:, 0]))[:, None],
    ),
}


def loglik(mode, model, X, y, domain, theta, psi, sigma2, eta):
    """Marginal log-likelihood of y ~ N(f(X, theta), sigma2 (K + eta I))."""
    X, y = np.atleast_2d(X), np.asarray(y, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    ranges = 1.0 / np.atleast_1d(np.asarray(psi, dtype=float))
    f, grad = MODELS[model]
    if mode == "gasp":
        K = matern52(X, X, ranges)
    elif mode == "sgasp":
        K = sgasp_cov(X, ranges)
    else:
        K = ogasp_cov(X, ranges, lambda Z: grad(Z, theta), np.asarray(domain))
    n = y.size
    C = sigma2 * (K + eta * np.eye(n))
    r = y - f(X, theta)
    sign, logdet = np.linalg.slogdet(C)
    if sign <= 0:
        return -np.inf
    return float(-0.5 * (n * np.log(2.0 * np.pi) + logdet + r @ np.linalg.solve(C, r)))


def kriging_mean(design, outputs, ranges, Z):
    """Universal-kriging mean with a constant trend estimated by GLS."""
    R = matern52(design, design, ranges)
    ones = np.ones(design.shape[0])
    Ri1 = np.linalg.solve(R, ones)
    beta = float(Ri1 @ outputs / (Ri1 @ ones))
    return beta + matern52(Z, design, ranges) @ np.linalg.solve(R, outputs - beta)
