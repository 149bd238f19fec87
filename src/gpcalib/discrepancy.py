"""Discrepancy-process covariance transforms.

Three priors for the discrepancy between reality and a computer model:

* ``gasp`` - a plain zero-mean Gaussian process with product correlation.
* ``sgasp`` - the scaled process, whose sample paths are tilted toward a small
  L2 norm.  Discretizing the norm over constraint points gives a closed-form
  covariance: the plain correlation minus a shrinkage term that equals the
  posterior covariance of a zero-mean process observed at the constraint
  points with i.i.d. noise variance ``N_C / lambda``.
* ``ogasp`` - a process constrained to be orthogonal to the computer model's
  parameter gradient, enforcing the first-order optimality condition of the
  L2 loss.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dpotrs

from .kernels import KernelSpec, _corr_1d, _distances, _product_corr
from .linalg import NumericalError, _shifted, _tri_inv, cholesky_with_jitter

GASP = "gasp"
SGASP = "sgasp"
OGASP = "ogasp"

_MODES = (GASP, SGASP, OGASP)

#: Kernel entries per row block of the ogasp grid features ``corr(Xstar, grid) Dw``:
#: 128 KB of float64, so each block and its temporaries stay in cache.
_GRID_BLOCK = 2**14


@dataclass
class DiscrepancySpec:
    """Configuration of the discrepancy prior.

    Parameters
    ----------
    mode : str
        One of ``"gasp"``, ``"sgasp"``, ``"ogasp"``.
    kernel : KernelSpec
        Base correlation over the variable inputs.  Calibration reads only its
        family and roughness: ``mle_fit``, ``mcmc_run``, ``predict``,
        ``predict_posterior`` and ``marginal_loglik`` take the ranges from the
        inverse ranges ``psi_delta`` they fit or are given.  Its ``ranges``
        serve the direct builders ``scaled_cov`` and ``scaled_cross_cov``.
    mean_basis : sequence of callables, optional
        Basis functions ``h_j(x)`` of the mean discrepancy regression; each
        maps an (m, p) array of inputs to an (m,) vector.  Empty means a zero
        mean discrepancy.
    constraint_points : ndarray, optional
        Points discretizing the L2 norm in ``sgasp`` mode.  ``None`` means
        "use the observed design".
    lam : float, optional
        Positive scaling parameter of the shrinkage; larger values pull the
        sample paths harder toward zero.  ``None`` means ``n/2`` with ``n``
        the number of observations.
    quad_points : int, optional
        Quadrature points per axis ``q`` for the ``ogasp`` orthogonality
        integrals; a positive integer.  ``None`` picks 200 in one dimension,
        40 per axis in two, 10 above.  The ``N = q^p`` grid points cost
        ``m N`` kernel evaluations per point set and ``p q`` one-dimensional
        lag evaluations for the gradient Gram; no N x N matrix is formed.
        For new points the kernel is built in row blocks of about ``2**14``
        entries from the cached per-axis ``m x N`` distances and reduced at
        once to ``m x p_theta`` gradient features, so no ``m x N`` kernel or
        kernel temporary is formed.
    """

    mode: str
    kernel: KernelSpec
    mean_basis: Sequence[Callable] = field(default_factory=list)
    constraint_points: np.ndarray | None = None
    lam: float | None = None
    quad_points: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown discrepancy mode {self.mode!r}")
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.quad_points is not None:
            self.quad_points = _check_quad_points(self.quad_points)
        if self.constraint_points is not None:
            pts = np.atleast_2d(np.asarray(self.constraint_points, dtype=float))
            if pts.shape[1] != self.kernel.dim:
                raise ValueError("constraint points do not match the kernel dimension")
            self.constraint_points = pts

    @property
    def n_basis(self) -> int:
        return len(self.mean_basis)

    def resolved_constraints(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        """Constraint points and scaling for a given observed design."""
        XC = self.constraint_points if self.constraint_points is not None else np.asarray(X, dtype=float)
        lam = self.lam if self.lam is not None else X.shape[0] / 2.0
        return np.atleast_2d(XC), float(lam)


def _lru(cache: OrderedDict, key: bytes, make):
    """``cache[key]``, made by ``make()`` on a miss; keeps the 4 keys used last."""
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit
    hit = cache[key] = make()
    if len(cache) > 4:
        cache.popitem(last=False)
    return hit


def _points(X, dim: int) -> np.ndarray:
    """``X`` as a 2-D float array with ``dim`` columns; ``ValueError`` otherwise."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != dim:
        raise ValueError(f"points have {X.shape[1]} columns, the kernel expects {dim}")
    return X


class _ModeCov:
    """The discrepancy correlation of one mode over a fixed design ``X``.

    :meth:`corr` and :meth:`cross` are the only place the package decides,
    by mode, which base correlations to build and how to combine them; the
    public builders, the likelihood, prediction and the emulator all call
    them.  The ranges ``gamma`` are passed per call and not checked (finite
    and positive); ``spec.kernel`` supplies the family, roughness and
    dimension.

    Cached from the design alone: the per-axis distances of ``X`` (on first
    use); in sgasp mode ``c = N_C / lambda`` and, for explicit constraint
    points, their distances among themselves and to ``X``; in ogasp mode the
    quadrature grid of ``domain``, its cell volume, per-axis lags and the
    ``X``-to-grid distances.  Four LRUs, each keeping the 4 keys used last:
    ``_stars`` maps the bytes of ``Xstar`` to its distances from ``X`` and
    from the ogasp grid or the explicit constraint points; ``_gamma_parts``
    maps the bytes of ``gamma`` to one record of ``corr(X, X)`` and the
    pieces :meth:`cross` needs (sgasp ``L`` and ``rC``, ogasp
    ``corr(X, grid)`` and the grid's Toeplitz factors); in ogasp mode
    ``_grads`` maps the bytes of ``theta`` to the weighted gradient
    ``Dw = D w`` from ``grad_at(theta)`` and ``_projections`` those of
    ``(gamma, theta)`` to the projection.  So :meth:`corr` and :meth:`cross`
    share one factor, :meth:`cross` forms no ``K``, a theta move evaluates
    no kernel.  README "Sampler cost" gives their measured hit rates.
    """

    def __init__(self, spec: DiscrepancySpec, X, domain=None, grad_at=None):
        self.mode, self.kernel = spec.mode, spec.kernel
        self.X = X = _points(X, spec.kernel.dim)
        self._stars, self._gamma_parts = OrderedDict(), OrderedDict()
        if spec.mode == SGASP:
            XC, lam = spec.resolved_constraints(X)
            self._c = XC.shape[0] / lam
            self._XC = None if spec.constraint_points is None else XC
            if self._XC is not None:
                self._dists_C = _distances(XC, XC)
                self._dists_CX = _distances(XC, X)
        elif spec.mode == OGASP:
            self._grid = _ogasp_grid(domain, spec.quad_points, spec.kernel.dim)
            self._dists_grid = _distances(X, self._grid.points)
            self._grad_at = grad_at
            self._grads, self._projections = OrderedDict(), OrderedDict()

    def corr(self, gamma, theta=None) -> np.ndarray:
        """Correlation ``K`` over the design at ranges ``gamma`` (and, in ogasp
        mode, at the model parameters ``theta``)."""
        if self.mode == GASP:
            return _product_corr(self._dists, self.kernel, gamma)
        if self.mode == OGASP:
            g, _, LG = self._ogasp(gamma, theta)
            return self._parts(gamma)[0] - g @ dpotrs(LG, g.T, lower=1)[0]
        R, L, rC = self._parts(gamma)
        if self._XC is None:
            Rz = dpotrs(L, rC, lower=1)[0]
            Rz *= self._c
        else:
            Rz = R - rC.T @ dpotrs(L, rC, lower=1)[0]
        Rz += Rz.T
        Rz *= 0.5
        return Rz

    def cross(self, gamma, theta, Xstar):
        """``(r, c0)``: the cross-correlation (n, k) between the design and
        ``Xstar`` and the prior variance (k,) at ``Xstar``, under the mode's
        transform and from the factorization :meth:`corr` uses."""
        Xstar = _points(Xstar, self.kernel.dim)
        dists, dists_extra = _lru(self._stars, Xstar.tobytes(), lambda: self._star_dists(Xstar))
        r = _product_corr(dists, self.kernel, gamma)
        if self.mode == GASP:
            return r, np.ones(Xstar.shape[0])
        if self.mode == OGASP:
            g, Dw, LG = self._ogasp(gamma, theta)
            # g* = corr(Xstar, grid) Dw by row blocks: a whole k x N kernel and its
            # temporaries leave the cache, and glibc returns and re-faults their pages
            g_star = np.empty((Xstar.shape[0], Dw.shape[1]))
            rows = max(1, _GRID_BLOCK // Dw.shape[0])
            for s in range(0, Xstar.shape[0], rows):
                block = _product_corr([d[s:s + rows] for d in dists_extra], self.kernel, gamma)
                g_star[s:s + rows] = block @ Dw
            solved = dpotrs(LG, g_star.T, lower=1)[0]
            return r - g @ solved, 1.0 - np.einsum("ij,ji->i", g_star, solved)
        _, L, rC = self._parts(gamma)
        Linv = _tri_inv(L)
        if self._XC is None:
            # r_z = c (R + c I)^-1 r* = c L^-T V and c_z = 1 - ||V||^2 for V = L^-1 r*
            V = Linv @ r
            return (self._c * Linv.T) @ V, 1.0 - np.einsum("ij,ij->j", V, V)
        # r_z = r* - (L^-1 rC)' W and c_z = 1 - ||W||^2 for W = L^-1 rC*
        W = Linv @ _product_corr(dists_extra, self.kernel, gamma)
        return r - (Linv @ rC).T @ W, 1.0 - np.einsum("ij,ij->j", W, W)

    def _star_dists(self, Xstar):
        """Distances from the design to ``Xstar``, and the ogasp or explicit sgasp ones."""
        extra = None
        if self.mode == OGASP:
            extra = _distances(Xstar, self._grid.points)
        elif self.mode == SGASP and self._XC is not None:
            extra = _distances(self._XC, Xstar)
        return _distances(self.X, Xstar), extra

    @cached_property
    def _dists(self):
        return _distances(self.X, self.X)

    def _parts(self, gamma):
        """Cached pieces that depend on ``gamma`` alone, led by ``R = corr(X, X)``:
        sgasp ``(R, L, rC)`` with ``L L' = RC + c I`` (``rC = R`` by default),
        ogasp ``(R, corr(X, grid), factors)``.  gasp's :meth:`corr` forms its own."""
        kernel = self.kernel

        def make():
            R = _product_corr(self._dists, kernel, gamma)
            if self.mode == OGASP:
                grid_corr = _product_corr(self._dists_grid, kernel, gamma)
                return R, grid_corr, _toeplitz_factors(kernel, gamma, self._grid.lags)
            if self._XC is None:
                return R, cholesky_with_jitter(_shifted(R, self._c))[0], R
            L, _ = cholesky_with_jitter(_shifted(_product_corr(self._dists_C, kernel, gamma), self._c))
            return R, L, _product_corr(self._dists_CX, kernel, gamma)

        return _lru(self._gamma_parts, gamma.tobytes(), make)

    def _ogasp(self, gamma, theta):
        """``(g, Dw, LG)`` in ogasp mode, so that ``K = C - g G^-1 g'`` for the
        base correlation ``C``: the gradient features ``g = corr(X, grid) Dw``,
        the weighted gradient and the factor ``LG`` of :func:`_projection`."""
        if theta is None:
            raise ValueError("orthogonal mode needs theta to build the correlation")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        grid = self._grid

        def weighted_grad():
            D = np.atleast_2d(np.asarray(self._grad_at(theta)(grid.points), dtype=float))
            if D.shape[0] != grid.points.shape[0]:
                D = D.T
            if D.shape[0] != grid.points.shape[0]:
                raise ValueError("model_grad must return one row per grid point")
            return D * grid.weight

        def projection():
            _, CXg, factors = self._parts(gamma)
            Dw = _lru(self._grads, theta.tobytes(), weighted_grad)
            return CXg @ Dw, Dw, _projection(Dw, factors, grid.volume2)

        return _lru(self._projections, gamma.tobytes() + theta.tobytes(), projection)


def scaled_cov(X, spec: DiscrepancySpec) -> np.ndarray:
    """Shrunk correlation matrix of the discretized scaled process.

    ``R_z = R - rC' (RC + c I)^-1 rC`` with ``c = N_C / lambda``, where ``RC``
    is the correlation over the constraint points and ``rC`` the
    constraint-to-data cross-correlation.  With the default constraint points
    (``constraint_points=None``: the design itself, so ``RC = rC = R``) this
    is the identity ``R_z = c (R + c I)^-1 R``, built from one correlation
    matrix and one factorization.
    """
    if spec.mode != SGASP:
        raise ValueError("scaled_cov requires sgasp mode")
    return _ModeCov(spec, X).corr(spec.kernel.ranges)


def scaled_cross_cov(X, Xstar, spec: DiscrepancySpec):
    """Cross-covariance and prior variance of the scaled process at new points.

    ``r_z = r* - rC' (RC + c I)^-1 rC*`` and ``c_z = 1 - rC*' (RC + c I)^-1 rC*``
    with ``c = N_C / lambda``.  With the default constraint points (the
    design, so ``RC = rC = R`` and ``rC* = r*``) these are the identities
    ``r_z = c (R + c I)^-1 r*`` and ``c_z = 1 - ||L^-1 r*||^2`` with
    ``L L' = R + c I``: one correlation matrix over the design, one to
    ``Xstar`` and one factorization.

    Returns
    -------
    (r_z, c_z_diag) : cross-covariance (n, k) between the observed design and
        the new points, and the transformed prior variance (k,) at the new
        points, both under the shrunk kernel.
    """
    if spec.mode != SGASP:
        raise ValueError("scaled_cross_cov requires sgasp mode")
    return _ModeCov(spec, X).cross(spec.kernel.ranges, None, Xstar)


def _check_quad_points(quad_points) -> int:
    is_int = isinstance(quad_points, (int, np.integer)) and not isinstance(quad_points, bool)
    if not is_int or quad_points < 1:
        raise ValueError(f"quad_points must be a positive integer, got {quad_points!r}")
    return int(quad_points)


def quadrature_grid(domain, quad_points: int):
    """Midpoint-rule tensor grid over a rectangle.

    Returns the grid points (N, p) and the scalar cell volume.  The points are
    the ``indexing="ij"`` mesh raveled in C order, so the last coordinate
    varies fastest.  A domain whose points overflow raises ``ValueError``.
    """
    quad_points = _check_quad_points(quad_points)
    domain = np.atleast_2d(np.asarray(domain, dtype=float))
    if domain.shape[1] != 2 or np.any(domain[:, 1] <= domain[:, 0]):
        raise ValueError("domain must be rows of (lower, upper) with lower < upper")
    with np.errstate(over="ignore", invalid="ignore"):
        axes = [lo + (hi - lo) * (np.arange(quad_points) + 0.5) / quad_points for lo, hi in domain]
    if not all(np.isfinite(a).all() for a in axes):
        raise ValueError("the quadrature points of this domain are not finite")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    volume = float(np.prod((domain[:, 1] - domain[:, 0]) / quad_points))
    return points, volume


class _OgaspGrid(NamedTuple):
    """What the ogasp integrals take from the domain alone: the midpoint grid
    (N, p), its cell volume, one lag vector ``k h_l`` (k = 0..q-1) per axis
    and the squared domain volume that scales the ridge of G."""

    points: np.ndarray
    weight: float
    lags: list
    volume2: float


def _ogasp_grid(domain, quad_points: int | None, p: int) -> _OgaspGrid:
    """:class:`_OgaspGrid` of a domain; ``quad_points=None`` takes the default."""
    domain = np.atleast_2d(np.asarray(domain, dtype=float))
    with np.errstate(over="ignore"):
        volume2 = float(np.prod(domain[:, 1] - domain[:, 0]) ** 2)
    if volume2 == np.inf:
        raise NumericalError("the squared volume of the ogasp domain overflows")
    quad_points = quad_points or {1: 200, 2: 40}.get(p, 10)
    grid, w = quadrature_grid(domain, quad_points)
    if grid.shape[1] != p:
        raise ValueError("domain does not match the kernel dimension")
    spacing = (domain[:, 1] - domain[:, 0]) / quad_points
    lags = [np.arange(quad_points) * h for h in spacing]
    return _OgaspGrid(grid, w, lags, volume2)


def _toeplitz_factors(kernel: KernelSpec, gammas, lags) -> list:
    """Per-axis Toeplitz factors of the grid correlation at ranges ``gammas``."""
    return [toeplitz(_corr_1d(lag, kernel, gammas[l], l)) for l, lag in enumerate(lags)]


def _grid_corr_apply(V, factors) -> np.ndarray:
    """``corr_matrix(grid, grid, kernel) @ V`` on the midpoint grid, never formed.

    The grid is a tensor product of equispaced axes and the kernel a product
    kernel, so the grid correlation is the Kronecker product of one symmetric
    Toeplitz matrix per axis (:func:`_toeplitz_factors`).  Each factor acts on
    its own axis of ``V`` reshaped to ``(q,) * p + (m,)``, which matches the
    C-order rows of :func:`quadrature_grid`.
    """
    q, p = factors[0].shape[0], len(factors)
    V = V.reshape((q,) * p + (-1,))
    for l, T in enumerate(factors):
        V = np.moveaxis(np.tensordot(T, V, axes=(1, l)), 0, l)
    return V.reshape(q**p, -1)


def _projection(Dw, factors, volume2: float) -> np.ndarray:
    """Cholesky factor of ``G = Dw' C_grid Dw`` plus a small ridge.

    ``G`` is the quadrature of the gradient Gram integral; ``C_grid`` is
    applied per axis by :func:`_grid_corr_apply`.
    """
    p_theta = Dw.shape[1]
    G = Dw.T @ _grid_corr_apply(Dw, factors)
    trace = float(np.trace(G))
    if not trace > 0:
        raise NumericalError(
            "gradient projection matrix is singular; increase quad_points or "
            "check the model gradient"
        )
    # relative ridge for conditioning plus an absolute floor (scaled by the
    # squared domain volume, the gradient-free magnitude of G) so the
    # correction vanishes, rather than staying scale-invariant, as the
    # gradient magnitude goes to zero
    G = G + (1e-10 * trace / p_theta + 1e-12 * volume2) * np.eye(p_theta)
    try:
        LG, _ = cholesky_with_jitter(G)
    except NumericalError as err:
        raise NumericalError(
            "gradient projection matrix is singular; increase quad_points"
        ) from err
    return LG


def ogasp_kernel(Xa, Xb, base_kernel: KernelSpec, model_grad, domain, quad_points: int | None = None):
    """Orthogonally-constrained covariance between two sets of points.

    Subtracts from the base correlation the projection onto the computer
    model's parameter gradient, so that sample paths integrate to zero
    against each gradient component over the domain:

    ``c_o(x, x') = c(x, x') - g(x)' G^-1 g(x')`` with
    ``g(x) = int D(xi) c(x, xi) dxi`` and
    ``G = int int D(xi) D(xi')' c(xi, xi') dxi dxi'``,
    both integrals evaluated by a midpoint rule on a fixed grid of
    ``N = q^p`` points.  ``G`` is computed per axis from ``p q`` lag
    evaluations of the one-dimensional kernel, so no N x N grid correlation
    is formed; the cost is dominated by the ``m N`` kernel values between
    the points and the grid (for ``Xb``, built in cache-sized row blocks).

    Parameters
    ----------
    model_grad : callable
        Maps an (m, p) array of inputs to the (m, p_theta) array of
        derivatives of the computer model with respect to its parameters.
    """
    spec = DiscrepancySpec(OGASP, base_kernel, quad_points=quad_points)
    cov = _ModeCov(spec, Xa, domain, lambda theta: model_grad)
    if Xb is Xa:
        return cov.corr(base_kernel.ranges, ())
    return cov.cross(base_kernel.ranges, (), Xb)[0]


def model_grad_fd(model, theta, step: float = 1e-4):
    """Finite-difference derivative of a computer model w.r.t. its parameters.

    Returns a function mapping an (m, p) array of variable inputs to the
    (m, p_theta) derivative array at the fixed ``theta``.  Each component uses
    a central difference when both offsets stay in the box, and a one-sided
    (forward or backward) difference when ``theta`` is within ``step`` of an
    edge.  ``theta`` must lie in its box with room for at least one offset,
    which always holds when the box is at least ``2 * step`` wide.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    bounds = np.atleast_2d(np.asarray(model.theta_bounds, dtype=float))
    if step <= 0:
        raise ValueError("step must be positive")
    if np.any(theta < bounds[:, 0]) or np.any(theta > bounds[:, 1]):
        raise ValueError("theta must lie inside its box")
    # per-component offsets above and below theta: both inside the box
    # (central difference), or only the one that stays in it (one-sided)
    up = np.where(theta + step <= bounds[:, 1], step, 0.0)
    down = np.where(theta - step >= bounds[:, 0], step, 0.0)
    if np.any(up + down == 0):
        raise ValueError("the theta box is too narrow for the difference step")

    def grad(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], theta.size))
        for j in range(theta.size):
            hi = theta.copy()
            lo = theta.copy()
            hi[j] += up[j]
            lo[j] -= down[j]
            out[:, j] = (model.evaluate(X, hi) - model.evaluate(X, lo)) / (up[j] + down[j])
        return out

    return grad
