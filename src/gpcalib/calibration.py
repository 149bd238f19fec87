"""Field-data calibration model: likelihood, priors, transforms, prediction.

The sampling model for ``n`` field observations is

    y_i = f(x_i, theta) + mu(x_i) + delta(x_i) + eps_i,

with ``f`` the computer model, ``mu`` an optional regression mean, ``delta``
a discrepancy process (plain, scaled, or orthogonal; see
:mod:`gpcalib.discrepancy`) and i.i.d. Gaussian noise.  Marginally,

    y | params ~ MN(f + mu, sigma2 * (K + eta * I)),

where ``K`` is the discrepancy correlation matrix of the chosen mode and
``eta`` is the noise-to-discrepancy variance ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

from . import discrepancy as dm
from .discrepancy import DiscrepancySpec
from .linalg import LOG_2PI, _tri_inv, cholesky_with_jitter

#: Additive floor used when log-transforming the nugget ratio, so eta = 0 maps
#: to a finite coordinate and back exactly.
ETA_FLOOR = 1e-12

#: The largest inverse range whose range ``1 / psi`` overflows to infinity.
PSI_OVERFLOW = 2.0**-1024


@dataclass(frozen=True)
class FieldDataset:
    """Observed field data on a rectangular input domain.

    Duplicate design rows are rejected: they make the discrepancy correlation
    matrix exactly singular when the nugget ratio is zero.  ``X``, ``y`` and
    ``domain`` are read-only copies, which later writes to the caller's arrays miss.
    """

    X: np.ndarray
    y: np.ndarray
    domain: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.shape[0] == 1 and np.asarray(self.X).ndim == 1 and np.asarray(self.X).size > 1:
            X = X.T
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        domain = np.atleast_2d(np.asarray(self.domain, dtype=float))
        if X.shape[0] != y.size:
            raise ValueError("X and y disagree on the number of observations")
        if X.shape[0] < 2:
            raise ValueError("need at least two observations")
        with np.errstate(over="ignore", invalid="ignore"):  # an inf width is an error, not a warning
            finite = np.all(np.isfinite(np.diff(domain)))  # a finite width, so finite ends too
        if domain.shape != (X.shape[1], 2) or not finite or np.any(domain[:, 1] <= domain[:, 0]):
            raise ValueError("domain must be one (lower, upper) pair of finite width per input dimension")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("X and y must be finite (no NaN or infinity)")
        if np.any(X < domain[:, 0]) or np.any(X > domain[:, 1]):
            raise ValueError("design rows must lie inside the domain rectangle")
        if np.unique(X, axis=0).shape[0] != X.shape[0]:
            raise ValueError("duplicated design rows are not allowed")
        for name, value in (("X", X), ("y", y), ("domain", domain)):
            object.__setattr__(self, name, value.copy())
            getattr(self, name).flags.writeable = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def lengths(self) -> np.ndarray:
        return self.domain[:, 1] - self.domain[:, 0]


@dataclass(frozen=True)
class ComputerModel:
    """Deterministic computer model ``f(x, theta)`` with a parameter box.

    ``evaluator`` takes a single input vector and a parameter vector and
    returns a scalar; set ``vectorized=True`` when it instead accepts an
    (m, p) array of inputs and returns an (m,) vector.  ``theta_grad``, when
    supplied, maps ``(X, theta)`` to the (m, p_theta) array of parameter
    derivatives and is used instead of finite differences.
    """

    evaluator: Callable
    theta_bounds: np.ndarray
    vectorized: bool = False
    theta_grad: Callable | None = None

    def __post_init__(self):
        bounds = np.atleast_2d(np.asarray(self.theta_bounds, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):  # an inf width is an error, not a warning
            finite = bounds.shape[1] == 2 and np.all(np.isfinite(np.diff(bounds)))  # so finite ends too
        if not finite or np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ValueError("theta_bounds must be rows of (lower, upper) of finite width")
        object.__setattr__(self, "theta_bounds", bounds)

    @property
    def p_theta(self) -> int:
        return self.theta_bounds.shape[0]

    def evaluate(self, X, theta) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.vectorized:
            return np.asarray(self.evaluator(X, theta), dtype=float).reshape(X.shape[0])
        return np.array([float(self.evaluator(x, theta)) for x in X])

    def grad_fn(self, theta) -> Callable:
        """Parameter-gradient function at fixed theta: analytic if available,
        else finite differences with step 1e-4, or half the narrowest box width
        when that is smaller."""
        if self.theta_grad is not None:
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            return lambda X: np.atleast_2d(np.asarray(self.theta_grad(np.atleast_2d(X), theta), dtype=float))
        return dm.model_grad_fd(self, theta, float(np.min(np.diff(self.theta_bounds) / 2, initial=1e-4)))


@dataclass(frozen=True)
class CalibParams:
    """Full parameter vector of the calibration model.

    ``psi_delta`` are inverse ranges (1/gamma per input dimension),
    ``sigma2_delta`` the discrepancy variance and ``eta`` the
    noise-to-discrepancy variance ratio, so the noise variance is
    ``eta * sigma2_delta``.
    """

    theta: np.ndarray
    beta_delta: np.ndarray
    psi_delta: np.ndarray
    sigma2_delta: float
    eta: float

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        beta = np.asarray(self.beta_delta, dtype=float).reshape(-1)
        psi = np.atleast_1d(np.asarray(self.psi_delta, dtype=float))
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(beta))):
            raise ValueError("theta and beta_delta must be finite")
        if np.any(psi <= PSI_OVERFLOW) or not np.all(np.isfinite(psi)):
            raise ValueError("psi_delta must be positive, with a finite range 1/psi_delta")
        if not 0 < self.sigma2_delta < np.inf:
            raise ValueError("sigma2_delta must be positive and finite")
        if not 0 <= self.eta < np.inf:
            raise ValueError("eta must be non-negative and finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "beta_delta", beta)
        object.__setattr__(self, "psi_delta", psi)
        object.__setattr__(self, "sigma2_delta", float(self.sigma2_delta))
        object.__setattr__(self, "eta", float(self.eta))

    @property
    def sigma2_noise(self) -> float:
        return self.eta * self.sigma2_delta

    def _check_lengths(self, p_theta: int, n_basis: int, p_x: int) -> None:
        """Reject theta, beta and psi blocks whose lengths are not
        ``(p_theta, n_basis, p_x)``."""
        for name, size in (("theta", p_theta), ("beta_delta", n_basis), ("psi_delta", p_x)):
            if getattr(self, name).size != size:
                raise ValueError(f"{name} has length {getattr(self, name).size}, expected {size}")

    def gamma(self) -> np.ndarray:
        return 1.0 / self.psi_delta


@dataclass(frozen=True)
class PriorSpec:
    """Prior over the transformed calibration parameters.

    The correlation parameters get the jointly robust prior

        pi(psi, eta) ~ (sum_l C_l psi_l + eta)^a * exp(-b (sum_l C_l psi_l + eta)),

    the discrepancy variance the scale prior 1/sigma2, and theta either a
    uniform over its box (default) or a user log-density.
    """

    jr_a: float
    jr_b: float
    jr_C: np.ndarray
    theta_log_prior: Callable | None = None

    def __post_init__(self):
        C = np.atleast_1d(np.asarray(self.jr_C, dtype=float))
        p = C.size
        if not self.jr_a > -p - 1:
            raise ValueError("jr_a must exceed -p_x - 1")
        if not self.jr_b > 0:
            raise ValueError("jr_b must be positive")
        if np.any(C <= 0):
            raise ValueError("jr_C must be positive")
        object.__setattr__(self, "jr_C", C)

    @classmethod
    def default(cls, data: FieldDataset, theta_log_prior: Callable | None = None) -> "PriorSpec":
        p = data.p
        C = data.lengths * data.n ** (-1.0 / p)
        return cls(jr_a=0.5 - p, jr_b=1.0, jr_C=C, theta_log_prior=theta_log_prior)


@dataclass
class PredictiveResult:
    """Per-point predictive summaries at new inputs."""

    model_mean: np.ndarray
    full_mean: np.ndarray
    variance: np.ndarray


def basis_matrix(X, mean_basis) -> np.ndarray:
    """Design matrix with one column per function of ``mean_basis``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if len(mean_basis) == 0:
        return np.zeros((X.shape[0], 0))
    return np.column_stack([np.asarray(h(X), dtype=float).reshape(-1) for h in mean_basis])


def _full_rank_basis(X, mean_basis) -> np.ndarray:
    """:func:`basis_matrix`; ``ValueError`` when its columns are linearly dependent."""
    H = basis_matrix(X, mean_basis)
    if np.linalg.matrix_rank(H) < H.shape[1]:
        raise ValueError("mean basis is rank deficient on the design")
    return H


def mean_basis_eval(X, spec: DiscrepancySpec, beta) -> np.ndarray:
    """Mean discrepancy ``sum_j h_j(x_i) beta_j``; zero when the basis is empty."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if spec.n_basis == 0:
        return np.zeros(X.shape[0])
    if beta.size != spec.n_basis:
        raise ValueError("beta length does not match the mean basis")
    return basis_matrix(X, spec.mean_basis) @ beta


class LikelihoodCore:
    """Marginal likelihood evaluator with reusable correlation factorizations.

    Splitting the computation into a correlation part (depends on psi, eta
    and, in orthogonal mode, theta) and a mean part (theta, beta) lets the
    sampler re-use the Cholesky factor across moves of theta alone.

    The mode's correlation comes from ``cov``, a ``discrepancy._ModeCov``
    over the design and domain built once here, which checks the spec against
    them and caches what the design and the last ranges and theta determine
    (see its docstring).  A proposal then goes from (psi, eta, theta) to
    kernel values and one factorization.  The model's values at the design
    are kept for the last theta, under its bytes.  psi is not checked here:
    each must exceed :data:`PSI_OVERFLOW`, as :class:`CalibParams`, the row
    check and the shared scorer ensure.
    """

    def __init__(self, data: FieldDataset, model: ComputerModel, spec: DiscrepancySpec):
        self.cov = dm._ModeCov(spec, data.X, data.domain, model.grad_fn)
        self.data = data
        self.model = model
        self.spec = spec
        self.H = _full_rank_basis(data.X, spec.mean_basis)
        self._theta_cache: tuple[bytes, np.ndarray] | None = None

    def mean_vector(self, theta, beta=None) -> np.ndarray:
        """``f(X, theta) + H beta`` at the design, or ``f(X, theta)`` without ``beta``."""
        key = np.atleast_1d(np.asarray(theta, dtype=float)).tobytes()
        if self._theta_cache is not None and self._theta_cache[0] == key:
            fm = self._theta_cache[1]
        else:
            fm = self.model.evaluate(self.data.X, theta)
            self._theta_cache = (key, fm)
        if beta is not None and self.H.shape[1]:
            return fm + self.H @ np.asarray(beta, dtype=float).reshape(-1)
        return fm

    def corr_chol(self, psi, eta, theta=None):
        """Cholesky factor of K + eta I (correlation scale) and the jitter used."""
        # cov.corr returns a fresh array, so it takes the nugget in place
        K = self.cov.corr(1.0 / np.atleast_1d(np.asarray(psi, dtype=float)), theta)
        if eta > 0:
            K.flat[:: K.shape[0] + 1] += eta
        return cholesky_with_jitter(K)

    @staticmethod
    def logdet_half(L) -> float:
        """``log |L L'| / 2``, the sum of the log diagonal of ``L``."""
        return float(np.log(L.diagonal()).sum())

    def loglik_from_chol(self, L, resid, sigma2: float) -> float:
        """Log-likelihood at ``sigma2`` given the correlation factor ``L``."""
        return _gls(L, self.H[:, :0], resid, self.logdet_half(L)).loglik(sigma2)

    def loglik(self, params: CalibParams) -> float:
        params._check_lengths(self.model.p_theta, self.spec.n_basis, self.data.p)
        L, _ = self.corr_chol(params.psi_delta, params.eta, params.theta)
        resid = self.data.y - self.mean_vector(params.theta, params.beta_delta)
        return self.loglik_from_chol(L, resid, params.sigma2_delta)


class _GLS(NamedTuple):
    """Generalized-least-squares trend fit under one correlation factor."""

    L: np.ndarray
    RinvH: np.ndarray
    LM: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    Q: float
    logdet: float
    log_marginal: float

    @property
    def sigma2(self) -> float:
        """The variance estimate ``Q / (n - q)``."""
        return self.Q / (self.L.shape[0] - self.LM.shape[0])

    def loglik(self, sigma2: float | None = None) -> float:
        """Gaussian log-likelihood at the trend ``beta`` and the variance
        ``sigma2``, or its maximizer ``Q / n`` when none is given."""
        n = self.L.shape[0]
        s2 = self.Q / n if sigma2 is None else sigma2
        return -0.5 * n * (LOG_2PI + np.log(s2)) - self.logdet - 0.5 * self.Q / s2

    def krige(self, h, r, c0):
        """Kriging mean ``h beta + r' alpha`` and correlation-scale variance
        ``max(c0 - ||L^-1 r||^2 + ||L_M^-1 u||^2, 0)``, ``u = h' - H' R^-1 r``, at
        new points with correlation ``r`` (n, k) to the design, prior correlation
        ``c0`` and trend basis ``h`` (k, q); the trend terms are formed, and ``h``
        read, only when ``q > 0``."""
        V = _tri_inv(self.L) @ r
        mean, cstar = r.T @ self.alpha, c0 - np.einsum("ij,ij->j", V, V)
        if self.LM.shape[0]:
            u = h.T - self.RinvH.T @ r
            # LM is C-ordered, so its transpose is the Fortran-ordered upper factor
            w = dtrtrs(self.LM.T, u, lower=0, trans=1)[0]
            mean, cstar = h @ self.beta + mean, cstar + np.einsum("ij,ij->j", w, w)
        return mean, np.maximum(cstar, 0.0)


def _gls(L, H, y, logdet) -> _GLS:
    """Fit the trend ``H beta`` to ``y`` under the factor ``L`` of ``R = L L'``,
    with ``logdet = log |L|`` from the caller, which the fit keeps.

    ``beta`` is the GLS estimate, ``LM`` the factor of ``M = H' R^-1 H``,
    ``alpha = R^-1 (y - H beta)`` the kriging weights and ``Q`` the quadratic
    form ``(y - H beta)' alpha``, floored at 1e-300 (an overflow to -inf is
    inf).  ``log_marginal`` is the log-likelihood with the trend (flat prior)
    and the variance (prior ``1/sigma2``) integrated out, up to a constant:
    ``-log|L| - log|LM| - ((n - q)/2) log Q``.  An empty basis costs one solve.
    """
    n, q = H.shape
    if not q:  # an empty basis: a zero trend, nothing to estimate
        RinvH, LM, beta, resid, logdet_M = H, np.zeros((0, 0)), np.zeros(0), y, 0.0
    else:
        RinvH = dpotrs(L, H, lower=1)[0]
        M = H.T @ RinvH
        LM = np.linalg.cholesky(M + 1e-12 * np.trace(M) / q * np.eye(q))
        beta = dpotrs(LM, H.T @ dpotrs(L, y, lower=1)[0], lower=1)[0]
        resid, logdet_M = y - H @ beta, float(np.sum(np.log(np.diag(LM))))
    alpha = dpotrs(L, resid, lower=1)[0]
    Q = float(resid @ alpha)
    Q = max(Q, 1e-300) if Q != -np.inf else np.inf  # terms that overflow both ways are no perfect fit
    return _GLS(L, RinvH, LM, beta, alpha, Q, logdet, -logdet - logdet_M - 0.5 * (n - q) * np.log(Q))


def marginal_loglik(
    params: CalibParams,
    data: FieldDataset,
    model: ComputerModel,
    spec: DiscrepancySpec,
) -> float:
    """Exact Gaussian log-likelihood of the field data.

    The covariance is ``sigma2 * (K + eta I)`` with ``K`` the mode-specific
    discrepancy correlation; the mean is the computer model plus the mean
    discrepancy.
    """
    return LikelihoodCore(data, model, spec).loglik(params)


def log_prior(params: CalibParams, prior: PriorSpec, theta_bounds=None) -> float:
    """Unnormalized log prior; -inf outside the support."""
    if prior.jr_C.size != params.psi_delta.size:
        raise ValueError("prior C length does not match psi")
    if theta_bounds is not None:
        theta_bounds = np.atleast_2d(np.asarray(theta_bounds, dtype=float))
    lp_theta = _theta_log_prior(prior, params.theta, theta_bounds)
    return _jr_log_prior(prior, params.psi_delta, params.eta, lp_theta) - np.log(params.sigma2_delta)


def _theta_log_prior(prior: PriorSpec | None, theta, theta_bounds=None) -> float:
    """The theta term of :func:`log_prior` on an unchecked theta: 0 or the user
    log-density (0 for no prior), -inf outside ``theta_bounds`` or where not finite."""
    if theta_bounds is not None and not (
        (theta >= theta_bounds[:, 0]).all() and (theta <= theta_bounds[:, 1]).all()
    ):
        return -np.inf
    if prior is None or prior.theta_log_prior is None:
        return 0.0
    lp_theta = float(prior.theta_log_prior(theta))
    return lp_theta if np.isfinite(lp_theta) else -np.inf


def _jr_log_prior(prior: PriorSpec | None, psi, eta=0.0, lp=0.0) -> float:
    """``lp + a log t - b t`` with ``t = C psi + eta``: the log jointly robust
    prior at ``(psi, eta)`` added to ``lp`` in that order; -inf off its support.
    ``prior=None`` is flat: ``lp``."""
    if prior is None:
        return lp
    t = float(prior.jr_C @ psi + eta)
    return lp + prior.jr_a * np.log(t) - prior.jr_b * t if t > 0 else -np.inf


def _logistic(x):
    """``1 / (1 + exp(-x))``; 0 where ``exp(-x)`` overflows."""
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class ParamTransform:
    """Bijection between CalibParams and an unconstrained vector; the one owner
    of the vector layout, which chain rows and ``posterior.csv`` share.

    Layout (:attr:`names`): theta, beta, psi blocks at ``theta_slice``,
    ``beta_slice`` and ``psi_slice``, then sigma2 and eta at ``sigma2_index``
    and ``eta_index``.  Transformed: scaled-logit theta, beta unchanged,
    log psi, log sigma2, log(eta + floor).
    """

    theta_bounds: np.ndarray
    n_basis: int
    p_x: int

    def __post_init__(self):
        bounds = np.atleast_2d(np.asarray(self.theta_bounds, dtype=float))
        theta_end = bounds.shape[0]
        beta_end = theta_end + self.n_basis
        psi_end = beta_end + self.p_x
        width = bounds[:, 1] - bounds[:, 0]
        sizes = (("theta", theta_end), ("beta", self.n_basis), ("psi", self.p_x))
        layout = {
            "theta_bounds": bounds,
            "theta_slice": slice(0, theta_end),
            "beta_slice": slice(theta_end, beta_end),
            "psi_slice": slice(beta_end, psi_end),
            "sigma2_index": psi_end,
            "eta_index": psi_end + 1,
            "p_theta": theta_end,
            "dim": psi_end + 2,
            "names": [f"{b}_{i+1}" for b, k in sizes for i in range(k)] + ["sigma2_delta", "eta"],
            "_lower": bounds[:, 0],
            "_width": width,
            "_log_width": np.log(width),
        }
        for name, value in layout.items():
            object.__setattr__(self, name, value)

    def unpack(self, row) -> CalibParams:
        """The parameters of a length-``dim`` row on the original scale."""
        return CalibParams(*self._blocks(row))

    def _blocks(self, row):
        """Unchecked ``(theta, beta, psi, sigma2, eta)`` of a row on the original scale."""
        blocks = self.theta_slice, self.beta_slice, self.psi_slice, self.sigma2_index, self.eta_index
        return tuple(row[b] for b in blocks)

    def to_vector(self, params: CalibParams) -> np.ndarray:
        params._check_lengths(self.p_theta, self.n_basis, self.p_x)
        u = (params.theta - self._lower) / self._width
        if np.any(u <= 0) or np.any(u >= 1):
            raise ValueError("theta must be strictly inside its box to transform")
        z_theta = np.log(u) - np.log1p(-u)
        return np.concatenate(
            [
                z_theta,
                params.beta_delta,
                np.log(params.psi_delta),
                [np.log(params.sigma2_delta)],
                [np.log(params.eta + ETA_FLOOR)],
            ]
        )

    def _split(self, z):
        """Unchecked read of a length-``dim`` vector, or of rows of such vectors.

        Returns ``(u, theta, beta, psi, sigma2, eta)`` with ``u`` the logistic
        of the theta coordinates; exponentials may overflow to inf.
        """
        u, theta = self._theta(z)
        psi, eta = self._corr(z)
        return u, theta, z[..., self.beta_slice], psi, np.exp(z[..., self.sigma2_index]), eta

    def _theta(self, z):
        """``(u, theta)`` of :meth:`_split`."""
        u = _logistic(z[..., self.theta_slice])
        return u, self._lower + self._width * u

    def _corr(self, z):
        """``(psi, eta)`` of :meth:`_split`."""
        eta = np.maximum(np.exp(z[..., self.eta_index]) - ETA_FLOOR, 0.0)
        return np.exp(z[..., self.psi_slice]), eta

    def _theta_log_jacobian(self, u) -> float:
        """``log |d theta / d z|`` over the theta coordinates, given ``u`` from
        :meth:`_split`; the log-scale coordinates add their own values."""
        return float((self._log_width + np.log(u) + np.log1p(-u)).sum())

    def from_vector(self, z) -> CalibParams:
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.size != self.dim:
            raise ValueError(f"expected vector of length {self.dim}, got {z.size}")
        return CalibParams(*self._split(z)[1:])


def predict(
    params: CalibParams,
    data: FieldDataset,
    model: ComputerModel,
    spec: DiscrepancySpec,
    Xstar,
) -> PredictiveResult:
    """Plug-in predictive distribution at new inputs.

    Per new point x*: the model-only mean ``f(x*, theta) + mu(x*)``, the full
    mean adding the conditional discrepancy, and the predictive variance
    ``sigma2 * c* + sigma2 * eta`` where ``c*`` is the conditional
    correlation-scale variance.  The given ``beta`` enters as an offset: with
    ``L L' = K + eta I``, the cross correlation ``r`` and the prior
    correlation ``c0`` of the mode, :meth:`_GLS.krige` over the empty trend
    basis of ``y - f - mu`` gives the conditional discrepancy mean
    ``r' (K + eta I)^-1 (y - f - mu)`` and ``c* = c0 - ||L^-1 r||^2``.  In
    ogasp mode one gradient projection serves ``K``, ``r`` and ``c0``; in
    sgasp mode one factor of ``RC + c I`` does (``R + c I`` with the default
    constraint points).
    """
    params._check_lengths(model.p_theta, spec.n_basis, data.p)
    blocks = params.theta, params.beta_delta, params.psi_delta, params.sigma2_delta, params.eta
    return _predict(LikelihoodCore(data, model, spec), dm._points(Xstar, data.p), *blocks)


def _predict(core: LikelihoodCore, Xstar, theta, beta, psi, sigma2, eta) -> PredictiveResult:
    """:func:`predict` by ``core`` at a 2-D ``Xstar`` and a parameter row's unchecked blocks."""
    data, model, spec = core.data, core.model, core.spec
    L, _ = core.corr_chol(psi, eta, theta)
    resid = data.y - core.mean_vector(theta, beta)
    model_mean = model.evaluate(Xstar, theta) + mean_basis_eval(Xstar, spec, beta)
    # no trend to fit, no log |L| to read; all k-vectors exist before the step frees its (n, k)
    # arrays, as freeing those first made glibc trim and re-fault the heap every posterior sample
    fit = _gls(L, core.H[:, :0], resid, 0.0)
    full_mean, variance = fit.krige(None, *core.cov.cross(1.0 / psi, theta, Xstar))
    full_mean += model_mean
    variance *= sigma2
    variance += eta * sigma2
    return PredictiveResult(model_mean=model_mean, full_mean=full_mean, variance=variance)


def _check_param_rows(M, tr: ParamTransform, rows=slice(None)) -> None:
    """Reject the ``rows`` of ``M``, parameter rows in ``tr``'s layout, that no fit can
    produce, by a ``ValueError`` naming the first bad one, counted from 1 in ``M``."""
    theta, _, psi, sigma2, eta = tr._blocks(M[rows].T)
    bounds = tr.theta_bounds[..., None]
    bad = ~np.isfinite(M[rows]).all(axis=1) | (psi <= PSI_OVERFLOW).any(axis=0) | (sigma2 <= 0) | (eta < 0)
    bad |= ((theta < bounds[:, 0]) | (theta > bounds[:, 1])).any(axis=0)
    if bad.any():
        raise ValueError(
            f"parameter row {np.arange(M.shape[0])[rows][np.argmax(bad)] + 1} must be finite, with psi "
            "and sigma2_delta positive, eta non-negative and theta inside theta_bounds"
        )


def initial_params(
    data: FieldDataset,
    model: ComputerModel,
    spec: DiscrepancySpec,
    theta=None,
    eta: float = 0.01,
) -> CalibParams:
    """Reasonable starting point: box-center theta, half-domain ranges, zero
    trend and unit variance.  No model run: the sampler draws the trend and
    the variance before it stores a row, and reads neither before that."""
    bounds = model.theta_bounds
    if theta is None:
        theta = 0.5 * (bounds[:, 0] + bounds[:, 1])
    return CalibParams(theta, np.zeros(spec.n_basis), 2.0 / data.lengths, 1.0, eta)
