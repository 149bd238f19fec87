"""Parameter estimation: multi-start quasi-Newton MLE and a collapsed blockwise
adaptive random-walk Metropolis sampler, which walks (theta, psi, eta) with the
trend and the discrepancy variance integrated out and draws those two exactly
each iteration (collapsed Gibbs; Liu, JASA 1994)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .calibration import (
    PSI_OVERFLOW,
    _GLS,
    CalibParams,
    ComputerModel,
    FieldDataset,
    LikelihoodCore,
    ParamTransform,
    PredictiveResult,
    PriorSpec,
    _gls,
    _jr_log_prior,
    _check_param_rows,
    _predict,
    _theta_log_prior,
    initial_params,
)
from .discrepancy import DiscrepancySpec, _points
from .linalg import NumericalError
from .design import maximin_lhd, scale_to_domain

_BAD_OBJECTIVE = 1e10
_INITIAL_SCALE = 0.1  # every sampler block's random-walk scale before adaptation
_TARGET_ACCEPT = 0.3  # the acceptance rate that adaptation steers each scale toward


class OptimizationError(RuntimeError):
    """Every optimization start failed; carries per-start diagnostics."""

    def __init__(self, message, per_start=None):
        super().__init__(message)
        self.per_start = per_start or []


def _fd_grad(fun, x, step: float = 1e-5):
    """Central-difference gradient on the transformed scale."""
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def _multistart(objective, start_box, n_starts: int, seed: int, bounds, options: dict, jac=None):
    """Bounded L-BFGS-B from space-filling starts.

    The starts are a seeded maximin Latin hypercube scaled to ``start_box``
    (rows of (lower, upper)).  Returns the optimizer result of every start,
    in start order, and the index of the best one: the lowest finite
    objective, ties going to the lowest index (``None`` when no start ended
    finite).
    """
    from scipy.optimize import minimize  # only here, so importing gpcalib skips scipy.optimize

    _check_integer("n_starts", n_starts)
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    U = maximin_lhd(max(n_starts, 2), len(start_box), iterations=50, seed=seed)[:n_starts]
    results = [
        minimize(objective, x0, jac=jac, method="L-BFGS-B", bounds=bounds, options=options)
        for x0 in scale_to_domain(U, start_box)
    ]
    finite = [i for i, res in enumerate(results) if np.isfinite(res.fun)]
    best = min(finite, key=lambda i: (results[i].fun, i), default=None)
    return results, best


@dataclass
class MleResult:
    best_params: CalibParams
    best_loglik: float
    per_start: list
    sigma2_profiled: bool = True


def _psi_box(lengths) -> np.ndarray:
    """Per input of width ``lengths``, the log inverse range's start range
    (0.5 to 50 inverse widths) and optimizer bounds (1e-2 to 1e4), as 4 columns."""
    return np.column_stack(
        [np.log(0.5 / lengths), np.log(50.0 / lengths), np.log(1e-2 / lengths), np.log(1e4 / lengths)]
    )


def _maximize(posterior, z, free_idx, box, options: dict, n_starts: int, seed: int, sigma2_fixed=None):
    """Multi-start search of ``posterior``'s coordinates ``free_idx``, the rest of ``z`` held.

    The objective is the integrated ``log_marginal`` plus the correlation
    piece's log prior and Jacobian terms with a prior, else the
    log-likelihood at ``sigma2_fixed`` or ``Q / n``; ``_BAD_OBJECTIVE`` where
    pieces are missing or it is not finite.  ``box`` rows: start range, then
    bounds.  Returns ``z`` at the best start and one record per start.
    """
    block = None if posterior.tr.p_theta else "corr"

    def objective(zfree) -> float:
        z[free_idx] = zfree
        pieces = posterior._evaluate(z, block)[1]
        if pieces is None:
            return _BAD_OBJECTIVE
        _, (lp_corr, *_), fit = pieces
        ll = fit.loglik(sigma2_fixed) if posterior.prior is None else fit.log_marginal + lp_corr
        return -ll if np.isfinite(ll) else _BAD_OBJECTIVE

    bounds = [tuple(row) for row in box[:, 2:]]
    with np.errstate(all="ignore"):  # an overflowing fit scores _BAD_OBJECTIVE, so numpy need not warn
        if block:  # no theta coordinates: theta's piece never changes, so take it once
            posterior._current = posterior._theta_piece(z), None, None
        results, best = _multistart(
            objective, box[:, :2], n_starts, seed, bounds, options, jac=lambda x: _fd_grad(objective, x)
        )
    # a start counts as converged when it reached a finite optimum; an
    # abnormal line-search exit at a good value is still usable, so the
    # raw optimizer verdict is kept only as a diagnostic
    per_start = [
        {
            "index": idx,
            "converged": bool(np.isfinite(res.fun) and res.fun < _BAD_OBJECTIVE / 2),
            "loglik": -float(res.fun),
            "x": np.asarray(res.x),
            "optimizer_success": bool(res.success),
            "message": str(res.message),
        }
        for idx, res in enumerate(results)
    ]
    if best is None or not per_start[best]["converged"]:
        message = "no optimization start converged"
        if all(res.fun == _BAD_OBJECTIVE for res in results):
            message += (
                ": no point the search visited had a finite score (off the prior support,"
                " overflowing, or with a correlation that could not be factored)"
            )
            if posterior._last_error is not None:
                message += f"; the last factorization failed with: {posterior._last_error}"
        raise OptimizationError(message, per_start)
    z[free_idx] = results[best].x
    return z, per_start


def mle_fit(
    data: FieldDataset,
    model: ComputerModel,
    spec: DiscrepancySpec,
    n_starts: int = 10,
    seed: int = 0,
    sigma2_fixed: float | None = None,
    prior: PriorSpec | None = None,
) -> MleResult:
    """Maximize the marginal likelihood over transformed parameters.

    The optimizer searches theta (if the model has any), the inverse ranges
    and the nugget ratio, scoring each point with the sampler's pieces
    (:class:`_CalibPosterior`): :func:`_gls` profiles out the mean-basis
    coefficients and, unless ``sigma2_fixed`` pins it, the discrepancy
    variance (``Q / n``).  ``prior`` turns the fit into a posterior-mode
    search, as :func:`~gpcalib.emulator.emulator_fit` runs: the integrated
    marginal (trend and variance integrated out, so no ``sigma2_fixed``) plus
    the jointly robust prior of the inverse ranges and nugget ratio and its
    log-scale Jacobian (its theta density counts only through its support).
    A point off the support, with an overflowing exponential or an
    unfactorable correlation scores ``_BAD_OBJECTIVE``.
    """
    if sigma2_fixed is not None and not 0 < sigma2_fixed < np.inf:
        raise ValueError("sigma2_fixed must be positive and finite")
    if sigma2_fixed is not None and prior is not None:
        raise ValueError("prior= integrates the variance out, so it cannot be combined with sigma2_fixed=")
    if data.n <= spec.n_basis:
        raise ValueError("need more observations than mean basis functions")
    tr = ParamTransform(model.theta_bounds, spec.n_basis, data.p)
    posterior = _CalibPosterior(LikelihoodCore(data, model, spec), prior, tr)
    # start ranges and optimizer bounds; theta starts in the central 98% of its box
    box = np.zeros((tr.dim, 4))
    box[tr.theta_slice] = [np.log(0.01 / 0.99), np.log(0.99 / 0.01), -16.6, 16.6]
    box[tr.psi_slice] = _psi_box(data.lengths)
    box[tr.eta_index] = [np.log(1e-4), np.log(1.0), np.log(1e-9), np.log(1e3)]
    free_idx, options = np.r_[tr.theta_slice, tr.psi_slice, tr.eta_index], {"maxiter": 500, "ftol": 1e-8}
    z = np.zeros(tr.dim)  # the score reads neither the beta nor the sigma2 coordinates
    z, per_start = _maximize(posterior, z, free_idx, box[free_idx], options, n_starts, seed, sigma2_fixed)
    (theta, _, _), (*_, psi, eta), fit = posterior._evaluate(z, None)[1]
    sigma2 = fit.Q / data.n if sigma2_fixed is None else sigma2_fixed
    params = CalibParams(theta, fit.beta, psi, sigma2, eta)
    return MleResult(params, fit.loglik(sigma2), per_start, sigma2_profiled=sigma2_fixed is None)


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _sample_chain(posterior, blocks: dict, draw, z, lp: float, rng, n_iter: int, adapt_until: int):
    """Blockwise Gaussian random-walk Metropolis from ``z``, whose log posterior is ``lp``.

    Each iteration proposes a move of every block in turn, scored by
    ``posterior.score(z, block)``; ``posterior.accept()`` is told when the
    proposal it scored last is taken.  Then ``draw(z, rng) -> z`` runs.  It
    may move only coordinates that the score does not read, by an exact
    conditional draw, so the chain keeps its target.  Proposal scales start
    at ``_INITIAL_SCALE``, follow a Robbins-Monro recursion toward
    ``_TARGET_ACCEPT`` during the first ``adapt_until`` iterations (the
    burn-in) only and are frozen afterwards.  Returns the ``n_iter`` states,
    one per row, each block's acceptance rate after adaptation and the final
    scales.
    """
    out = np.empty((n_iter, z.size))
    scales = {name: _INITIAL_SCALE for name in blocks}
    accepted = dict.fromkeys(blocks, 0)
    normal, uniform, score, accept = rng.standard_normal, rng.random, posterior.score, posterior.accept
    sized = [(name, idx, idx.size) for name, idx in blocks.items()]
    for i in range(n_iter):
        adapting = i < adapt_until
        step_size = (i + 1) ** -0.6
        for name, idx, size in sized:
            prop = z.copy()
            prop[idx] = prop[idx] + scales[name] * normal(size)
            lp_new = float(score(prop, name))
            alpha = float(np.exp(min(0.0, lp_new - lp))) if math.isfinite(lp_new) else 0.0
            taken = uniform() < alpha
            if taken:
                z, lp = prop, lp_new
                accept()
            if adapting:
                scale = float(scales[name] * np.exp(step_size * (alpha - _TARGET_ACCEPT)))
                scales[name] = min(max(scale, 1e-6), 1e4)
            else:
                accepted[name] += taken
        z = draw(z, rng)
        out[i] = z
    return out, {name: accepted[name] / (n_iter - adapt_until) for name in blocks}, scales


@dataclass(frozen=True)
class PosteriorChain:
    """MCMC output in the original parameterization, one row per iteration."""

    samples: np.ndarray
    burn_in: int
    acceptance_rates: dict
    param_names: list
    theta_bounds: np.ndarray
    n_basis: int
    p_x: int
    proposal_scales: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D array")
        if not 0 <= self.burn_in < self.samples.shape[0]:
            raise ValueError("need samples beyond the burn-in")
        tr = ParamTransform(self.theta_bounds, self.n_basis, self.p_x)
        object.__setattr__(self, "_transform", tr)
        if self.samples.shape[1] != tr.dim or list(self.param_names) != tr.names:
            raise ValueError(
                f"a chain of {self.samples.shape[1]} columns named {list(self.param_names)}; "
                f"its theta box, n_basis and p_x lay out {tr.dim} columns named {tr.names}"
            )

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def post_burn_in(self) -> np.ndarray:
        return self.samples[self.burn_in :]

    def params_at(self, i: int) -> CalibParams:
        return self._transform.unpack(self.samples[i])


class _CalibPosterior:
    """Log posterior of (theta, psi, eta) on the transformed scale, with the
    trend coefficients and the discrepancy variance integrated out, carrying
    the current point.

    Under the flat prior on beta and ``1/sigma2`` on sigma2 it is the theta
    log prior, the jointly robust prior and the log-Jacobian of the theta, psi
    and eta coordinates plus :func:`_gls`'s
    ``log_marginal = -log|L| - log|L_M| - ((n - q)/2) log Q``; it reads
    neither the beta nor the sigma2 coordinates.  A value is assembled from
    three pieces: theta's (theta, its log prior plus Jacobian term and the
    model values ``f(X, theta)``), the correlation's (the jointly robust log
    prior plus the psi and eta Jacobian terms, the factor ``L`` of
    ``K + eta I``, ``log |L|``, psi and eta) and the GLS fit of
    ``y - f(X, theta)`` under ``L``.  ``score(z, block)`` recomputes the
    pieces a move of ``block`` changes, takes the rest from the current point
    and holds the result; ``accept()`` makes it current, whose fit is :attr:`gls`.
    ``score(z, None)`` and ``__call__(z)`` compute every piece, and
    ``__call__`` keeps nothing.  :func:`_maximize` scores with the pieces of
    ``_evaluate``, for which ``prior=None`` is flat.  The model values
    come through ``core.mean_vector``, whose cache serves steps at a fixed theta.
    """

    def __init__(self, core: LikelihoodCore, prior: PriorSpec | None, tr: ParamTransform):
        self.core = core
        self.prior = prior
        self.tr = tr
        self._theta_moves_corr = core.cov.reads_theta
        self._current = self._pending = None
        #: the message of the last NumericalError that a score turned into -inf
        self._last_error = None

    @property
    def gls(self) -> _GLS:
        """The GLS fit at the current point."""
        return self._current[2]

    def _theta_piece(self, z):
        """Theta's piece at ``z``; ``None`` where its log prior is -inf."""
        u, theta = self.tr._theta(z)
        lp_theta = _theta_log_prior(self.prior, theta, self.tr.theta_bounds)
        if lp_theta == -np.inf:
            return None
        return theta, lp_theta + self.tr._theta_log_jacobian(u), self.core.mean_vector(theta)

    def _evaluate(self, z, block):
        """``(log posterior, pieces)`` at ``z``; no pieces where it is -inf."""
        tr, core = self.tr, self.core
        theta_piece, corr_piece, _ = self._current or (None,) * 3
        if not np.isfinite(z).all():
            return -np.inf, None
        if block in (None, "theta"):
            theta_piece = self._theta_piece(z)
        if theta_piece is None:
            return -np.inf, None
        theta, lp_theta, fm = theta_piece
        refactor = block != "theta" or self._theta_moves_corr
        if block != "theta":
            psi, eta = tr._corr(z)
            if not ((psi > PSI_OVERFLOW).all() and np.isfinite(psi).all() and np.isfinite(eta)):
                return -np.inf, None  # exp over- or underflow, or a range 1/psi that overflows
            # the psi and eta coordinates are logs, so each is its own log-Jacobian term
            lp_corr = _jr_log_prior(self.prior, psi, eta, float(z[tr.psi_slice].sum()) + z[tr.eta_index])
            if not np.isfinite(lp_corr):
                return -np.inf, None
        elif refactor:  # a theta move that moves K keeps psi and eta, so their prior terms
            lp_corr, _, _, psi, eta = corr_piece
        if refactor:
            try:
                L, _ = core.corr_chol(psi, eta, theta)
            except NumericalError as err:
                self._last_error = str(err)
                return -np.inf, None
            corr_piece = lp_corr, L, core.logdet_half(L), psi, eta
        lp_corr, L, logdet = corr_piece[:3]
        gls = _gls(L, core.H, core.data.y - fm, logdet)
        return lp_theta + lp_corr + gls.log_marginal, (theta_piece, corr_piece, gls)

    def __call__(self, z) -> float:
        return self._evaluate(z, None)[0]

    def score(self, z, block) -> float:
        lp, self._pending = self._evaluate(z, block)
        return lp

    def accept(self) -> None:
        self._current = self._pending


def mcmc_run(
    data: FieldDataset,
    model: ComputerModel,
    spec: DiscrepancySpec,
    prior: PriorSpec | None = None,
    S: int = 50_000,
    burn_in: int = 10_000,
    seed: int = 0,
    initial: CalibParams | None = None,
    update_theta: bool = True,
    update_corr: bool = True,
) -> PosteriorChain:
    """Collapsed blockwise Metropolis sampler for the calibration posterior.

    The Metropolis chain walks two blocks, the calibration parameters and the
    correlation parameters (inverse ranges and nugget ratio, jointly), on
    their posterior with the mean-basis coefficients (flat prior) and the
    discrepancy variance (prior 1/sigma2) integrated out.  After the blocks,
    each iteration draws the variance from its inverse-gamma conditional
    ``IG((n - q)/2, Q/2)`` and then the coefficients from
    ``N(beta_hat, sigma2 (H' K^-1 H)^-1)``, both given the current
    (theta, psi, eta); so the joint target is unchanged.  Proposal scales
    adapt during burn-in only.  The returned chain stores every iteration in
    the original parameterization.  A start off the posterior's support
    raises ``ValueError``; one whose correlation cannot be factored, or whose
    log posterior overflows, raises :class:`NumericalError`.
    """
    _check_integer("S", S)
    _check_integer("burn_in", burn_in)
    if S <= burn_in or burn_in < 0:
        raise ValueError("need S > burn_in >= 0")
    n, q = data.n, spec.n_basis
    if n <= q:
        raise ValueError("need more observations than mean basis functions")
    if prior is None:
        prior = PriorSpec.default(data)
    core = LikelihoodCore(data, model, spec)
    tr = ParamTransform(model.theta_bounds, spec.n_basis, data.p)
    if initial is None:
        initial = initial_params(data, model, spec)
    z0 = tr.to_vector(initial)

    posterior = _CalibPosterior(core, prior, tr)

    blocks = {}
    if update_theta:
        blocks["theta"] = np.r_[tr.theta_slice]
    if update_corr:
        blocks["corr"] = np.r_[tr.psi_slice, tr.eta_index]
    sigma2_idx, beta_idx = tr.sigma2_index, tr.beta_slice

    def draw_sigma2_beta(z, rng):
        gls = posterior.gls
        z = z.copy()
        z[sigma2_idx] = s = np.log(gls.Q / 2.0 / rng.gamma((n - q) / 2.0))
        if q:  # beta_hat + sigma LM'^-1 e has covariance sigma2 (LM LM')^-1
            # LM is C-ordered, so its transpose is the Fortran-ordered upper factor
            e = dtrtrs(gls.LM.T, rng.standard_normal(q), lower=0)[0]
            z[beta_idx] = gls.beta + np.exp(0.5 * s) * e
        return z

    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # a proposal that overflows scores -inf, so numpy need not warn
        lp = posterior.score(z0, None)
        if not np.isfinite(lp):
            message = "log posterior is not finite at the initial point"
            if posterior._pending is not None:  # every piece exists, so the value overflowed
                raise NumericalError(message)
            # off the prior support, unless the start's correlation cannot be factored
            core.corr_chol(initial.psi_delta, initial.eta, initial.theta)
            raise ValueError(message)
        posterior.accept()
        z_samples, rates, scales = _sample_chain(posterior, blocks, draw_sigma2_beta, z0, lp, rng, S, burn_in)

    samples = np.column_stack(tr._split(z_samples)[1:])
    return PosteriorChain(
        samples=samples,
        burn_in=burn_in,
        acceptance_rates=rates,
        param_names=tr.names,
        theta_bounds=model.theta_bounds,
        n_basis=tr.n_basis,
        p_x=tr.p_x,
        proposal_scales=scales,
    )


#: Fewest post-burn-in samples :func:`posterior_summary` summarizes.
MIN_SUMMARY_SAMPLES = 100


def posterior_summary(chain: PosteriorChain) -> dict:
    """Medians, means and central 95% intervals on post-burn-in samples."""
    kept = chain.post_burn_in()
    if kept.shape[0] < MIN_SUMMARY_SAMPLES:
        raise ValueError(f"need at least {MIN_SUMMARY_SAMPLES} post-burn-in samples to summarize")
    out = {}
    for j, name in enumerate(chain.param_names):
        col = kept[:, j]
        lo, hi = np.percentile(col, [2.5, 97.5])
        out[name] = {
            "median": float(np.median(col)),
            "mean": float(np.mean(col)),
            "lower95": float(lo),
            "upper95": float(hi),
        }
    return out


def predict_posterior(
    chain: PosteriorChain,
    data: FieldDataset,
    model: ComputerModel,
    spec: DiscrepancySpec,
    Xstar,
    thin: int = 25,
) -> PredictiveResult:
    """Posterior-averaged prediction over every ``thin``-th retained sample.

    Means are averaged across samples; the reported variance is the mean of
    the per-sample variances plus the across-sample variance of the full
    means (law of total variance).  Running sums and a Welford update of the
    full means keep the memory to a few vectors of the length of ``Xstar``.
    The chain's layout and the rows read are checked once, up front; a bad
    row raises ``ValueError`` naming it (counted from 1 in ``chain.samples``).
    """
    _check_integer("thin", thin)
    if thin < 1:
        raise ValueError("thin must be >= 1")
    core = LikelihoodCore(data, model, spec)
    tr = ParamTransform(model.theta_bounds, spec.n_basis, data.p)
    layout = (chain._transform.p_theta, chain.n_basis, chain.p_x)
    if layout != (tr.p_theta, tr.n_basis, tr.p_x):
        raise ValueError(
            f"chain of theta, beta and psi blocks of lengths {layout}; "
            f"the model, mean basis and data need {(tr.p_theta, tr.n_basis, tr.p_x)}"
        )
    rows = slice(chain.burn_in, None, thin)
    _check_param_rows(chain.samples, tr, rows)
    Xstar = _points(Xstar, data.p)
    model_sum = full_sum = var_sum = mean = m2 = 0.0
    for S, row in enumerate(chain.samples[rows], start=1):
        res = _predict(core, Xstar, *tr._blocks(row))
        model_sum += res.model_mean
        full_sum += res.full_mean
        var_sum += res.variance
        delta = res.full_mean - mean
        mean += delta / S
        m2 += delta * (res.full_mean - mean)
    return PredictiveResult(model_sum / S, full_sum / S, var_sum / S + m2 / S)
