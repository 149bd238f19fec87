"""Two-step calibration baselines.

* ``l2_calibrate`` - regress the field data on a Gaussian process first, then
  pick the parameters minimizing the squared distance between that surrogate
  and the computer model over the input domain.
* ``ls_calibrate`` - least squares on the raw observations, then a Gaussian
  process on the residuals for prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibration import CalibParams, ComputerModel, FieldDataset, PredictiveResult, PriorSpec, predict
from .design import scale_to_domain
from .discrepancy import GASP, DiscrepancySpec
from .emulator import _ZERO_MODEL, _intercept
from .inference import OptimizationError, _multistart, mle_fit
from .kernels import KernelSpec
from .linalg import NumericalError


@dataclass
class SurrogateFit:
    """Constant-mean Gaussian-process regression of observations on inputs."""

    data: FieldDataset
    spec: DiscrepancySpec
    params: CalibParams

    def predict(self, Xstar) -> PredictiveResult:
        return predict(self.params, self.data, _ZERO_MODEL, self.spec, Xstar)


def fit_field_gasp(data: FieldDataset, seed: int = 0, n_starts: int = 10) -> SurrogateFit:
    """Fit a constant-mean Matern GP with nugget to (X, y).

    The inverse ranges and nugget ratio are regularized by the jointly
    robust prior: :func:`mle_fit` with ``prior=`` finds the mode of their
    posterior with the trend and the variance integrated out, as the
    emulator's range fit does; the raw likelihood tends to chase tiny ranges
    that interpolate the noise.  The reported variance is ``Q / n`` there.
    """
    spec = DiscrepancySpec(
        GASP,
        KernelSpec("matern52", data.lengths / 2.0),
        mean_basis=[_intercept],
    )
    fit = mle_fit(data, _ZERO_MODEL, spec, n_starts=n_starts, seed=seed, prior=PriorSpec.default(data))
    return SurrogateFit(data=data, spec=spec, params=fit.best_params)


def _multistart_theta(objective, bounds, n_starts: int, seed: int, what: str = "objective"):
    """Multi-start bounded quasi-Newton over the parameter box.

    An infinite ``objective`` (the ``what`` of the error) raises
    :class:`NumericalError`; a NaN one, a model undefined there, fails that start.
    """

    def checked(theta):
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite value is an error
            value = objective(theta)
        if np.isinf(value):
            raise NumericalError(f"the {what} is infinite at theta = {np.asarray(theta).tolist()}")
        return value

    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    results, best = _multistart(checked, bounds, n_starts, seed, [tuple(b) for b in bounds], {"ftol": 1e-12})
    per_start = list(enumerate(results))
    if best is None:
        raise OptimizationError("theta optimization failed from every start", per_start)
    return np.atleast_1d(results[best].x), float(results[best].fun), per_start


@dataclass
class L2Result:
    theta_hat: np.ndarray
    l2_loss_at_opt: float
    surrogate: SurrogateFit
    per_start: list

    def predict(self, model: ComputerModel, Xstar) -> PredictiveResult:
        """The field GP's mean and variance; ``model_mean`` is the model at ``theta_hat``."""
        return replace(self.surrogate.predict(Xstar), model_mean=model.evaluate(Xstar, self.theta_hat))


def l2_calibrate(
    data: FieldDataset,
    model: ComputerModel,
    quad_points: int | None = None,
    seed: int = 0,
    n_starts: int = 10,
) -> L2Result:
    """Two-step L2 calibration.

    Step 1 regresses the field data on a Gaussian process; step 2 minimizes
    the quadrature approximation of the squared distance between that
    surrogate and the computer model over the domain.  In one dimension the
    quadrature is a uniform midpoint grid (default 1000 points); in higher
    dimensions, seeded Monte Carlo (default 10^4 points).  A loss that is
    infinite at a theta the search visits raises :class:`NumericalError`; a
    NaN one, a model undefined there, fails that start, and
    :class:`OptimizationError` follows when every start fails.
    """
    surrogate = fit_field_gasp(data, seed=seed)
    p = data.p
    rng = np.random.default_rng(seed)
    if p == 1:
        m = quad_points or 1000
        lo, hi = data.domain[0]
        grid = (lo + (hi - lo) * ((np.arange(m) + 0.5) / m)).reshape(-1, 1)  # no overflow before the divide
    else:
        m = quad_points or 10_000
        grid = scale_to_domain(rng.uniform(size=(m, p)), data.domain)
    yhat = surrogate.predict(grid).full_mean
    volume = float(np.prod(data.lengths))

    def loss_at(theta):
        return float(np.mean((yhat - model.evaluate(grid, theta)) ** 2))

    theta_hat, best, per_start = _multistart_theta(loss_at, model.theta_bounds, n_starts, seed, "L2 loss")
    return L2Result(
        theta_hat=theta_hat,
        l2_loss_at_opt=best * volume,
        surrogate=surrogate,
        per_start=per_start,
    )


@dataclass
class LsResult:
    theta_hat: np.ndarray
    sse_at_opt: float
    residual_fit: SurrogateFit
    per_start: list

    def predict(self, model: ComputerModel, Xstar) -> PredictiveResult:
        """The model at ``theta_hat``, plus the residual GP's mean; its variance."""
        model_mean = model.evaluate(Xstar, self.theta_hat)
        residual = self.residual_fit.predict(Xstar)
        return PredictiveResult(model_mean, model_mean + residual.full_mean, residual.variance)


def ls_calibrate(
    data: FieldDataset,
    model: ComputerModel,
    n_starts: int = 10,
    seed: int = 0,
) -> LsResult:
    """Least-squares calibration followed by a GP fit of the residuals.

    A sum of squares that is infinite at a theta the search visits raises
    :class:`NumericalError`; a NaN one, a model undefined there, fails that
    start, and :class:`OptimizationError` follows when every start fails.
    """

    def ssr(theta):
        resid = data.y - model.evaluate(data.X, theta)
        return float(resid @ resid)

    theta_hat, sse, per_start = _multistart_theta(ssr, model.theta_bounds, n_starts, seed, "sum of squares")
    resid = data.y - model.evaluate(data.X, theta_hat)
    resid_data = FieldDataset(data.X, resid, data.domain)
    residual_fit = fit_field_gasp(resid_data, seed=seed)
    return LsResult(
        theta_hat=theta_hat,
        sse_at_opt=sse,
        residual_fit=residual_fit,
        per_start=per_start,
    )
