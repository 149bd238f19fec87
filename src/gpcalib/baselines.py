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

from .calibration import (
    CalibParams,
    ComputerModel,
    FieldDataset,
    PredictiveResult,
    PriorSpec,
    predict,
)
from .design import scale_to_domain
from .discrepancy import GASP, DiscrepancySpec
from .emulator import _intercept
from .inference import OptimizationError, _multistart, mle_fit
from .kernels import KernelSpec
from .linalg import NumericalError


def _zero_model() -> ComputerModel:
    """The zero computer model with no parameters: a field GP is a calibration without theta."""
    return ComputerModel(
        evaluator=lambda X, theta: np.zeros(np.atleast_2d(X).shape[0]),
        theta_bounds=np.zeros((0, 2)),
        vectorized=True,
    )


@dataclass
class SurrogateFit:
    """Constant-mean Gaussian-process regression of observations on inputs."""

    data: FieldDataset
    spec: DiscrepancySpec
    params: CalibParams

    def predict(self, Xstar) -> PredictiveResult:
        return predict(self.params, self.data, _zero_model(), self.spec, Xstar)


def fit_field_gasp(data: FieldDataset, seed: int = 0, n_starts: int = 10) -> SurrogateFit:
    """Fit a constant-mean Matern GP with nugget to (X, y).

    The inverse ranges and nugget ratio are regularized by the jointly
    robust prior (posterior-mode fit); the raw likelihood tends to chase
    tiny ranges that interpolate the noise.
    """
    spec = DiscrepancySpec(
        GASP,
        KernelSpec("matern52", data.lengths / 2.0),
        mean_basis=[_intercept],
    )
    fit = mle_fit(data, _zero_model(), spec, n_starts=n_starts, seed=seed, prior=PriorSpec.default(data))
    return SurrogateFit(data=data, spec=spec, params=fit.best_params)


def _multistart_theta(objective, bounds, n_starts: int, seed: int):
    """Multi-start bounded quasi-Newton over the parameter box."""
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    results, best = _multistart(
        objective, bounds, n_starts, seed, [tuple(b) for b in bounds], {"ftol": 1e-12}
    )
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
    not finite at a theta the search visits raises :class:`NumericalError`.
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

    def objective(theta):
        with np.errstate(over="ignore", invalid="ignore"):  # a loss that is not finite is an error
            loss = float(np.mean((yhat - model.evaluate(grid, theta)) ** 2))
        if not np.isfinite(loss):
            raise NumericalError(f"the L2 loss is not finite at theta = {np.asarray(theta).tolist()}")
        return loss

    theta_hat, best, per_start = _multistart_theta(
        objective, model.theta_bounds, n_starts, seed
    )
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
    start.
    """

    def objective(theta):
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite sum is an error
            resid = data.y - model.evaluate(data.X, theta)
            sse = float(resid @ resid)
        if np.isinf(sse):
            raise NumericalError(f"the sum of squares is infinite at theta = {np.asarray(theta).tolist()}")
        return sse

    theta_hat, sse, per_start = _multistart_theta(
        objective, model.theta_bounds, n_starts, seed
    )
    resid = data.y - model.evaluate(data.X, theta_hat)
    resid_data = FieldDataset(data.X, resid, data.domain)
    residual_fit = fit_field_gasp(resid_data, seed=seed)
    return LsResult(
        theta_hat=theta_hat,
        sse_at_opt=sse,
        residual_fit=residual_fit,
        per_start=per_start,
    )
