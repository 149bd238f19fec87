"""Gaussian-process emulator for computationally expensive computer models.

Fit on design runs over the joint (variable input, parameter) space; the
trend coefficients and process variance are integrated out analytically and
the range parameters are estimated by the marginal posterior mode, found by
the search that :func:`~gpcalib.inference.mle_fit` runs with a prior.  The
predictive distribution at a new point is a Student-t with ``D - q`` degrees
of freedom.  A fitted emulator can stand in for the real computer model in
calibration; its hyperparameters are never revisited there.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calibration import (
    ETA_FLOOR, _GLS, ComputerModel, FieldDataset, LikelihoodCore, ParamTransform, PriorSpec, _gls,
    basis_matrix,
)
from .discrepancy import GASP, SGASP, DiscrepancySpec, _lru, _ModeCov
from .inference import _CalibPosterior, _maximize, _psi_box
from .kernels import KernelSpec, _corr_1d, _distances, _product_corr
from .linalg import cholesky_with_jitter


def _intercept(Z):
    return np.ones(np.atleast_2d(Z).shape[0])


#: The zero computer model with no parameters: a GP fit is a calibration without theta.
_ZERO_MODEL = ComputerModel(lambda X, theta: np.zeros(X.shape[0]), np.zeros((0, 2)), vectorized=True)


@dataclass
class EmulatorModel:
    """Fitted emulator state.

    ``design`` stacks the variable inputs and parameters column-wise; the
    mean basis functions act on that joint input.  ``_cov`` holds the
    design's distances, nothing per input; the ranges are passed per call.
    """

    design: np.ndarray
    outputs: np.ndarray
    mean_basis: Sequence[Callable]
    kernel: KernelSpec
    _gls: _GLS = field(repr=False)
    _cov: _ModeCov = field(repr=False)

    @property
    def beta_hat(self) -> np.ndarray:
        return self._gls.beta

    @property
    def sigma2_hat(self) -> float:
        return self._gls.sigma2

    @property
    def n_design(self) -> int:
        return self.design.shape[0]

    @property
    def dof(self) -> int:
        return self.n_design - len(self.mean_basis)

    def basis(self, Z) -> np.ndarray:
        return basis_matrix(Z, self.mean_basis)


def _prepare_design(design, outputs):
    design = np.atleast_2d(np.asarray(design, dtype=float))
    outputs = np.atleast_1d(np.asarray(outputs, dtype=float))
    if design.shape[0] != outputs.size:
        raise ValueError("design and outputs disagree on the number of runs")
    if not (np.isfinite(design).all() and np.isfinite(outputs).all()):
        raise ValueError("design and outputs must be finite (no NaN or infinity)")
    if np.unique(design, axis=0).shape[0] != design.shape[0]:
        raise ValueError("design rows must be distinct")
    return design, outputs


def emulator_fit(
    design,
    outputs,
    mean_basis: Sequence[Callable] | None = None,
    seed: int = 0,
    n_starts: int = 10,
    ranges=None,
) -> EmulatorModel:
    """Fit the Matern emulator by maximizing the marginal posterior of the ranges.

    The trend coefficients and variance carry the scale-invariant prior
    ``1/sigma2`` and are integrated out; the inverse ranges get the jointly
    robust prior, evaluated on the log-inverse-range scale: the search of
    :func:`~gpcalib.inference.mle_fit` with a prior, over the inverse ranges
    of field data on the design's bounding box (a constant column gets width
    1), a zero computer model and a nugget of exactly 0.  It raises
    :class:`~gpcalib.inference.OptimizationError` when no start converges.
    The trend defaults to a constant; an empty ``mean_basis`` makes it zero.
    Passing ``ranges`` skips the range optimization: the kernel keeps exactly
    those ranges, so a fit rebuilt from ``em.kernel.ranges`` equals ``em``.
    """
    design, outputs = _prepare_design(design, outputs)
    D, p = design.shape
    mean_basis = [_intercept] if mean_basis is None else list(mean_basis)
    if D <= len(mean_basis) + 2:
        raise ValueError("need more design runs than basis functions plus two")
    if ranges is not None and np.size(ranges) != p:
        raise ValueError(f"ranges has {np.size(ranges)} values, the design has {p} columns")
    lo, hi = design.min(axis=0), design.max(axis=0)
    flat = hi == lo
    lo = np.where(flat, np.floor(lo), lo)  # so a constant column's width is exactly 1
    data = FieldDataset(design, outputs, np.column_stack([lo, np.where(flat, lo + 1.0, hi)]))
    spec = DiscrepancySpec(GASP, KernelSpec("matern52", np.ones(p)), mean_basis=mean_basis)
    core = LikelihoodCore(data, _ZERO_MODEL, spec)
    if ranges is None:
        tr = ParamTransform(_ZERO_MODEL.theta_bounds, len(mean_basis), p)
        z = np.zeros(tr.dim)
        z[tr.eta_index] = 2.0 * np.log(ETA_FLOOR)  # below log(ETA_FLOOR), where eta is exactly 0
        posterior, options = _CalibPosterior(core, PriorSpec.default(data), tr), {"ftol": 1e-12, "gtol": 1e-8}
        z, _ = _maximize(posterior, z, np.r_[tr.psi_slice], _psi_box(data.lengths), options, n_starts, seed)
        ranges = 1.0 / np.exp(z[tr.psi_slice])
    kern = KernelSpec("matern52", ranges)
    L, _ = cholesky_with_jitter(core.cov.corr(kern.ranges))
    return EmulatorModel(
        design=design,
        outputs=outputs,
        mean_basis=mean_basis,
        kernel=kern,
        _gls=_gls(L, core.H, outputs, LikelihoodCore.logdet_half(L)),
        _cov=core.cov,
    )


def _joint_inputs(model: EmulatorModel, xstar, thetastar):
    """Joint inputs: ``xstar`` with ``thetastar`` (if given) appended to every row."""
    Z = np.atleast_2d(np.asarray(xstar, dtype=float))
    if thetastar is not None:
        theta = np.atleast_1d(np.asarray(thetastar, dtype=float))
        Z = np.hstack([Z, np.tile(theta, (Z.shape[0], 1))])
    if Z.shape[1] != model.design.shape[1]:
        raise ValueError("prediction inputs do not match the design dimension")
    return Z


def emulator_predict(model: EmulatorModel, xstar, thetastar=None):
    """Student-t predictive at new joint inputs.

    ``xstar`` may already contain the full joint input; otherwise pass the
    parameter part separately and it is appended to every row.  Returns
    ``(mean, variance, dof)``: the variance is ``sigma2_hat`` times the
    conditional correlation plus the trend-estimation inflation term, and the
    degrees of freedom are the number of runs minus the trend dimension.
    """
    Z = _joint_inputs(model, xstar, thetastar)
    mean, cstar = model._gls.krige(model.basis(Z), *model._cov.cross(model.kernel.ranges, None, Z))
    return mean, model.sigma2_hat * cstar, model.dof


def emulator_predict_scaled(model: EmulatorModel, xstar, lam: float | None = None):
    """Predictive mean/variance under the shrunk (scaled-process) covariance.

    Applies the discretized L2 shrinkage with constraint points at the
    design (scaling ``lam``, default half the number of runs) to the fitted
    kernel, then re-estimates the trend by generalized least squares under
    the transformed correlation.  One factorization of ``R + c I`` serves the
    transformed correlation, the cross-correlation and the prior variance.
    """
    Z = _joint_inputs(model, xstar, None)
    cov = _ModeCov(DiscrepancySpec(SGASP, model.kernel, lam=lam), model.design)
    L, _ = cholesky_with_jitter(cov.corr(model.kernel.ranges))
    gls = _gls(L, model.basis(model.design), model.outputs, LikelihoodCore.logdet_half(L))
    mean, cstar = gls.krige(model.basis(Z), *cov.cross(model.kernel.ranges, None, Z))
    return mean, gls.sigma2 * cstar, model.dof


def as_computer_model(model: EmulatorModel, p_x: int, theta_bounds) -> ComputerModel:
    """Wrap a fitted emulator as a calibration computer model.

    The evaluator is the predictive mean ``emulator_predict(model, X,
    theta)[0]``, bit for bit; the Student-t variance is never computed.  The
    correlation over the first ``p_x`` (variable-input) axes depends on ``X``
    alone and is cached under the bytes of ``X`` for the 4 inputs used last;
    a call multiplies the theta-axis factors into a copy of it, in axis
    order as the product kernel does.
    """
    theta_bounds = np.atleast_2d(np.asarray(theta_bounds, dtype=float))
    design, kernel = model.design, model.kernel
    if p_x + theta_bounds.shape[0] != design.shape[1]:
        raise ValueError("p_x plus the parameter count must match the design columns")
    x_corrs = OrderedDict()

    def x_corr(X):
        return _product_corr(_distances(design[:, :p_x], X), kernel, kernel.ranges)

    def mean(X, theta):
        if X.shape[1] != p_x:
            raise ValueError(f"inputs have {X.shape[1]} columns, the emulator takes p_x = {p_x}")
        Z = _joint_inputs(model, X, theta)
        if p_x:
            r = _lru(x_corrs, X.tobytes(), lambda: x_corr(X)).copy()
        else:  # a zero-width X has no bytes to key on, and no factor to cache
            r = np.ones((len(design), len(X)))
        for l, d in enumerate(_distances(design[:, p_x:], Z[:1, p_x:]), start=p_x):
            r *= _corr_1d(d, kernel, kernel.ranges[l], l)
        return model.basis(Z) @ model._gls.beta + r.T @ model._gls.alpha

    return ComputerModel(evaluator=mean, theta_bounds=theta_bounds, vectorized=True)
