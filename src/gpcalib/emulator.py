"""Gaussian-process emulator for computationally expensive computer models.

Fit on design runs over the joint (variable input, parameter) space; the
trend coefficients and process variance are integrated out analytically and
the range parameters are estimated by the marginal posterior mode.  The
predictive distribution at a new point is a Student-t with ``D - q`` degrees
of freedom.  A fitted emulator can stand in for the real computer model in
calibration; its hyperparameters are never revisited there.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .calibration import (
    _GLS, ComputerModel, LikelihoodCore, PriorSpec, _full_rank_basis, _gls, _jr_log_prior, basis_matrix
)
from .discrepancy import GASP, SGASP, DiscrepancySpec, _lru, _ModeCov
from .inference import _BAD_OBJECTIVE, _fd_grad, _multistart
from .kernels import KernelSpec, _corr_1d, _distances, _product_corr
from .linalg import NumericalError, _tri_inv, cholesky_with_jitter


def _intercept(Z):
    return np.ones(np.atleast_2d(Z).shape[0])


def _kriging_mean(gls: _GLS, h, r):
    """Predictive mean ``h beta + r' alpha`` at new points with trend basis
    ``h`` and correlation ``r`` to the design."""
    return h @ gls.beta + r.T @ gls.alpha


def _student_t(gls: _GLS, h, r, c0):
    """Student-t predictive mean and variance at new points with trend basis
    ``h``, correlation ``r`` to the design and prior correlation ``c0``."""
    mean = _kriging_mean(gls, h, r)
    V = _tri_inv(gls.L) @ r
    cstar = c0 - np.einsum("ij,ij->j", V, V)
    if h.shape[1]:  # the trend estimate's own uncertainty
        u = h.T - gls.RinvH.T @ r
        # LM is C-ordered, so its transpose is the Fortran-ordered upper factor
        w = dtrtrs(gls.LM.T, u, lower=0, trans=1)[0]
        cstar = cstar + np.einsum("ij,ij->j", w, w)
    return mean, gls.sigma2 * np.maximum(cstar, 0.0)


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
    robust prior, evaluated on the log-inverse-range scale.  The trend
    defaults to a constant; an empty ``mean_basis`` makes it zero.  Passing
    ``ranges`` skips the range optimization: the kernel keeps exactly those
    ranges, so a fit rebuilt from ``em.kernel.ranges`` equals ``em``.
    """
    design, outputs = _prepare_design(design, outputs)
    D, p = design.shape
    if mean_basis is None:
        mean_basis = [_intercept]
    mean_basis = list(mean_basis)
    q = len(mean_basis)
    if D <= q + 2:
        raise ValueError("need more design runs than basis functions plus two")
    H = _full_rank_basis(design, mean_basis)

    lengths = design.max(axis=0) - design.min(axis=0)
    lengths = np.where(lengths > 0, lengths, 1.0)
    prior = PriorSpec(0.5 - p, 1.0, lengths * D ** (-1.0 / p))
    cov = _ModeCov(DiscrepancySpec(GASP, KernelSpec("matern52", np.ones(p))), design)

    def objective(log_psi) -> float:
        psi = np.exp(log_psi)
        try:
            L, _ = cholesky_with_jitter(cov.corr(1.0 / psi))
            lp = _gls(L, H, outputs, LikelihoodCore.logdet_half(L)).log_marginal
        except (NumericalError, np.linalg.LinAlgError):
            return _BAD_OBJECTIVE
        lp += _jr_log_prior(prior, psi) + float(np.sum(log_psi))
        if not np.isfinite(lp):
            return _BAD_OBJECTIVE
        return -lp

    if ranges is not None:
        return _finalize(design, outputs, mean_basis, ranges, H, cov)

    results, best = _multistart(
        objective,
        np.column_stack([np.log(0.5 / lengths), np.log(50.0 / lengths)]),
        n_starts,
        seed,
        [(np.log(1e-2 / L_), np.log(1e4 / L_)) for L_ in lengths],
        {"ftol": 1e-12, "gtol": 1e-8},
        jac=lambda x: _fd_grad(objective, x),
    )
    if best is None or not results[best].fun < _BAD_OBJECTIVE / 2:
        raise NumericalError("emulator range optimization failed from every start")
    return _finalize(design, outputs, mean_basis, 1.0 / np.exp(results[best].x), H, cov)


def _finalize(design, outputs, mean_basis, ranges, H, cov: _ModeCov) -> EmulatorModel:
    kern = KernelSpec("matern52", ranges)
    L, _ = cholesky_with_jitter(cov.corr(kern.ranges))
    return EmulatorModel(
        design=design,
        outputs=outputs,
        mean_basis=mean_basis,
        kernel=kern,
        _gls=_gls(L, H, outputs, LikelihoodCore.logdet_half(L)),
        _cov=cov,
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
    r = model._cov.base_cross(model.kernel.ranges, Z)
    mean, variance = _student_t(model._gls, model.basis(Z), r, 1.0)
    return mean, variance, model.dof


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
    rz, cz = cov.cross(model.kernel.ranges, None, Z)
    gls = _gls(L, model.basis(model.design), model.outputs, LikelihoodCore.logdet_half(L))
    mean, variance = _student_t(gls, model.basis(Z), rz, cz)
    return mean, variance, model.dof


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
        return _kriging_mean(model._gls, model.basis(Z), r)

    return ComputerModel(evaluator=mean, theta_bounds=theta_bounds, vectorized=True)
