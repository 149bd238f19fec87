"""Calibration of imperfect computer models with Gaussian-process discrepancies.

Core pieces: product-form correlation kernels, dense Gaussian linear algebra,
plain/scaled/orthogonal discrepancy priors, marginal likelihood and plug-in
prediction, multi-start MLE and adaptive Metropolis posterior sampling, a
GP emulator for slow simulators, and two-step baselines.
"""

from .kernels import KernelSpec, corr_matrix, matern52, pow_exp
from .linalg import NumericalError, cholesky_with_jitter
from .discrepancy import (
    DiscrepancySpec,
    GASP,
    OGASP,
    SGASP,
    model_grad_fd,
    ogasp_kernel,
    scaled_cov,
    scaled_cross_cov,
)
from .calibration import (
    CalibParams,
    ComputerModel,
    FieldDataset,
    ParamTransform,
    PredictiveResult,
    PriorSpec,
    log_prior,
    marginal_loglik,
    mean_basis_eval,
    predict,
)
from .inference import (
    MleResult,
    OptimizationError,
    PosteriorChain,
    mcmc_run,
    mle_fit,
    posterior_summary,
    predict_posterior,
)
from .emulator import (
    EmulatorModel,
    as_computer_model,
    emulator_fit,
    emulator_predict,
    emulator_predict_scaled,
)
from .baselines import L2Result, LsResult, fit_field_gasp, l2_calibrate, ls_calibrate
from .design import maximin_lhd
from .models import BUILTIN_MODELS, builtin_model

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MODELS",
    "CalibParams",
    "ComputerModel",
    "DiscrepancySpec",
    "EmulatorModel",
    "FieldDataset",
    "GASP",
    "KernelSpec",
    "L2Result",
    "LsResult",
    "MleResult",
    "NumericalError",
    "OGASP",
    "OptimizationError",
    "ParamTransform",
    "PosteriorChain",
    "PredictiveResult",
    "PriorSpec",
    "SGASP",
    "as_computer_model",
    "builtin_model",
    "cholesky_with_jitter",
    "corr_matrix",
    "emulator_fit",
    "emulator_predict",
    "emulator_predict_scaled",
    "fit_field_gasp",
    "l2_calibrate",
    "log_prior",
    "ls_calibrate",
    "marginal_loglik",
    "matern52",
    "maximin_lhd",
    "mcmc_run",
    "mean_basis_eval",
    "mle_fit",
    "model_grad_fd",
    "ogasp_kernel",
    "posterior_summary",
    "pow_exp",
    "predict",
    "predict_posterior",
    "scaled_cov",
    "scaled_cross_cov",
]
