"""Scripted benchmark studies with CSV outputs suitable for plotting.

Every experiment is a deterministic function of its seed; each replication
draws from its own derived seed.  Numbers are written in scientific notation
with 17 significant digits so files round-trip to the exact in-memory values.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .baselines import l2_calibrate, ls_calibrate
from .calibration import CalibParams, FieldDataset, LikelihoodCore, marginal_loglik, predict
from .design import maximin_lhd, scale_to_domain
from .discrepancy import DiscrepancySpec, GASP, OGASP, SGASP
from .emulator import emulator_fit, emulator_predict, emulator_predict_scaled
from .inference import mcmc_run, mle_fit, posterior_summary, predict_posterior
from .kernels import KernelSpec, corr_matrix
from .linalg import cholesky_with_jitter
from .models import branin_truth, builtin_model, oscillator_truth, park_truth, sine_truth


def _fmt(v) -> str:
    return f"{float(v):.16e}"


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def _write_records(path, records):
    """One CSV row per record (a dict), under the first record's keys."""
    _write_csv(path, list(records[0]), [rec.values() for rec in records])


def _mse(a, b) -> float:
    return float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))


# ---------------------------------------------------------------------------
# Likelihood-flatness study
# ---------------------------------------------------------------------------

FIG1_CASES = (
    ("gamma=1", 1.0),
    ("gamma=0.1", 0.1),
    ("gamma=0.01", 0.01),
    ("independent", None),
)


def run_fig1(seed: int = 0, outdir: str = "out", n: int = 200, reps: int = 100) -> dict:
    """Log-likelihood gap between the true and a mean-shifted model.

    Draws correlated data with unit variance on an equispaced grid and
    evaluates the marginal log-likelihood at mean levels 0 (true) and 1
    (shifted).  The analytic expectation of the gap is half the quadratic
    form of the all-ones vector under the inverse correlation.
    """
    x = np.linspace(0.0, 1.0, n)[:, None]
    model = builtin_model("constant", theta_bounds=[[-1.0, 2.0]])
    data_domain = [[0.0, 1.0]]
    sample_rows = []
    summary_rows = []
    results = {}
    for case_idx, (label, gamma) in enumerate(FIG1_CASES):
        g = gamma if gamma is not None else 1e-6  # far below the grid spacing
        kern = KernelSpec("pow_exp", [g], roughness=[1.9])
        spec = DiscrepancySpec(GASP, kern)
        R = corr_matrix(x, x, kern)
        L, jitter = cholesky_with_jitter(R)
        Rj = R + jitter * np.eye(n)
        ones = np.ones(n)
        oracle = 0.5 * float(ones @ np.linalg.solve(Rj, ones))

        psi = 1.0 / spec.kernel.ranges
        pairs = []
        for rep in range(reps):
            rng = np.random.default_rng([seed, case_idx, rep])
            data = FieldDataset(x, L @ rng.standard_normal(n), data_domain)
            ll0 = marginal_loglik(CalibParams([0.0], [], psi, 1.0, 0.0), data, model, spec)
            ll1 = marginal_loglik(CalibParams([1.0], [], psi, 1.0, 0.0), data, model, spec)
            pairs.append((ll0, ll1))
        diffs = np.array([a - b for a, b in pairs])
        mc_se = float(diffs.std(ddof=1) / np.sqrt(reps))
        for rep, (a, b) in enumerate(pairs):
            sample_rows.append((label, str(rep), a, b))
        summary_rows.append((label, float(diffs.mean()), mc_se, oracle))
        results[label] = {
            "mean_diff": float(diffs.mean()),
            "mc_se": mc_se,
            "oracle": oracle,
        }
    _write_csv(
        os.path.join(outdir, "fig1_samples.csv"),
        ["case", "rep", "loglik_true", "loglik_shifted"],
        sample_rows,
    )
    _write_csv(
        os.path.join(outdir, "fig1_summary.csv"),
        ["case", "mean_diff", "mc_se", "half_quad_oracle"],
        summary_rows,
    )
    return results


# ---------------------------------------------------------------------------
# Four-dimensional constant-model study (MLE)
# ---------------------------------------------------------------------------


def run_park(seed: int = 0, outdir: str = "out", n: int = 50, n_holdout: int = 1000) -> dict:
    """Constant computer model against the four-dimensional benchmark reality.

    Fits both discrepancy modes by maximum likelihood, with the discrepancy
    variance either estimated or held fixed at several levels, and reports
    held-out errors of the calibrated model alone and with the discrepancy.
    Returns the table's records, keyed by ``(mode, sigma2_fixed)``.
    """
    X = maximin_lhd(n, 4, iterations=500, seed=seed)
    rng = np.random.default_rng([seed, 1])
    y = park_truth(X) + 0.01 * rng.standard_normal(n)
    data = FieldDataset(X, y, [[0.0, 1.0]] * 4)
    model = builtin_model("constant")
    Xs = np.random.default_rng([seed, 2]).uniform(size=(n_holdout, 4))
    ytrue = park_truth(Xs)

    results = {}
    for sigma2_fixed in (None, 1.0, 10.0, 100.0, 1000.0):
        for mode in (GASP, SGASP):
            spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5] * 4))
            p = mle_fit(data, model, spec, n_starts=10, seed=seed, sigma2_fixed=sigma2_fixed).best_params
            pred = predict(p, data, model, spec, Xs)
            results[(mode, sigma2_fixed)] = {
                "method": mode,
                "sigma2_mode": "estimated" if sigma2_fixed is None else _fmt(sigma2_fixed),
                "mse_fm": _mse(ytrue, pred.model_mean),
                "mse_fm_delta": _mse(ytrue, pred.full_mean),
                "theta_hat": float(p.theta[0]),
                "sigma2_delta": p.sigma2_delta,
                **{f"gamma_{i + 1}": g for i, g in enumerate(p.gamma().tolist())},
                "sigma2_noise": p.sigma2_noise,
            }
    _write_records(os.path.join(outdir, "park_table.csv"), list(results.values()))
    return results


# ---------------------------------------------------------------------------
# Two-frequency sine study (MCMC and two-step baselines)
# ---------------------------------------------------------------------------


def run_sine(
    seed: int = 0,
    outdir: str = "out",
    sizes=(10, 20, 30),
    mcmc_samples: int = 50_000,
    burn_in: int = 10_000,
    thin: int = 25,
    n_holdout: int = 1000,
) -> dict:
    """Sine-wave computer model with a two-frequency reality.

    Compares the two-step approaches against full posterior calibration with
    plain and scaled discrepancies, on equispaced designs of several sizes.
    The l2 method's full mean is its field surrogate's, reported as
    ``mse_surrogate``; a column that a method does not report is empty.
    Returns the table's records, keyed by ``(n, method)``.
    """
    model = builtin_model("sine_theta_x")
    Xs = np.random.default_rng([seed, 9]).uniform(size=(n_holdout, 1))
    ytrue = sine_truth(Xs)
    results = {}
    for n in sizes:
        x = np.linspace(0.0, 1.0, n)[:, None]
        rng = np.random.default_rng([seed, n])
        y = sine_truth(x) + 0.3 * rng.standard_normal(n)
        data = FieldDataset(x, y, [[0.0, 1.0]])

        fits = []  # (method, theta estimate, prediction at Xs)
        for method, calibrate in (("gasp+l2", l2_calibrate), ("ls+gasp", ls_calibrate)):
            fit = calibrate(data, model, seed=seed)
            fits.append((method, fit.theta_hat[0], fit.predict(model, Xs)))
        for mode in (GASP, SGASP):
            spec = DiscrepancySpec(mode, KernelSpec("matern52", [0.5]))
            chain = mcmc_run(data, model, spec, S=mcmc_samples, burn_in=burn_in, seed=seed)
            theta_med = posterior_summary(chain)["theta_1"]["median"]
            fits.append((mode, theta_med, predict_posterior(chain, data, model, spec, Xs, thin=thin)))
        for method, theta_hat, pred in fits:
            mse_full = _mse(ytrue, pred.full_mean)
            surrogate = method == "gasp+l2"
            results[(n, method)] = {
                "n": str(n),
                "method": method,
                "theta_hat": float(theta_hat),
                "mse_fm": _mse(ytrue, pred.model_mean),
                "mse_fm_delta": "" if surrogate else mse_full,
                "mse_surrogate": mse_full if surrogate else "",
            }
    _write_records(os.path.join(outdir, "sine_table.csv"), list(results.values()))
    return results


# ---------------------------------------------------------------------------
# Nonlinear mode study: profile likelihoods vs the L2 loss landscape
# ---------------------------------------------------------------------------


def run_nonlinear(
    seed: int = 0,
    outdir: str = "out",
    n: int = 15,
    grid_size: int = 301,
    quad_points: int = 2000,
) -> dict:
    """Profile log-likelihoods of the three discrepancy modes over theta.

    The oscillator reality has an L2 loss with two minima and two maxima in
    the parameter box; the orthogonal mode's likelihood peaks at every
    stationary point while the plain and scaled modes single out the global
    minimizer.
    """
    x = np.linspace(0.0, 5.0, n)[:, None]
    rng = np.random.default_rng([seed, 1])
    y = oscillator_truth(x) + 0.2 * rng.standard_normal(n)
    data = FieldDataset(x, y, [[0.0, 5.0]])
    model = builtin_model("sine_plus_x")

    thetas = np.linspace(0.0, 3.0, grid_size)
    xi = (np.arange(quad_points) + 0.5) / quad_points * 5.0
    w = 5.0 / quad_points
    yR = oscillator_truth(xi[:, None])
    l2 = np.array(
        [float(np.sum((yR - model.evaluate(xi[:, None], [t])) ** 2) * w) for t in thetas]
    )

    kern = KernelSpec("matern52", [0.5])
    curves = {"l2_loss": l2}
    for mode in (GASP, SGASP, OGASP):
        spec = DiscrepancySpec(mode, kern)
        core = LikelihoodCore(data, model, spec)
        lls = np.array(
            [
                core.loglik(CalibParams([t], [], [2.0], 1.0, 0.01))
                for t in thetas
            ]
        )
        curves[mode] = lls
    _write_csv(
        os.path.join(outdir, "nonlinear_curves.csv"),
        ["theta", "l2_loss", "loglik_gasp", "loglik_sgasp", "loglik_ogasp"],
        [
            (t, curves["l2_loss"][i], curves[GASP][i], curves[SGASP][i], curves[OGASP][i])
            for i, t in enumerate(thetas)
        ],
    )
    return {"thetas": thetas, **curves}


# ---------------------------------------------------------------------------
# Branin emulation: plain vs scaled prediction
# ---------------------------------------------------------------------------


def run_branin(
    seed: int = 0, outdir: str = "out", n_design: int = 30, grid_side: int = 40
) -> dict:
    """Emulate the Branin function from a space-filling design.

    Outputs are standardized by the training mean and spread before fitting;
    errors are reported on both the standardized and the raw scale.
    Returns the summary table's one record.
    """
    domain = [[-5.0, 10.0], [0.0, 15.0]]
    U = maximin_lhd(n_design, 2, iterations=500, seed=seed)
    design = scale_to_domain(U, domain)
    yraw = branin_truth(design)
    mu, sd = float(yraw.mean()), float(yraw.std())
    ystd = (yraw - mu) / sd

    em = emulator_fit(design, ystd, seed=seed)
    g = np.linspace(0.0, 1.0, grid_side)
    G1, G2 = np.meshgrid(g, g, indexing="ij")
    Xs = scale_to_domain(np.column_stack([G1.ravel(), G2.ravel()]), domain)
    truth_std = (branin_truth(Xs) - mu) / sd
    plain_mean, plain_var, _ = emulator_predict(em, Xs)
    scaled_mean, scaled_var, _ = emulator_predict_scaled(em, Xs)

    mse_plain = _mse(truth_std, plain_mean)
    mse_scaled = _mse(truth_std, scaled_mean)
    _write_csv(
        os.path.join(outdir, "branin_surface.csv"),
        ["x1", "x2", "truth", "plain_mean", "plain_var", "scaled_mean", "scaled_var"],
        [
            (
                Xs[i, 0],
                Xs[i, 1],
                truth_std[i] * sd + mu,
                plain_mean[i] * sd + mu,
                plain_var[i] * sd**2,
                scaled_mean[i] * sd + mu,
                scaled_var[i] * sd**2,
            )
            for i in range(Xs.shape[0])
        ],
    )
    summary = {
        "mse_plain_std": mse_plain,
        "mse_scaled_std": mse_scaled,
        "mse_plain_raw": mse_plain * sd**2,
        "mse_scaled_raw": mse_scaled * sd**2,
        "output_mean": mu,
        "output_sd": sd,
    }
    _write_records(os.path.join(outdir, "branin_summary.csv"), [summary])
    return summary


EXPERIMENTS = {
    "fig1": run_fig1,
    "park": run_park,
    "sine": run_sine,
    "nonlinear": run_nonlinear,
    "branin": run_branin,
}
