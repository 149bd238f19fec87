"""The three calibration jobs the benchmark runs, with their correctness checks.

Each workload is a job run in a closed loop by one caller.  A job has three
parts: ``prepare`` makes its inputs from ``(seed, job index)`` alone (data,
designs, held-out points, CLI input files), ``run`` hands only those inputs
to gpcalib and times every fit and prediction call, and ``check`` compares
the outputs with the dense references in :mod:`oracle` and with basic sanity
rules.  A job with any failed check counts as failed.

Truth functions are written here rather than taken from gpcalib, so the
held-out errors do not depend on library code.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

import gpcalib as gp
from gpcalib import cli

import oracle

clock = time.perf_counter

#: Relative tolerance of the log-likelihood check at fixed parameters.
LOGLIK_RTOL = 1e-8
#: Relative tolerance at fitted parameters, where the nugget can be tiny.
FITTED_RTOL = 1e-5


def sine_truth(X):
    x = np.atleast_2d(X)[:, 0]
    return np.sin(10.0 * np.pi * x) + np.sin(np.pi * x)


def oscillator_truth(X):
    x = np.atleast_2d(X)[:, 0]
    return x * np.cos(1.5 * x) + x


def _rng(seed, j, stream):
    return np.random.default_rng([seed, j, stream])


def _int_seed(seed, j):
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _mse(a, b):
    return float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))


def _loglik_check(label, mode, model_name, data, spec, model, params, rtol, failures):
    """Compare gpcalib's marginal log-likelihood with the dense oracle."""
    got = gp.marginal_loglik(params, data, model, spec)
    want = oracle.loglik(
        mode, model_name, data.X, data.y, data.domain,
        params.theta, params.psi_delta, params.sigma2_delta, params.eta,
    )
    if not (np.isfinite(got) and abs(got - want) <= rtol * max(1.0, abs(want))):
        failures.append(f"{label}: loglik {got!r} != oracle {want!r}")


def _prediction_check(label, pred, failures):
    for name in ("model_mean", "full_mean", "variance"):
        if not np.all(np.isfinite(getattr(pred, name))):
            failures.append(f"{label}: non-finite {name}")
    if np.any(pred.variance < 0):
        failures.append(f"{label}: negative predictive variance")


def _chain_median(chain):
    med = np.median(chain.post_burn_in(), axis=0)
    pt, q, px = chain.theta_bounds.shape[0], chain.n_basis, chain.p_x
    return gp.CalibParams(med[:pt], med[pt:pt + q], med[pt + q:pt + q + px],
                          med[pt + q + px], med[pt + q + px + 1])


class Job:
    """Outputs of one job: timed calls, fingerprint and quality numbers."""

    def __init__(self):
        self.fit_s = []
        self.predict_s = []
        self.iters = {}  # mode -> (iterations, seconds) of each chain
        self.predict_samples = []  # (samples, seconds) per posterior prediction
        self.chains = []  # (mode, spec, model, chain, prediction) per chain
        self.codes = []  # CLI exit codes
        self.mixing = []  # (acceptance rates, post-burn-in theta draws) per chain
        self.mse_model = []
        self.mse_full = []
        self.fingerprint = {}
        self.bytes_written = 0

    def timed(self, kind, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        (self.fit_s if kind == "fit" else self.predict_s).append(clock() - t0)
        return out


# ---------------------------------------------------------------------------
# sine_mcmc
# ---------------------------------------------------------------------------


def sine_prepare(seed, j, size, workdir):
    rng = _rng(seed, j, 0)
    n = size["n"]
    x = np.linspace(0.0, 1.0, n)[:, None]
    y = sine_truth(x) + 0.3 * rng.standard_normal(n)
    Xs = rng.uniform(size=(size["holdout"], 1))
    return dict(data=gp.FieldDataset(x, y, [[0.0, 1.0]]), Xs=Xs, ytrue=sine_truth(Xs),
                chain_seed=_int_seed(seed, j), size=size, gamma=0.5)


def _mcmc_job(inp, model_name, modes):
    size, data = inp["size"], inp["data"]
    model = gp.builtin_model(model_name)
    job = Job()
    for mode in modes:
        spec = gp.DiscrepancySpec(mode, gp.KernelSpec("matern52", [inp["gamma"]]))
        chain = job.timed("fit", gp.mcmc_run, data, model, spec, S=size["samples"],
                          burn_in=size["burn_in"], seed=inp["chain_seed"])
        job.iters[mode] = (size["samples"], job.fit_s[-1])
        pred = job.timed("predict", gp.predict_posterior, chain, data, model, spec,
                         inp["Xs"], thin=size["thin"])
        samples = len(range(chain.burn_in, chain.n_samples, size["thin"]))
        job.predict_samples.append((samples, job.predict_s[-1]))
        job.chains.append((mode, spec, model, chain, pred))
        job.mixing.append((chain.acceptance_rates, chain.post_burn_in()[:, 0]))
        job.mse_model.append(_mse(inp["ytrue"], pred.model_mean))
        job.mse_full.append(_mse(inp["ytrue"], pred.full_mean))
        job.fingerprint[mode] = {
            "theta_median": float(np.median(chain.post_burn_in()[:, 0])),
            "mse_model": job.mse_model[-1],
            "mse_full": job.mse_full[-1],
        }
    return job


def sine_run(inp):
    return _mcmc_job(inp, "sine_theta_x", ("gasp", "sgasp"))


def _mcmc_check(inp, job, model_name, fixed):
    failures = []
    for mode, spec, model, chain, pred in job.chains:
        _loglik_check(f"{mode} fixed", mode, model_name, inp["data"], spec, model,
                      fixed, LOGLIK_RTOL, failures)
        _loglik_check(f"{mode} posterior median", mode, model_name, inp["data"], spec,
                      model, _chain_median(chain), FITTED_RTOL, failures)
        if not np.all(np.isfinite(chain.samples)):
            failures.append(f"{mode}: non-finite chain")
        _prediction_check(mode, pred, failures)
    return failures


def sine_check(inp, job):
    fixed = gp.CalibParams([31.0], [], [2.0], 1.0, 0.1)
    return _mcmc_check(inp, job, "sine_theta_x", fixed)


# ---------------------------------------------------------------------------
# nonlinear_ogasp
# ---------------------------------------------------------------------------


def nonlinear_prepare(seed, j, size, workdir):
    rng = _rng(seed, j, 2)
    n = size["n"]
    x = np.linspace(0.0, 5.0, n)[:, None]
    y = oscillator_truth(x) + 0.2 * rng.standard_normal(n)
    Xs = np.linspace(0.0, 5.0, size["grid"])[:, None]
    return dict(data=gp.FieldDataset(x, y, [[0.0, 5.0]]), Xs=Xs, ytrue=oscillator_truth(Xs),
                chain_seed=_int_seed(seed, j), size=size, gamma=0.5)


def nonlinear_run(inp):
    return _mcmc_job(inp, "sine_plus_x", ("ogasp",))


def nonlinear_check(inp, job):
    fixed = gp.CalibParams([1.2], [], [0.4], 1.0, 0.1)
    return _mcmc_check(inp, job, "sine_plus_x", fixed)


# ---------------------------------------------------------------------------
# modular_cli
# ---------------------------------------------------------------------------

CLI_THETA_BOUNDS = [[0.0, 10.0]]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{float(v):.16e}" for v in row])


def cli_prepare(seed, j, size, workdir):
    rng = _rng(seed, j, 3)
    os.makedirs(workdir, exist_ok=True)
    n = size["n"]
    x = np.linspace(0.0, 1.0, n)[:, None]
    y = sine_truth(x) + 0.3 * rng.standard_normal(n)
    lo, hi = CLI_THETA_BOUNDS[0]
    U = gp.maximin_lhd(size["design"], 2, iterations=size["design_iters"],
                       seed=_int_seed(seed, j))
    design = np.column_stack([U[:, 0], lo + (hi - lo) * U[:, 1]])
    runs = np.sin(design[:, 1] * design[:, 0])
    Xs = rng.uniform(size=(size["holdout"], 1))
    paths = {k: os.path.join(workdir, f"{k}.csv") for k in ("field", "design", "inputs", "truth")}
    _write_csv(paths["field"], ["x1", "y"], np.column_stack([x, y]))
    _write_csv(paths["design"], ["x1", "theta1", "y"], np.column_stack([design, runs]))
    _write_csv(paths["inputs"], ["x1"], Xs)
    _write_csv(paths["truth"], ["x1", "y_true"], np.column_stack([Xs, sine_truth(Xs)]))
    outdir = os.path.join(workdir, "out")
    config = {
        "mode": "sgasp",
        "data": paths["field"],
        "domain": [[0.0, 1.0]],
        "model": {"emulator_design": paths["design"], "p_x": 1,
                  "theta_bounds": CLI_THETA_BOUNDS},
        "mle": {"n_starts": size["n_starts"], "seed": _int_seed(seed, j) % 2**31},
        "mcmc": {"samples": size["samples"], "burn_in": size["burn_in"],
                 "thin": size["thin"], "seed": _int_seed(seed, j) % 2**31},
        "predict": paths["inputs"],
        "truth": paths["truth"],
        "output_dir": outdir,
    }
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return dict(config=config_path, outdir=outdir, x=x, y=y, design=design, runs=runs,
                size=size)


def cli_run(inp):
    job = Job()
    job.codes.append(job.timed("fit", cli.main, ["calibrate", "--config", inp["config"]]))
    job.codes.append(job.timed("predict", cli.main, ["predict", "--config", inp["config"]]))
    outdir = inp["outdir"]
    job.bytes_written = sum(
        os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir)
    )
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(outdir, "posterior.csv")) as fh:
        theta = np.asarray([row[0] for row in list(csv.reader(fh))[1:]], dtype=float)
    job.mixing.append((summary["acceptance_rates"], theta))
    job.mse_model.append(summary["mse_fm"])
    job.mse_full.append(summary["mse_fm_delta"])
    job.iters["sgasp"] = (summary["samples"], summary["mcmc_seconds"])
    job.fingerprint["sgasp"] = {
        "mle_theta": summary["mle_theta"][0],
        "mle_loglik": summary["mle_loglik"],
        "theta_median": summary["posterior"]["theta_1"]["median"],
        "mse_model": summary["mse_fm"],
        "mse_full": summary["mse_fm_delta"],
    }
    return job


def cli_check(inp, job):
    failures = [f"exit code {c}" for c in job.codes if c != 0]
    with open(os.path.join(inp["outdir"], "prediction.csv")) as fh:
        rows = list(csv.reader(fh))
    table = np.asarray(rows[1:], dtype=float)
    variance = table[:, rows[0].index("variance")]
    if table.shape[0] != inp["size"]["holdout"] or not np.all(np.isfinite(table)):
        failures.append("prediction.csv is incomplete or non-finite")
    if np.any(variance < 0):
        failures.append("negative predictive variance")
    if not (np.isfinite(job.mse_model[0]) and np.isfinite(job.mse_full[0])):
        failures.append("non-finite held-out error")
    # the likelihood the CLI optimizes and samples, with the simulator itself
    data = gp.FieldDataset(inp["x"], inp["y"], [[0.0, 1.0]])
    spec = gp.DiscrepancySpec("sgasp", gp.KernelSpec("matern52", data.lengths / 2.0))
    model = gp.builtin_model("sine_theta_x", CLI_THETA_BOUNDS)
    fixed = gp.CalibParams([5.0], [], [2.0], 1.0, 0.1)
    _loglik_check("sgasp fixed", "sgasp", "sine_theta_x", data, spec, model, fixed,
                  LOGLIK_RTOL, failures)
    # the emulator's kriging mean at fixed ranges
    ranges = [0.3, 3.0]
    em = gp.emulator_fit(inp["design"], inp["runs"], ranges=ranges)
    Z = inp["design"][:20] + 0.01
    got, var, _ = gp.emulator_predict(em, Z)
    want = oracle.kriging_mean(inp["design"], inp["runs"], np.asarray(ranges), Z)
    if not np.allclose(got, want, rtol=1e-6, atol=1e-6) or np.any(var < 0):
        failures.append("emulator mean differs from the kriging oracle")
    return failures


class Workload:
    def __init__(self, prepare, run, check, sizes):
        self.prepare, self.run, self.check, self.sizes = prepare, run, check, sizes


#: Full sizes are what the benchmark measures; smoke sizes keep tests fast.
WORKLOADS = {
    "sine_mcmc": Workload(
        sine_prepare, sine_run, sine_check,
        {"full": dict(n=30, samples=1000, burn_in=500, thin=5, holdout=1000),
         "smoke": dict(n=10, samples=200, burn_in=100, thin=25, holdout=50)},
    ),
    "nonlinear_ogasp": Workload(
        nonlinear_prepare, nonlinear_run, nonlinear_check,
        {"full": dict(n=15, samples=400, burn_in=200, thin=5, grid=500),
         "smoke": dict(n=8, samples=60, burn_in=30, thin=10, grid=40)},
    ),
    "modular_cli": Workload(
        cli_prepare, cli_run, cli_check,
        {"full": dict(n=20, design=40, design_iters=200, n_starts=2, samples=1000,
                      burn_in=500, thin=10, holdout=1000),
         "smoke": dict(n=8, design=15, design_iters=10, n_starts=1, samples=220,
                       burn_in=100, thin=10, holdout=30)},
    ),
}
