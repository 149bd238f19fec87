"""Command-line front end: data ingestion, calibration runs, prediction, and
scripted experiments.

Exit codes: 0 success, 1 invalid configuration, 2 data error, 3 numerical
failure.  All file outputs use 17-significant-digit scientific notation so a
written value reads back bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from .baselines import l2_calibrate, ls_calibrate
from .calibration import CalibParams, ComputerModel, FieldDataset, ParamTransform, _check_param_rows, predict
from .discrepancy import DiscrepancySpec
from .emulator import as_computer_model, emulator_fit
from .experiments import EXPERIMENTS, _write_csv
from .inference import (
    MIN_SUMMARY_SAMPLES,
    OptimizationError,
    PosteriorChain,
    mcmc_run,
    mle_fit,
    posterior_summary,
    predict_posterior,
)
from .kernels import KernelSpec
from .linalg import NumericalError
from .models import builtin_model

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_MODES = ("gasp", "sgasp", "ogasp", "l2", "ls")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DataError(ValueError):
    """Missing or malformed input data."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "mode",
    "data",
    "domain",
    "model",
    "kernel",
    "lambda",
    "quad_points",
    "mcmc",
    "mle",
    "predict",
    "truth",
    "output_dir",
}
_MODEL_KEYS = {"name", "theta_bounds", "emulator_design", "p_x"}
_MCMC_KEYS = {"samples", "burn_in", "thin", "seed"}
_MLE_KEYS = {"n_starts", "seed", "sigma2_fixed"}


def _text(v) -> bool:
    return isinstance(v, str)


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v) and v > 0


def _count(minimum: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum


#: (section or None for the top level, key, test, what the value must be).
_VALUE_RULES = (
    (None, "data", _text, "a file path"),
    (None, "output_dir", _text, "a directory path"),
    (None, "predict", _text, "a file path"),
    (None, "truth", _text, "a file path"),
    (None, "kernel", lambda v: v in ("matern52", "pow_exp"), "'matern52' or 'pow_exp'"),
    (None, "lambda", _positive, "a positive number"),
    (None, "quad_points", _count(1), "a positive integer"),
    ("model", "name", _text, "a builtin model name"),
    ("model", "emulator_design", _text, "a file path"),
    ("model", "p_x", _count(0), "a non-negative integer"),
    ("mcmc", "samples", _count(1), "a positive integer"),
    ("mcmc", "burn_in", _count(0), "a non-negative integer"),
    ("mcmc", "thin", _count(1), "a positive integer"),
    ("mcmc", "seed", _count(0), "a non-negative integer"),
    ("mle", "n_starts", _count(1), "a positive integer"),
    ("mle", "seed", _count(0), "a non-negative integer"),
    ("mle", "sigma2_fixed", lambda v: v is None or _positive(v), "a positive number or null"),
)


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    for key in ("mode", "data", "model", "output_dir"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if cfg["mode"] not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {cfg['mode']!r}")
    for section, keys in (("model", _MODEL_KEYS), ("mcmc", _MCMC_KEYS), ("mle", _MLE_KEYS)):
        if not isinstance(cfg.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object")
        _check_keys(cfg.get(section, {}), keys, section)
    for section, key, test, what in _VALUE_RULES:
        where = cfg if section is None else cfg.get(section, {})
        if key in where and not test(where[key]):
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(f"{name} must be {what}, got {where[key]!r}")
    mcmc = cfg.get("mcmc", {})
    if mcmc.get("samples", 50_000) - mcmc.get("burn_in", 10_000) < MIN_SUMMARY_SAMPLES:
        raise ConfigError(
            f"mcmc.samples must exceed mcmc.burn_in by at least {MIN_SUMMARY_SAMPLES}, "
            "the post-burn-in samples a posterior summary needs"
        )
    return cfg


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


def _read_csv(path: str):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: {len(row)} values, the header has {len(header)}")
                try:
                    rows.append([float(c) for c in row])
                except ValueError as err:
                    raise DataError(f"{path}:{lineno}: non-numeric value") from err
    except FileNotFoundError as err:
        raise DataError(f"data file not found: {path}") from err
    if not rows:
        raise DataError(f"{path}: no data rows")
    return [h.strip() for h in header], np.asarray(rows, dtype=float)


def _read_table(path: str, tail):
    """A table with header x1,...,xp and then the ``tail`` names, p >= 1:
    its (n, p) inputs, then one column per ``tail`` name."""
    header, M = _read_csv(path)
    p = len(header) - len(tail)
    expected = [f"x{i+1}" for i in range(max(p, 1))] + list(tail)
    if header != expected:
        raise DataError(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
    return (M[:, :p], *M[:, p:].T)


def read_field_csv(path: str):
    """Observations with header x1,...,xp,y."""
    return _read_table(path, ["y"])


def read_inputs_csv(path: str):
    """Prediction inputs with header x1,...,xp."""
    return _read_table(path, [])[0]


def read_truth_csv(path: str):
    """Held-out truth with header x1,...,xp,y_true."""
    return _read_table(path, ["y_true"])


def _write_table(path, header, matrix):
    _write_csv(path, header, np.atleast_2d(matrix))


def _update_summary(outdir: str, fields: dict, drop=()):
    path = os.path.join(outdir, "summary.json")
    summary = {}
    if os.path.exists(path):
        with open(path) as fh:
            summary = json.load(fh)
    summary.update(fields)
    for key in drop:
        summary.pop(key, None)
    os.makedirs(outdir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


# ---------------------------------------------------------------------------
# Assembly from configuration
# ---------------------------------------------------------------------------


def _build_data(cfg) -> FieldDataset:
    X, y = read_field_csv(cfg["data"])
    if "domain" in cfg:
        try:
            domain = np.asarray(cfg["domain"], dtype=float)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"domain must be rows of (lower, upper), got {cfg['domain']!r}") from err
    else:
        domain = np.column_stack([X.min(axis=0), X.max(axis=0)])
    try:
        return FieldDataset(X, y, domain)
    except ValueError as err:
        raise DataError(str(err)) from err


#: Fitted emulator state that ``calibrate`` writes and ``predict`` reuses.
_EMULATOR_FILE = "emulator.json"


def _design_digest(M) -> str:
    return hashlib.sha256(np.ascontiguousarray(M, dtype="<f8").tobytes()).hexdigest()


def _stored_ranges(outdir: str, M) -> np.ndarray:
    """Emulator ranges that ``calibrate`` fitted to the design matrix ``M``."""
    path = os.path.join(outdir, _EMULATOR_FILE)
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except FileNotFoundError as err:
        raise DataError(f"no {_EMULATOR_FILE} under {outdir}; run calibrate first") from err
    except ValueError as err:
        raise DataError(f"{path}: not valid JSON") from err
    if (
        not isinstance(stored, dict)
        or stored.get("design_shape") != list(M.shape)
        or stored.get("design_sha256") != _design_digest(M)
    ):
        raise DataError(f"{path}: fitted to another emulator design; rerun calibrate")
    try:
        ranges = np.asarray(stored["ranges"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: ranges must be a list of numbers") from err
    if ranges.shape != (M.shape[1] - 1,) or not np.all(np.isfinite(ranges)) or np.any(ranges <= 0):
        raise DataError(f"{path}: ranges must be one finite positive value per design column")
    return ranges


def _build_model(cfg, data: FieldDataset, fit_emulator: bool) -> ComputerModel:
    """The configured computer model of ``data``'s inputs.  An emulator is
    fitted (and its ranges written to ``emulator.json``) when
    ``fit_emulator``, else rebuilt from that file without optimizing."""
    mc = cfg["model"]
    if "name" in mc:
        try:
            return builtin_model(mc["name"], mc.get("theta_bounds"))
        except KeyError as err:
            raise ConfigError(str(err)) from err
        except (TypeError, ValueError) as err:
            raise ConfigError(f"model: {err}") from err
    if "emulator_design" in mc:
        if "p_x" not in mc or "theta_bounds" not in mc:
            raise ConfigError("emulator models need p_x and theta_bounds")
        if mc["p_x"] != data.p:
            raise ConfigError(f"model.p_x is {mc['p_x']}, the field data has {data.p} input columns")
        header, M = _read_csv(mc["emulator_design"])
        if header[-1] != "y":
            raise DataError(f"{mc['emulator_design']}: last column must be y")
        ranges = None if fit_emulator else _stored_ranges(cfg["output_dir"], M)
        try:
            em = emulator_fit(M[:, :-1], M[:, -1], ranges=ranges)
        except ValueError as err:
            raise DataError(f"{mc['emulator_design']}: {err}") from err
        try:
            model = as_computer_model(em, mc["p_x"], mc["theta_bounds"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"model: {err}") from err
        if fit_emulator:
            stored = {
                "design_shape": list(M.shape),
                "design_sha256": _design_digest(M),
                "ranges": em.kernel.ranges.tolist(),
            }
            with open(os.path.join(cfg["output_dir"], _EMULATOR_FILE), "w") as fh:
                json.dump(stored, fh, indent=2, sort_keys=True)
        return model
    raise ConfigError("model needs either a builtin 'name' or an 'emulator_design'")


def _build_spec(cfg, data: FieldDataset) -> DiscrepancySpec:
    family = cfg.get("kernel", "matern52")
    kern = KernelSpec(family, data.lengths / 2.0)
    return DiscrepancySpec(cfg["mode"], kern, lam=cfg.get("lambda"), quad_points=cfg.get("quad_points"))


def _write_prediction(cfg, outdir, Xstar, result):
    """Write ``result`` to prediction.csv and score it against the truth file in
    summary.json; without a truth file, drop old scores."""
    sd = np.sqrt(np.maximum(result.variance, 0.0))
    table = np.column_stack(
        [
            Xstar,
            result.model_mean,
            result.full_mean,
            result.variance,
            result.full_mean - 1.959963984540054 * sd,
            result.full_mean + 1.959963984540054 * sd,
        ]
    )
    header = [f"x{i+1}" for i in range(Xstar.shape[1])] + [
        "model_only_mean",
        "full_mean",
        "variance",
        "lower95",
        "upper95",
    ]
    _write_table(os.path.join(outdir, "prediction.csv"), header, table)
    if "truth" not in cfg:
        _update_summary(outdir, {}, drop=("mse_fm", "mse_fm_delta"))
        return
    Xt, ytrue = read_truth_csv(cfg["truth"])
    if Xt.shape != Xstar.shape or not np.allclose(Xt, Xstar, atol=1e-12):
        raise DataError("truth file inputs do not match the prediction inputs")
    _update_summary(
        outdir,
        {
            "mse_fm": float(np.mean((ytrue - result.model_mean) ** 2)),
            "mse_fm_delta": float(np.mean((ytrue - result.full_mean) ** 2)),
        },
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_calibrate(cfg: dict) -> int:
    outdir = cfg["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    # start afresh, so that predict never reads an earlier run's chain or fit;
    # emulator.json stays out of this: _build_model writes it for this run
    for name in ("summary.json", "posterior.csv", "mle.json", "prediction.csv"):
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            os.remove(path)
    data = _build_data(cfg)
    model = _build_model(cfg, data, fit_emulator=True)
    mode = cfg["mode"]
    mle_cfg = cfg.get("mle", {})
    seed = int(mle_cfg.get("seed", 0))
    t0 = time.time()

    if mode in ("l2", "ls"):
        n_starts = int(mle_cfg.get("n_starts", 10))
        if mode == "l2":
            res = l2_calibrate(data, model, cfg.get("quad_points"), seed=seed, n_starts=n_starts)
            loss = {"l2_loss": res.l2_loss_at_opt}
        else:
            res = ls_calibrate(data, model, n_starts=n_starts, seed=seed)
            loss = {"sse": res.sse_at_opt}
        fields = {"mode": mode, "theta_hat": res.theta_hat.tolist(), **loss, "seed": seed}
        _update_summary(outdir, {**fields, "timing_seconds": time.time() - t0})
        if "predict" in cfg:
            Xstar = _prediction_inputs(cfg, data)
            _write_prediction(cfg, outdir, Xstar, res.predict(model, Xstar))
        return EXIT_OK

    spec = _build_spec(cfg, data)
    summary_fields = {"mode": mode}
    if "mle" in cfg:
        fit = mle_fit(
            data,
            model,
            spec,
            n_starts=int(mle_cfg.get("n_starts", 10)),
            seed=seed,
            sigma2_fixed=mle_cfg.get("sigma2_fixed"),
        )
        p = fit.best_params
        payload = {
            "theta": p.theta.tolist(),
            "beta": p.beta_delta.tolist(),
            "psi": p.psi_delta.tolist(),
            "gamma": p.gamma().tolist(),
            "sigma2_delta": p.sigma2_delta,
            "eta": p.eta,
            "sigma2_noise": p.sigma2_noise,
            "loglik": fit.best_loglik,
            "sigma2_profiled": fit.sigma2_profiled,
            "seed": seed,
            "per_start": [
                {k: v for k, v in s.items() if k != "x"} for s in fit.per_start
            ],
        }
        with open(os.path.join(outdir, "mle.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        summary_fields["mle_theta"] = p.theta.tolist()
        summary_fields["mle_loglik"] = fit.best_loglik

    if "mcmc" in cfg:
        mcfg = cfg["mcmc"]
        S = int(mcfg.get("samples", 50_000))
        burn_in = int(mcfg.get("burn_in", 10_000))
        thin = int(mcfg.get("thin", 25))
        mcmc_seed = int(mcfg.get("seed", 0))
        t1 = time.time()
        chain = mcmc_run(data, model, spec, S=S, burn_in=burn_in, seed=mcmc_seed)
        kept = chain.post_burn_in()[::thin]
        _write_table(os.path.join(outdir, "posterior.csv"), chain.param_names, kept)
        summary_fields.update(
            {
                "posterior": posterior_summary(chain),
                "acceptance_rates": chain.acceptance_rates,
                "proposal_scales": chain.proposal_scales,
                "seed": mcmc_seed,
                "samples": S,
                "burn_in": burn_in,
                "thin": thin,
                "mcmc_seconds": time.time() - t1,
            }
        )
    summary_fields["timing_seconds"] = time.time() - t0
    _update_summary(outdir, summary_fields)
    return EXIT_OK


def _check_rows(path, M, tr: ParamTransform) -> None:
    """:func:`calibration._check_param_rows` on every row of a file's table."""
    try:
        _check_param_rows(M, tr)
    except ValueError as err:
        raise DataError(f"{path}: {err}") from err


def _load_chain(outdir, tr: ParamTransform) -> PosteriorChain | None:
    path = os.path.join(outdir, "posterior.csv")
    if not os.path.exists(path):
        return None
    header, M = _read_csv(path)
    if header != tr.names:
        raise DataError(f"{path}: expected header {','.join(tr.names)}, got {','.join(header)}")
    _check_rows(path, M, tr)
    return PosteriorChain(
        samples=M,
        burn_in=0,
        acceptance_rates={},
        param_names=header,
        theta_bounds=tr.theta_bounds,
        n_basis=tr.n_basis,
        p_x=tr.p_x,
    )


def _load_mle(outdir, tr: ParamTransform) -> CalibParams:
    path = os.path.join(outdir, "mle.json")
    if not os.path.exists(path):
        raise DataError(f"no posterior.csv or mle.json under {outdir}; run calibrate first")
    keys = ("theta", "beta", "psi", "sigma2_delta", "eta")
    try:
        with open(path) as fh:
            payload = json.load(fh)
        parts = [np.asarray(payload[k], dtype=float).reshape(-1) for k in keys]
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: needs numeric {', '.join(keys)}") from err
    if [v.size for v in parts] != [tr.p_theta, tr.n_basis, tr.p_x, 1, 1]:
        raise DataError(f"{path}: parameter lengths do not match the model")
    row = np.concatenate(parts)
    _check_rows(path, row[None, :], tr)
    return tr.unpack(row)


def _prediction_inputs(cfg, data: FieldDataset):
    Xstar = read_inputs_csv(cfg["predict"])
    if Xstar.shape[1] != data.p:
        raise DataError(
            f"{cfg['predict']}: {Xstar.shape[1]} input columns, the field data has {data.p}"
        )
    if not np.all(np.isfinite(Xstar)):
        raise DataError(f"{cfg['predict']}: prediction inputs must be finite (no NaN or infinity)")
    return Xstar


def cmd_predict(cfg: dict) -> int:
    if "predict" not in cfg:
        raise ConfigError("predict command needs a 'predict' input path")
    if cfg["mode"] in ("l2", "ls"):
        raise ConfigError(
            "l2/ls predictions are written by the calibrate command; rerun it "
            "with a 'predict' path"
        )
    outdir = cfg["output_dir"]
    data = _build_data(cfg)
    model = _build_model(cfg, data, fit_emulator=False)
    spec = _build_spec(cfg, data)
    Xstar = _prediction_inputs(cfg, data)
    tr = ParamTransform(model.theta_bounds, spec.n_basis, data.p)
    chain = _load_chain(outdir, tr)
    if chain is not None:
        out = predict_posterior(chain, data, model, spec, Xstar, thin=1)
    else:
        out = predict(_load_mle(outdir, tr), data, model, spec, Xstar)
    _write_prediction(cfg, outdir, Xstar, out)
    return EXIT_OK


def cmd_experiment(name: str, seed: int, outdir: str) -> int:
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; choices: {sorted(EXPERIMENTS)}"
        )
    EXPERIMENTS[name](seed=seed, outdir=outdir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gpcalib",
        description="Calibrate imperfect computer models with GP discrepancies.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("calibrate", "predict"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
    pe = sub.add_parser("experiment")
    pe.add_argument("name", help=f"one of {sorted(EXPERIMENTS)}")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--outdir", default="out")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "experiment":
            return cmd_experiment(args.name, args.seed, args.outdir)
        cfg = load_config(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        return cmd_predict(cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, OptimizationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
