"""Command-line contract: exit codes, file schemas, determinism."""

import contextlib
import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcalib.calibration import CalibParams, FieldDataset, predict
from gpcalib import emulator
from gpcalib.baselines import l2_calibrate, ls_calibrate
from gpcalib.cli import _build_spec, _read_csv, main
from gpcalib.discrepancy import DiscrepancySpec, SGASP
from gpcalib.emulator import emulator_fit
from gpcalib.kernels import KernelSpec
from gpcalib.models import BUILTIN_MODELS, builtin_model, sine_truth


def _write_field_csv(path, X, y):
    X = np.atleast_2d(X)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i+1}" for i in range(X.shape[1])] + ["y"])
        for row, val in zip(X, y):
            w.writerow([f"{v:.16e}" for v in row] + [f"{val:.16e}"])


def _write_inputs_csv(path, X):
    X = np.atleast_2d(X)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i+1}" for i in range(X.shape[1])])
        for row in X:
            w.writerow([f"{v:.16e}" for v in row])


def _write_truth_csv(path, X, y):
    X = np.atleast_2d(X)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i+1}" for i in range(X.shape[1])] + ["y_true"])
        for row, val in zip(X, y):
            w.writerow([f"{v:.16e}" for v in row] + [f"{val:.16e}"])


@pytest.fixture
def sine_files(tmp_path):
    n = 15
    x = np.linspace(0, 1, n)[:, None]
    rng = np.random.default_rng(5)
    y = sine_truth(x) + 0.3 * rng.standard_normal(n)
    data_path = tmp_path / "field.csv"
    _write_field_csv(data_path, x, y)
    xs = np.linspace(0.05, 0.95, 8)[:, None]
    pred_path = tmp_path / "inputs.csv"
    _write_inputs_csv(pred_path, xs)
    truth_path = tmp_path / "truth.csv"
    _write_truth_csv(truth_path, xs, sine_truth(xs))
    return tmp_path, data_path, pred_path, truth_path, x, y, xs


def _config(tmp_path, data_path, extra):
    cfg = {
        "mode": "sgasp",
        "data": str(data_path),
        "domain": [[0.0, 1.0]],
        "model": {"name": "sine_theta_x", "theta_bounds": [[0.0, 40.0]]},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Field, prediction, truth and emulator-run files that generated configs name."""
    path = tmp_path_factory.mktemp("fuzz")
    x = np.linspace(0, 1, 10)[:, None]
    _write_field_csv(path / "field.csv", x, sine_truth(x) + 0.1 * np.cos(7 * x[:, 0]))
    xs = np.linspace(0.05, 0.95, 4)[:, None]
    _write_inputs_csv(path / "inputs.csv", xs)
    _write_truth_csv(path / "truth.csv", xs, sine_truth(xs))
    _write_runs(path / "runs.csv", D=12)
    return path


@st.composite
def _generated_configs(draw, files):
    """Run configurations over every mode, builtin and emulator models, theta
    boxes down to 1e-5 wide or reversed, domains, kernels, lambda, quadrature
    points and tiny fits, on the files under ``files``."""
    lo = draw(st.sampled_from([0.0, 1.0, 30.0, -2.0]))
    width = draw(st.sampled_from([1e-5, 1e-3, 1.0, 10.0, -1.0]))  # a negative width is a reversed box
    box = [[lo, lo + width]] * draw(st.integers(1, 2))
    if draw(st.booleans()):
        model = {"name": draw(st.sampled_from(BUILTIN_MODELS)), "theta_bounds": box}
    else:
        p_x = 1 if draw(st.booleans()) else draw(st.integers(0, 2))
        model = {"emulator_design": str(files / "runs.csv"), "p_x": p_x, "theta_bounds": box}
    cfg = {
        "mode": draw(st.sampled_from(["gasp", "sgasp", "ogasp", "l2", "ls"])),
        "model": model,
        "data": str(files / "field.csv"),
        "predict": str(files / "inputs.csv"),
        "truth": str(files / "truth.csv"),
        "output_dir": str(files / "out"),
    }
    optional = {
        "domain": st.sampled_from([[[0.0, 1.0]], [[-1.0, 2.0]], [[0.2, 0.8]]]),
        "kernel": st.sampled_from(["matern52", "pow_exp"]),
        "lambda": st.sampled_from([1e-3, 0.5, 15.0, 1e6]),
        "quad_points": st.integers(1, 40),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    fits = draw(st.sampled_from([("mle",), ("mcmc",), ("mle", "mcmc")]))
    if "mle" in fits:
        cfg["mle"] = {"n_starts": draw(st.integers(1, 2))}
    if "mcmc" in fits:
        cfg["mcmc"] = {"samples": draw(st.integers(100, 140)), "burn_in": 0}
    return cfg


class TestConfigValidation:
    def test_unknown_key_rejected(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"lamda": 1.0})
        assert main(["calibrate", "--config", str(path)]) == 1

    def test_unknown_model_key_rejected(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, cfg = _config(tmp_path, data_path, {})
        cfg["model"]["bounds"] = [[0, 1]]
        path.write_text(json.dumps(cfg))
        assert main(["calibrate", "--config", str(path)]) == 1

    def test_bad_mode_rejected(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"mode": "bogus"})
        assert main(["calibrate", "--config", str(path)]) == 1

    def test_missing_data_file(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"data": str(tmp_path / "absent.csv")})
        assert main(["calibrate", "--config", str(path)]) == 2

    def test_bad_header(self, sine_files, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        path, _ = _config(tmp_path, bad, {})
        assert main(["calibrate", "--config", str(path)]) == 2

    def test_nan_in_field_data(self, sine_files, tmp_path):
        _, _, _, _, x, y, _ = sine_files
        y = y.copy()
        y[3] = np.nan
        bad = tmp_path / "nan.csv"
        _write_field_csv(bad, x, y)
        path, _ = _config(tmp_path, bad, {})
        assert main(["calibrate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("row", ["0.2", "0.2,0.1,0.5"])
    def test_ragged_row_is_a_data_error(self, sine_files, capsys, row):
        tmp_path, *_ = sine_files
        bad = tmp_path / "ragged.csv"
        bad.write_text(f"x1,y\n0.1,0.3\n{row}\n0.3,0.2\n")
        path, _ = _config(tmp_path, bad, {})
        assert main(["calibrate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{bad}:3:" in err

    def test_infinite_domain_is_a_data_error(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"domain": [[0.0, float("inf")]]})
        assert main(["calibrate", "--config", str(path)]) == 2

    def test_unknown_experiment(self):
        assert main(["experiment", "bogus", "--outdir", "/tmp/never"]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            {"mcmc": 5},
            {"lambda": "abc"},
            {"domain": "abc"},
            {"mcmc": {"samples": "x"}},
            {"mcmc": {"samples": 500, "burn_in": 500}},
            {"mcmc": {"samples": 150, "burn_in": 100}},
            {"mcmc": {"samples": 600, "burn_in": 100, "thin": 0}},
            {"mle": {"sigma2_fixed": -1}},
            {"mle": {"n_starts": 0}},
            {"model": {"name": "sine_theta_x", "theta_bounds": [[1, 0]]}},
            {"model": {"name": "sine_theta_x", "theta_bounds": [[0, float("inf")]]}},
            {"mode": "ogasp", "quad_points": 0},
            {"mode": "ogasp", "quad_points": 3.5},
            # a second row would be a theta_2 that sine_theta_x never reads
            {"model": {"name": "sine_theta_x", "theta_bounds": [[0, 1], [0, 2]]}},
        ],
    )
    def test_malformed_value_exits_with_config_error(self, sine_files, capsys, extra):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"mle": {"n_starts": 1}, **extra})
        assert main(["calibrate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "extra, code, prefix",
        [
            # a theta box of width inf: the sampler's logit transform fails
            ({"model": {"name": "sine_theta_x", "theta_bounds": [[-1e308, 1e308]]}}, 1, "error: model: "),
            # a domain of width inf: the default kernel ranges are infinite
            *[({"mode": m, "domain": [[-1e308, 1e308]]}, 2, "data error: ")
              for m in ("gasp", "sgasp", "ogasp", "l2")],
            # c = n / lambda is inf, so the sampler's start cannot be factored
            ({"lambda": 5e-324, "mcmc": {"samples": 200, "burn_in": 100}}, 3, "numerical failure: "),
            # a finite domain whose squared volume, the ogasp ridge scale, overflows
            ({"mode": "ogasp", "domain": [[-1e200, 1e200]], "mcmc": {"samples": 200, "burn_in": 100}},
             3, "numerical failure: "),
            # a finite domain whose search box allows a psi with an infinite range,
            # and whose midpoint grid overflowed before its divide; sin(theta x) is NaN
            # where theta x overflows, which fails those starts, and a start below
            # theta = 17.9 fits
            ({"mode": "l2", "domain": [[-1e307, 1e307]]}, 0, ""),
            # a theta box so far out that squared residuals overflow: in the start's
            # variance (mcmc), every fit's quadratic form (mle, whose error says so),
            # the sum of squares (ls)
            *[({"mode": "gasp", "model": {"name": "constant", "theta_bounds": [[1e300, 2e300]]}, **fit},
               3, prefix)
              for fit, prefix in (
                  ({"mcmc": {"samples": 200, "burn_in": 100}}, "numerical failure: "),
                  ({"mle": {"n_starts": 2}}, "numerical failure: no optimization start converged: "
                   "no point the search visited had a finite score"),
              )],
            ({"mode": "ls", "model": {"name": "constant", "theta_bounds": [[1e300, 2e300]]}}, 3,
             "numerical failure: "),
            # a start whose variance is finite but whose likelihood's quadratic form overflows
            ({"model": {"name": "constant", "theta_bounds": [[1e160, 2e160]]},
              "mcmc": {"samples": 200, "burn_in": 100}}, 3, "numerical failure: "),
            # emulator runs whose quadratic form overflows at every range the search visits
            ({"model": {"emulator_design": "huge_runs.csv", "p_x": 1, "theta_bounds": [[25.0, 35.0]]}},
             3, "numerical failure: no optimization start converged: "),
            # an emulator whose p_x disagrees with the field data's one input column
            *[({"model": {"emulator_design": "runs.csv", "p_x": p_x, "theta_bounds": [[25.0, 35.0]]}},
               1, f"error: model.p_x is {p_x}, the field data has 1 input columns")
              for p_x in (0, 2)],
            # an ogasp emulator, which has no analytic gradient, on a box narrower
            # than twice the finite-difference step 1e-4
            *[({"mode": "ogasp", "model": {"emulator_design": "runs.csv", "p_x": 1,
                                           "theta_bounds": [[1.0, 1.0001]]}, **fit}, 0, "")
              for fit in ({"mle": {"n_starts": 2}}, {"mcmc": {"samples": 200, "burn_in": 100}})],
        ],
        ids=["theta-box", "domain-gasp", "domain-sgasp", "domain-ogasp", "domain-l2", "mcmc-start",
             "volume-ogasp", "wide-l2", "far-box-mcmc", "far-box-mle", "far-box-ls", "overflowing-start",
             "overflowing-emulator", "emulator-p_x-0", "emulator-p_x-2", "narrow-box-ogasp-mle",
             "narrow-box-ogasp-mcmc"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print before the prefix
    def test_bad_config_exits_without_traceback(self, sine_files, capsys, monkeypatch, extra, code, prefix):
        # each once escaped main() as an exception, which the console script prints as a traceback
        tmp_path, data_path, *_ = sine_files
        _write_runs(tmp_path / "huge_runs.csv", D=12, scale=1e200)
        _write_runs(tmp_path / "runs.csv")
        monkeypatch.chdir(tmp_path)
        path, _ = _config(tmp_path, data_path, extra)
        assert main(["calibrate", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "Traceback" not in err

    @given(data=st.data())
    @settings(max_examples=100)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print before the prefix
    def test_generated_config_exits_with_a_documented_code(self, fuzz_dir, data):
        path = fuzz_dir / "config.json"
        path.write_text(json.dumps(data.draw(_generated_configs(fuzz_dir))))
        for command in ("calibrate", "predict"):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, "--config", str(path)])
            assert code in (0, 1, 2, 3)
            assert (code == 0) == (err.getvalue() == "")
            assert code == 0 or err.getvalue().startswith(("error: ", "data error: ", "numerical failure: "))
            if code:
                break

    def test_quad_points_reach_the_ogasp_spec(self, sine_files):
        _, _, _, _, x, y, _ = sine_files
        data = FieldDataset(x, y, [[0.0, 1.0]])
        spec = _build_spec({"mode": "ogasp", "quad_points": 50}, data)
        assert spec.mode == "ogasp" and spec.quad_points == 50


class TestCalibrateCommand:
    def test_mcmc_outputs_and_determinism(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        mcmc = {"samples": 600, "burn_in": 100, "thin": 5, "seed": 3}
        path, cfg = _config(tmp_path, data_path, {"mcmc": mcmc})
        assert main(["calibrate", "--config", str(path)]) == 0
        posterior = tmp_path / "out" / "posterior.csv"
        rows = posterior.read_text().strip().splitlines()
        assert rows[0] == "theta_1,psi_1,sigma2_delta,eta"
        assert len(rows) - 1 == (600 - 100) // 5
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "sgasp"
        assert "posterior" in summary and "acceptance_rates" in summary
        first = posterior.read_bytes()
        assert main(["calibrate", "--config", str(path)]) == 0
        assert posterior.read_bytes() == first

    def test_mle_output(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"mle": {"n_starts": 3, "seed": 0}})
        assert main(["calibrate", "--config", str(path)]) == 0
        payload = json.loads((tmp_path / "out" / "mle.json").read_text())
        assert 0.0 <= payload["theta"][0] <= 40.0
        assert payload["sigma2_delta"] > 0

    def test_ls_mode_with_prediction(self, sine_files):
        tmp_path, data_path, pred_path, truth_path, *_ = sine_files
        path, _ = _config(
            tmp_path,
            data_path,
            {"mode": "ls", "predict": str(pred_path), "truth": str(truth_path)},
        )
        assert main(["calibrate", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "mse_fm" in summary and "mse_fm_delta" in summary
        assert (tmp_path / "out" / "prediction.csv").exists()

    def test_l2_mode(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"mode": "l2", "quad_points": 200})
        assert main(["calibrate", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "theta_hat" in summary and summary["l2_loss"] >= 0


    @pytest.mark.parametrize("mode", ["l2", "ls"])
    def test_baseline_prediction_is_the_library_predict(self, sine_files, mode):
        tmp_path, data_path, pred_path, _, x, y, xs = sine_files
        extra = {"mode": mode, "predict": str(pred_path), "mle": {"n_starts": 4, "seed": 1}}
        path, cfg = _config(tmp_path, data_path, extra)
        assert main(["calibrate", "--config", str(path)]) == 0
        _, got = _read_csv(str(tmp_path / "out" / "prediction.csv"))
        data = FieldDataset(x, y, [[0.0, 1.0]])
        model = builtin_model("sine_theta_x", theta_bounds=[[0.0, 40.0]])
        if mode == "l2":
            res = l2_calibrate(data, model, seed=1, n_starts=4)
        else:
            res = ls_calibrate(data, model, n_starts=4, seed=1)
        want = res.predict(model, xs)
        # 17 significant digits round-trip, so the columns match bit for bit
        assert np.array_equal(got[:, 0], xs[:, 0])
        assert np.array_equal(got[:, 1], want.model_mean)
        assert np.array_equal(got[:, 2], want.full_mean)
        assert np.array_equal(got[:, 3], want.variance)

    def test_rerun_starts_afresh(self, sine_files):
        # an mle-only rerun into the directory of an mcmc run must not leave
        # that run's chain behind for predict to use, nor its summary entries
        tmp_path, data_path, pred_path, *_ = sine_files
        mcmc = {"samples": 400, "burn_in": 100, "thin": 10, "seed": 1}
        mle = {"n_starts": 3, "seed": 3}
        path, _ = _config(tmp_path, data_path, {"mcmc": mcmc, "mle": mle, "predict": str(pred_path)})
        assert main(["calibrate", "--config", str(path)]) == 0
        assert main(["predict", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "posterior.csv").exists()
        path, _ = _config(tmp_path, data_path, {"mle": mle, "predict": str(pred_path)})
        assert main(["calibrate", "--config", str(path)]) == 0
        assert not (out / "posterior.csv").exists() and not (out / "prediction.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert not {"posterior", "acceptance_rates", "mcmc_seconds"} & set(summary)
        assert main(["predict", "--config", str(path)]) == 0
        # the same run in a fresh directory
        fresh = dict(json.loads(path.read_text()), output_dir=str(tmp_path / "fresh"))
        path.write_text(json.dumps(fresh))
        assert main(["calibrate", "--config", str(path)]) == 0
        assert main(["predict", "--config", str(path)]) == 0
        fresh_out = tmp_path / "fresh"
        for name in ("prediction.csv", "mle.json"):
            assert (out / name).read_bytes() == (fresh_out / name).read_bytes()


class TestPredictCommand:
    def test_row_count_and_header(self, sine_files):
        tmp_path, data_path, pred_path, truth_path, *_ = sine_files
        mcmc = {"samples": 400, "burn_in": 100, "thin": 10, "seed": 1}
        path, _ = _config(
            tmp_path, data_path, {"mcmc": mcmc, "predict": str(pred_path), "truth": str(truth_path)}
        )
        assert main(["calibrate", "--config", str(path)]) == 0
        assert main(["predict", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "prediction.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,model_only_mean,full_mean,variance,lower95,upper95"
        assert len(lines) - 1 == 8
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "mse_fm" in summary and "mse_fm_delta" in summary

    def test_predict_without_truth_drops_old_scores(self, sine_files):
        tmp_path, data_path, pred_path, truth_path, *_ = sine_files
        extra = {"mle": {"n_starts": 3, "seed": 0}, "predict": str(pred_path)}
        path, _ = _config(tmp_path, data_path, dict(extra, truth=str(truth_path)))
        assert main(["calibrate", "--config", str(path)]) == 0
        assert main(["predict", "--config", str(path)]) == 0
        summary_path = tmp_path / "out" / "summary.json"
        assert "mse_fm" in json.loads(summary_path.read_text())
        path, _ = _config(tmp_path, data_path, extra)
        assert main(["predict", "--config", str(path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert "mse_fm" not in summary and "mse_fm_delta" not in summary
        assert summary["mode"] == "sgasp" and "mle_theta" in summary

    def test_single_sample_chain_matches_plugin(self, sine_files):
        tmp_path, data_path, pred_path, _, x, y, xs = sine_files
        path, cfg = _config(tmp_path, data_path, {"predict": str(pred_path)})
        outdir = tmp_path / "out"
        outdir.mkdir()
        params = CalibParams([31.0], [], [2.0], 1.0, 0.05)
        with open(outdir / "posterior.csv", "w") as fh:
            fh.write("theta_1,psi_1,sigma2_delta,eta\n")
            fh.write(",".join(f"{v:.16e}" for v in [31.0, 2.0, 1.0, 0.05]) + "\n")
        assert main(["predict", "--config", str(path)]) == 0
        lines = (outdir / "prediction.csv").read_text().strip().splitlines()
        got = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        data = FieldDataset(x, y, [[0.0, 1.0]])
        model = builtin_model("sine_theta_x")
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        want = predict(params, data, model, spec, xs)
        np.testing.assert_allclose(got[:, 2], want.full_mean, rtol=1e-12)
        np.testing.assert_allclose(got[:, 3], want.variance, rtol=1e-12)

    def test_round_trip_is_exact(self, sine_files):
        tmp_path, data_path, pred_path, _, x, y, xs = sine_files
        path, _ = _config(tmp_path, data_path, {"predict": str(pred_path)})
        outdir = tmp_path / "out"
        outdir.mkdir()
        with open(outdir / "posterior.csv", "w") as fh:
            fh.write("theta_1,psi_1,sigma2_delta,eta\n")
            fh.write(",".join(f"{v:.16e}" for v in [31.0, 2.0, 1.0, 0.05]) + "\n")
        assert main(["predict", "--config", str(path)]) == 0
        lines = (outdir / "prediction.csv").read_text().strip().splitlines()
        got = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        data = FieldDataset(x, y, [[0.0, 1.0]])
        model = builtin_model("sine_theta_x")
        spec = DiscrepancySpec(SGASP, KernelSpec("matern52", [0.5]))
        want = predict(CalibParams([31.0], [], [2.0], 1.0, 0.05), data, model, spec, xs)
        assert np.array_equal(got[:, 2], want.full_mean)  # bit-exact round trip

    @pytest.mark.parametrize(
        "header, row",
        [
            ("theta_1,psi_1,sigma2_delta", [31.0, 2.0, 1.0]),
            ("theta_1,sigma2_delta,psi_1,eta", [31.0, 1.0, 2.0, 0.05]),
        ],
    )
    def test_posterior_header_must_match_the_model(self, sine_files, header, row):
        tmp_path, data_path, pred_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"predict": str(pred_path)})
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "posterior.csv").write_text(
            header + "\n" + ",".join(f"{v:.16e}" for v in row) + "\n"
        )
        assert main(["predict", "--config", str(path)]) == 2
        assert not (outdir / "prediction.csv").exists()

    def test_predict_without_calibration(self, sine_files):
        tmp_path, data_path, pred_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"predict": str(pred_path)})
        assert main(["predict", "--config", str(path)]) == 2


class TestEmulatorModelConfig:
    def test_calibrate_with_emulated_model(self, sine_files):
        tmp_path, data_path, *_ = sine_files
        rng = np.random.default_rng(0)
        design = np.column_stack(
            [rng.uniform(size=40), rng.uniform(25.0, 35.0, size=40)]
        )
        runs = np.sin(design[:, 1] * design[:, 0])
        runs_path = tmp_path / "runs.csv"
        with open(runs_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "t1", "y"])
            for row, val in zip(design, runs):
                w.writerow([f"{v:.16e}" for v in row] + [f"{val:.16e}"])
        path, cfg = _config(
            tmp_path,
            data_path,
            {
                "model": {
                    "emulator_design": str(runs_path),
                    "p_x": 1,
                    "theta_bounds": [[25.0, 35.0]],
                },
                "mcmc": {"samples": 400, "burn_in": 100, "thin": 10, "seed": 0},
            },
        )
        assert main(["calibrate", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        med = summary["posterior"]["theta_1"]["median"]
        assert 25.0 <= med <= 35.0


def _write_runs(path, seed=0, D=30, scale=1.0):
    rng = np.random.default_rng(seed)
    design = np.column_stack([rng.uniform(size=D), rng.uniform(25.0, 35.0, size=D)])
    runs = scale * np.sin(design[:, 1] * design[:, 0])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "t1", "y"])
        for row, val in zip(design, runs):
            w.writerow([f"{v:.16e}" for v in row] + [f"{val:.16e}"])


class TestEmulatorReuse:
    @pytest.fixture
    def calibrated(self, sine_files):
        tmp_path, data_path, pred_path, *_ = sine_files
        runs_path = tmp_path / "runs.csv"
        _write_runs(runs_path)
        model = {"emulator_design": str(runs_path), "p_x": 1, "theta_bounds": [[25.0, 35.0]]}
        path, _ = _config(tmp_path, data_path, {"model": model, "predict": str(pred_path)})
        assert main(["calibrate", "--config", str(path)]) == 0
        outdir = tmp_path / "out"
        (outdir / "posterior.csv").write_text(
            "theta_1,psi_1,sigma2_delta,eta\n"
            + ",".join(f"{v:.16e}" for v in [31.0, 2.0, 1.0, 0.05]) + "\n"
        )
        return path, runs_path, outdir

    def test_calibrate_stores_the_fitted_ranges(self, calibrated):
        _, runs_path, outdir = calibrated
        stored = json.loads((outdir / "emulator.json").read_text())
        header, M = _read_csv(str(runs_path))
        em = emulator_fit(M[:, :-1], M[:, -1])
        assert stored["ranges"] == em.kernel.ranges.tolist()
        assert stored["design_shape"] == [30, 3]

    def test_predict_never_optimizes(self, calibrated, monkeypatch):
        path, *_ = calibrated
        calls = []
        start = emulator._maximize
        monkeypatch.setattr(emulator, "_maximize", lambda *a, **k: calls.append(1) or start(*a, **k))
        assert main(["predict", "--config", str(path)]) == 0
        assert calls == []

    def test_missing_emulator_file(self, calibrated, capsys):
        path, _, outdir = calibrated
        (outdir / "emulator.json").unlink()
        assert main(["predict", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (outdir / "prediction.csv").exists()

    def test_changed_design_is_rejected(self, calibrated, capsys):
        path, runs_path, outdir = calibrated
        _write_runs(runs_path, seed=1)
        assert main(["predict", "--config", str(path)]) == 2
        assert "another emulator design" in capsys.readouterr().err
        assert not (outdir / "prediction.csv").exists()

    def test_l2_predict_stays_a_config_error(self, calibrated):
        path, _, outdir = calibrated
        (outdir / "emulator.json").unlink()
        cfg = json.loads(path.read_text())
        cfg["mode"] = "l2"
        path.write_text(json.dumps(cfg))
        assert main(["predict", "--config", str(path)]) == 1


class TestPredictInputChecks:
    @pytest.mark.parametrize(
        "row",
        [
            [31.0, -1.0, 1.0, 0.05],
            [31.0, 2.0, float("nan"), 0.05],
            [31.0, 2.0, 1.0, float("nan")],
            [31.0, 2.0, 0.0, 0.05],
            [31.0, 2.0, 1.0, -0.1],
            [1e9, 2.0, 1.0, 0.05],
            [31.0, float("inf"), 1.0, 0.05],
            [31.0, 1e-310, 1.0, 0.05],  # positive, but 1/psi overflows
        ],
    )
    def test_bad_posterior_row(self, sine_files, capsys, row):
        tmp_path, data_path, pred_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"predict": str(pred_path)})
        outdir = tmp_path / "out"
        outdir.mkdir()
        good = ",".join(f"{v:.16e}" for v in [31.0, 2.0, 1.0, 0.05])
        (outdir / "posterior.csv").write_text(
            "theta_1,psi_1,sigma2_delta,eta\n" + good + "\n" + ",".join(map(repr, row)) + "\n"
        )
        assert main(["predict", "--config", str(path)]) == 2
        assert "parameter row 2" in capsys.readouterr().err
        assert not (outdir / "prediction.csv").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"theta": [31.0], "beta": [], "psi": [-1.0], "sigma2_delta": 1.0, "eta": 0.05},
            {"theta": [99.0], "beta": [], "psi": [2.0], "sigma2_delta": 1.0, "eta": 0.05},
            {"theta": [31.0], "beta": [], "psi": [2.0, 1.0], "sigma2_delta": 1.0, "eta": 0.05},
            {"theta": [31.0], "beta": [], "psi": [2.0], "sigma2_delta": 1.0},
        ],
    )
    def test_bad_mle_file(self, sine_files, capsys, payload):
        tmp_path, data_path, pred_path, *_ = sine_files
        path, _ = _config(tmp_path, data_path, {"predict": str(pred_path)})
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "mle.json").write_text(json.dumps(payload))
        assert main(["predict", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1\n0.5\nnan\n", "must be finite"),
            ("x1\n0.5\ninf\n", "must be finite"),
            ("x1,x2\n0.5,0.5\n", "2 input columns"),
        ],
    )
    def test_bad_prediction_inputs(self, sine_files, capsys, text, message):
        tmp_path, data_path, pred_path, *_ = sine_files
        pred_path.write_text(text)
        path, _ = _config(tmp_path, data_path, {"predict": str(pred_path)})
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "posterior.csv").write_text(
            "theta_1,psi_1,sigma2_delta,eta\n"
            + ",".join(f"{v:.16e}" for v in [31.0, 2.0, 1.0, 0.05]) + "\n"
        )
        assert main(["predict", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err


class TestEmulatorDesignErrors:
    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0.1,1,0.3"] * 5, "design rows must be distinct"),
            (["0.1,1,0.3", "0.5,2,0.1", "0.9,3,0.7"], "need more design runs"),
            (["0.1,1,nan", "0.5,2,0.1", "0.9,3,0.7", "0.3,4,0.2", "0.7,1.5,0.4"],
             "design and outputs must be finite"),
            (["inf,1,0.3", "0.5,2,0.1", "0.9,3,0.7", "0.3,4,0.2", "0.7,1.5,0.4"],
             "design and outputs must be finite"),
        ],
    )
    def test_bad_design_is_a_data_error(self, sine_files, capsys, rows, message):
        tmp_path, data_path, *_ = sine_files
        runs_path = tmp_path / "runs.csv"
        runs_path.write_text("\n".join(["x1,t1,y"] + rows) + "\n")
        model = {"emulator_design": str(runs_path), "p_x": 1, "theta_bounds": [[0.0, 5.0]]}
        path, _ = _config(tmp_path, data_path, {"model": model})
        assert main(["calibrate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err


class TestExperimentCommand:
    def test_branin_runs(self, tmp_path):
        assert main(["experiment", "branin", "--seed", "0", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "branin_summary.csv").exists()
        assert (tmp_path / "branin_surface.csv").exists()
