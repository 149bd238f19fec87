"""Fast experiment-runner checks; the heavy studies run in the acceptance suite."""

import csv
import os

import numpy as np
import pytest

from gpcalib import experiments
from gpcalib.calibration import CalibParams
from gpcalib.discrepancy import GASP, SGASP
from gpcalib.experiments import run_branin, run_fig1, run_nonlinear, run_park, run_sine
from gpcalib.inference import MleResult


class TestFig1:
    def test_outputs_and_oracle_agreement(self, tmp_path):
        res = run_fig1(seed=1, outdir=str(tmp_path), n=100, reps=40)
        assert set(res) == {"gamma=1", "gamma=0.1", "gamma=0.01", "independent"}
        for case, vals in res.items():
            assert abs(vals["mean_diff"] - vals["oracle"]) <= 3 * vals["mc_se"], case
        assert np.isclose(res["independent"]["oracle"], 50.0, rtol=1e-9)
        samples = (tmp_path / "fig1_samples.csv").read_text().splitlines()
        assert samples[0] == "case,rep,loglik_true,loglik_shifted"
        assert len(samples) - 1 == 4 * 40

    def test_deterministic_files(self, tmp_path):
        run_fig1(seed=2, outdir=str(tmp_path / "a"), n=60, reps=10)
        run_fig1(seed=2, outdir=str(tmp_path / "b"), n=60, reps=10)
        a = (tmp_path / "a" / "fig1_samples.csv").read_bytes()
        b = (tmp_path / "b" / "fig1_samples.csv").read_bytes()
        assert a == b


def _stationary(thetas, values):
    d = np.gradient(values, thetas)
    return thetas[np.where(np.diff(np.sign(d)) != 0)[0]]


def _local_maxima(thetas, values):
    idx = [
        i
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    ]
    return thetas[idx]


class TestNonlinear:
    def test_curve_structure(self, tmp_path):
        res = run_nonlinear(seed=0, outdir=str(tmp_path))
        thetas = res["thetas"]
        stat = _stationary(thetas, res["l2_loss"])
        targets = np.array([0.26, 1.06, 1.88, 2.62])
        assert len(stat) == 4
        assert np.all(np.abs(stat - targets) <= 0.15)
        # orthogonal mode peaks at every stationary point of the loss
        peaks = _local_maxima(thetas, res["ogasp"])
        for t in targets:
            assert np.min(np.abs(peaks - t)) <= 0.2
        # plain and scaled modes single out the global minimizer
        for mode in ("gasp", "sgasp"):
            tmax = thetas[int(np.argmax(res[mode]))]
            assert abs(tmax - 1.88) <= 0.2
        assert os.path.exists(tmp_path / "nonlinear_curves.csv")


class TestBranin:
    def test_predictive_accuracy(self, tmp_path):
        res = run_branin(seed=0, outdir=str(tmp_path))
        assert res["mse_plain_std"] <= 1.0
        assert res["mse_scaled_std"] <= 1.0
        assert res["mse_scaled_std"] <= 1.3 * res["mse_plain_std"]
        surface = (tmp_path / "branin_surface.csv").read_text().splitlines()
        assert len(surface) - 1 == 1600


_HEADERS = {
    "fig1_samples.csv": "case,rep,loglik_true,loglik_shifted",
    "fig1_summary.csv": "case,mean_diff,mc_se,half_quad_oracle",
    "park_table.csv": (
        "method,sigma2_mode,mse_fm,mse_fm_delta,theta_hat,sigma2_delta,"
        "gamma_1,gamma_2,gamma_3,gamma_4,sigma2_noise"
    ),
    "sine_table.csv": "n,method,theta_hat,mse_fm,mse_fm_delta,mse_surrogate",
    "nonlinear_curves.csv": "theta,l2_loss,loglik_gasp,loglik_sgasp,loglik_ogasp",
    "branin_surface.csv": "x1,x2,truth,plain_mean,plain_var,scaled_mean,scaled_var",
    "branin_summary.csv": "mse_plain_std,mse_scaled_std,mse_plain_raw,mse_scaled_raw,output_mean,output_sd",
}

_PARK_PSI = [2.0, 1.0, 0.5, 0.25]


def _stub_mle_fit(data, model, spec, n_starts, seed, sigma2_fixed):
    sigma2 = 3.0 if sigma2_fixed is None else sigma2_fixed
    return MleResult(CalibParams([2.5], [], _PARK_PSI, sigma2, 1e-4), -10.0, [])


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    """Every study at a small size into one directory, and what each returned.

    The park fits are stubbed, so its table is assembled without running them.
    """
    out = str(tmp_path_factory.mktemp("studies"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "mle_fit", _stub_mle_fit)
        park = run_park(seed=0, outdir=out, n=12, n_holdout=50)
    return out, {
        "fig1": run_fig1(seed=1, outdir=out, n=60, reps=10),
        "park": park,
        "sine": run_sine(
            seed=0, outdir=out, sizes=(10, 20), mcmc_samples=600, burn_in=200, thin=10, n_holdout=200
        ),
        "nonlinear": run_nonlinear(seed=0, outdir=out, grid_size=31),
        "branin": run_branin(seed=0, outdir=out, grid_side=10),
    }


def _rows(out, name):
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _as_written(record):
    return {k: v if isinstance(v, str) else experiments._fmt(v) for k, v in record.items()}


class TestStudyTables:
    @pytest.mark.parametrize("name", sorted(_HEADERS))
    def test_header(self, studies, name):
        out, _ = studies
        with open(os.path.join(out, name)) as fh:
            assert fh.readline().rstrip("\r\n") == _HEADERS[name]

    def test_returned_entries_carry_the_keys_the_acceptance_checks_read(self, studies):
        _, res = studies
        assert set(res["fig1"]) == {"gamma=1", "gamma=0.1", "gamma=0.01", "independent"}
        for entry in res["fig1"].values():
            assert {"mean_diff", "mc_se", "oracle"} <= set(entry)
        assert set(res["park"]) == {(m, s2) for s2 in (None, 1.0, 10.0, 100.0, 1000.0) for m in (GASP, SGASP)}
        for entry in res["park"].values():
            assert {"mse_fm", "mse_fm_delta", "theta_hat"} <= set(entry)
        assert set(res["sine"]) == {(n, m) for n in (10, 20) for m in ("gasp+l2", "ls+gasp", GASP, SGASP)}
        for (_, method), entry in res["sine"].items():
            assert isinstance(entry["theta_hat"], float) and isinstance(entry["mse_fm"], float)
            assert isinstance(entry["mse_fm_delta" if method != "gasp+l2" else "mse_surrogate"], float)
        assert {"thetas", "l2_loss", GASP, SGASP, "ogasp"} <= set(res["nonlinear"])
        assert {"mse_plain_std", "mse_scaled_std"} <= set(res["branin"])

    @pytest.mark.parametrize(
        "study, name", [("park", "park_table.csv"), ("sine", "sine_table.csv"), ("branin", "branin_summary.csv")]
    )
    def test_each_row_is_a_returned_entry(self, studies, study, name):
        out, res = studies
        entries = [res[study]] if study == "branin" else list(res[study].values())
        assert _rows(out, name) == [_as_written(entry) for entry in entries]

    def test_park_rows_report_each_fit(self, studies):
        out, _ = studies
        rows = _rows(out, "park_table.csv")
        assert [r["method"] for r in rows] == [GASP, SGASP] * 5
        labels = ["estimated"] + [experiments._fmt(s2) for s2 in (1.0, 10.0, 100.0, 1000.0)]
        assert [r["sigma2_mode"] for r in rows] == [label for label in labels for _ in range(2)]
        for r in rows:
            assert float(r["theta_hat"]) == 2.5
            assert [float(r[f"gamma_{i}"]) for i in range(1, 5)] == [1.0 / psi for psi in _PARK_PSI]
            assert float(r["sigma2_noise"]) == float(r["sigma2_delta"]) * 1e-4

    def test_sine_leaves_unreported_columns_empty(self, studies):
        out, _ = studies
        for r in _rows(out, "sine_table.csv"):
            surrogate = r["method"] == "gasp+l2"
            assert (r["mse_fm_delta"] == "") == surrogate
            assert (r["mse_surrogate"] == "") != surrogate
