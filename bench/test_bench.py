"""Smoke-size tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os

import numpy as np
import pytest

import run

run._load_library()

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def _scratch_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, section):
    result = run.run(workload, seed=0, seconds=0, trace=trace, size="smoke", import_repeats=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if trace == 0:
            assert m["value"] > 0, name


def test_perturbed_reference_fails_the_job(monkeypatch):
    true_loglik = oracle.loglik
    monkeypatch.setattr(oracle, "loglik", lambda *a: true_loglik(*a) + 1e-3)
    result = run.run("sine_mcmc", seed=0, seconds=0, trace=0, size="smoke", import_repeats=0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1.0


def test_seed_changes_data_not_metric_names(tmp_path):
    wl = WORKLOADS["sine_mcmc"]
    size = wl.sizes["smoke"]
    a = wl.prepare(0, 0, size, str(tmp_path / "a"))
    b = wl.prepare(1, 0, size, str(tmp_path / "b"))
    again = wl.prepare(0, 0, size, str(tmp_path / "c"))
    assert not np.array_equal(a["data"].y, b["data"].y)
    assert np.array_equal(a["data"].y, again["data"].y)
    names = [
        set(run.run("sine_mcmc", seed=s, seconds=0, trace=0, size="smoke",
                    import_repeats=0)["metrics"])
        for s in (0, 1)
    ]
    assert names[0] == names[1]
