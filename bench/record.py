"""Write ``bench/baseline.json``: what a later change is compared against.

    python3 bench/record.py

Records four things next to each other:

* ``environment``: interpreter, numpy, scipy and BLAS versions, core count,
  gpcalib's worker count and the two thread variables as found;
* ``fingerprint``: per workload and seed, the answers of job 0 (MLE optima,
  posterior medians, held-out errors), so a change that moves answers shows;
* ``roadmap_baselines``: the per-call numbers ROADMAP.md quotes, measured
  again here from a traced run, next to the quoted values;
* ``layer_map``: which end-to-end metric each layer should move, and where.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import run

FINGERPRINT_SEEDS = (0, 1, 2)
TRACE_SECONDS = 25

#: layer -> [(end-to-end metric, workload)] the layer's numbers should move.
LAYER_MAP = {
    "kernels": [("fit_s", "nonlinear_ogasp"), ("fit_s", "modular_cli")],
    # jitter and Cholesky failures move correctness and answers, not speed
    "linalg": [("failed", "all"), ("quality.holdout_mse_full", "all")],
    "discrepancy": [("fit_s", "sine_mcmc"), ("fit_s", "modular_cli"),
                    ("fit_s", "nonlinear_ogasp"), ("predict_s", "nonlinear_ogasp")],
    "calibration": [("fit_s", "sine_mcmc")],
    "inference": [("fit_s", "sine_mcmc"), ("fit_s", "nonlinear_ogasp"),
                  ("fit_s", "modular_cli"), ("predict_s", "modular_cli")],
    "workers": [("fit_s", "modular_cli"), ("predict_s", "nonlinear_ogasp")],
    "emulator": [("wall_s", "modular_cli"), ("fit_s", "modular_cli")],
    "design": [("setup_s", "modular_cli")],
    "cli": [("wall_s", "modular_cli")],
}

#: ROADMAP "Recent" numbers: (quoted value, workload, per-layer metric).
ROADMAP = {
    "corr_chol_ms_gasp_n30": (0.17, "sine_mcmc", "calibration.corr_chol.mean_ms.gasp"),
    "corr_chol_ms_sgasp_n30": (0.47, "sine_mcmc", "calibration.corr_chol.mean_ms.sgasp"),
    "corr_chol_ms_ogasp_n15": (3.0, "nonlinear_ogasp", "calibration.corr_chol.mean_ms.ogasp"),
    "sgasp_mcmc_iters_per_s": (800.0, "sine_mcmc", "inference.mcmc_run.iters_per_s.sgasp"),
    "predict_posterior_ms_per_sample": (
        34.0, "sine_mcmc", "inference.predict_posterior.ms_per_sample"),
}


def environment():
    import numpy as np
    import scipy
    from gpcalib.workers import worker_count

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "worker_count": worker_count(),
        "SGASP_THREADS": os.environ.get("SGASP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def fingerprint():
    from workloads import WORKLOADS

    out = {}
    for name, wl in WORKLOADS.items():
        for seed in FINGERPRINT_SEEDS:
            inp = wl.prepare(seed, 0, wl.sizes["full"], os.path.join(run.WORK, "record", name))
            out.setdefault(name, {})[str(seed)] = wl.run(inp).fingerprint
    return out


def roadmap_baselines():
    traced = {w: run.run(w, 0, TRACE_SECONDS, 1)["metrics"]
              for w in sorted({v[1] for v in ROADMAP.values()})}
    return {
        key: {"roadmap": quoted, "measured": traced[workload][metric]["value"],
              "unit": traced[workload][metric]["unit"], "workload": workload,
              "metric": metric}
        for key, (quoted, workload, metric) in ROADMAP.items()
    }


def main():
    run._load_library()
    record = {
        "environment": environment(),
        "fingerprint": fingerprint(),
        "roadmap_baselines": roadmap_baselines(),
        "layer_map": {k: [{"metric": m, "workload": w} for m, w in v]
                      for k, v in LAYER_MAP.items()},
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
