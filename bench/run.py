"""gpcalib benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload sine_mcmc --seed 0 --seconds 40 --trace 0

Run from the repository root.  Jobs of the workload run back to back until
``--seconds`` have passed; one smoke-size warm-up job runs first and is
checked but not timed, and at least one timed job always follows.  Job ``j``
draws its inputs from ``(seed, j)``; gpcalib sees only those inputs.  Every
job's outputs are checked (see ``workloads.py``), and the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median import time plus the median time to prepare one job's inputs),
``wall_s`` (one job), ``fit_s`` (one ``mle_fit``/``mcmc_run`` call, or one
CLI ``calibrate``), ``predict_s`` (one ``predict``/``predict_posterior`` call,
or one CLI ``predict``), and ``peak_rss_mb``.  The job timings are upper
quartiles over the run's timed jobs; ``fit_s`` and ``predict_s`` take one
per call of a job (the k-th call of every job is the same operation) and
average them.  On a small shared host, bursts of spare capacity make some
jobs much faster than the rest; the fast tail comes and goes with the
neighbours' load, while the upper quartile follows the speed the host
sustains and so repeats better across runs.

The host's speed also drifts by tens of percent over minutes, for every
program on it alike.  So before each timed job the run times a fixed probe
(``_probe``: small numpy linear algebra and a Python loop, no gpcalib), and
the four timings are scaled by ``REFERENCE_PROBE_S`` over the run's median
probe time: they are seconds at the host speed at which the probe takes
``REFERENCE_PROBE_S``.  A change to gpcalib moves the timings and not the
probe.  The unscaled job times and the probe median go to standard error.

The warm-up counts towards ``--seconds``, and a job is not started when the
jobs so far say it would end past the deadline, so one run takes about
``--seconds`` plus the import measurements.

With ``--trace 1`` each job index runs twice on the same inputs, untraced and
then traced, and the metrics are per-layer numbers per job (see
``tracing.py``) plus the tracing overhead: traced minus untraced ``wall_s``.
Spans are written to ``.bench_work/<workload>/spans.csv``.

The program's defaults are measured as users get them: ``SGASP_THREADS`` and
``OPENBLAS_NUM_THREADS`` are left as found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
#: About the median probe time on a 2-vCPU x86-64 host when the benchmark
#: was defined; it only sets the speed the scaled timings refer to.
REFERENCE_PROBE_S = 0.02


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median(values):
    return statistics.median(values) if values else 0.0


def _upper_quartile(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _per_call(done, attr):
    """Mean over a job's calls of each call's upper quartile over the jobs.

    The k-th call of every job is the same operation on new inputs, so each
    call gets its own quartile before the calls are averaged.
    """
    calls = zip(*[getattr(r["job"], attr) for r in done])
    return _mean([_upper_quartile(list(times)) for times in calls])


_IMPORT = "import time; t = time.perf_counter(); import gpcalib; print(time.perf_counter() - t)"


def _load_library(repeats=0):
    """Import gpcalib from this checkout's sources.

    Returns the median import time over this process and ``repeats`` fresh
    interpreters, so one slow import does not set ``setup_s``.
    """
    if not os.path.isfile(os.path.join(SRC, "gpcalib", "__init__.py")):
        raise SystemExit(f"error: gpcalib sources not found under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and gpcalib)

    times = [time.perf_counter() - t0]
    import gpcalib

    if os.path.dirname(os.path.dirname(os.path.abspath(gpcalib.__file__))) != SRC:
        raise SystemExit(f"error: gpcalib imported from {gpcalib.__file__}, not {SRC}")
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def _one_job(wl, seed, j, size, jobdir, tracer=None):
    """Prepare, run and check one job; returns a record of what happened."""
    rec = {"failures": []}
    scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with scope:
            t0 = time.perf_counter()
            inp = wl.prepare(seed, j, size, jobdir)
            t1 = time.perf_counter()
            job = wl.run(inp)
            t2 = time.perf_counter()
        rec.update(prepare_s=t1 - t0, wall_s=t2 - t1, job=job)
        rec["failures"] = wl.check(inp, job)
    except Exception:  # a job that raises is a failed job; keep measuring
        rec["failures"].append(traceback.format_exc())
    for msg in rec["failures"]:
        print(f"job {j}: check failed: {msg}", file=sys.stderr)
    if "job" in rec:
        job = rec["job"]
        print(f"job {j}{' traced' if tracer else ''}: prepare_s={rec['prepare_s']:.4f} "
              f"wall_s={rec['wall_s']:.4f} fit_s={job.fit_s} predict_s={job.predict_s}",
              file=sys.stderr)
    return rec


def _probe():
    """Time a fixed piece of work like the program's: 30x30 numpy linear
    algebra between short Python loops, without gpcalib."""
    import numpy as np

    X = np.linspace(0.0, 1.0, 30)[:, None]
    t0 = time.perf_counter()
    total = 0.0
    for i in range(200):
        K = np.exp(-np.abs(X - X.T) * (1.0 + i % 3)) + 1e-6 * np.eye(30)
        total += float(np.linalg.solve(np.linalg.cholesky(K), X[:, 0]).sum())
        for k in range(400):
            total += k * 1e-12
    return time.perf_counter() - t0


def end_to_end(records, import_s, probe_s):
    done = [r for r in records if "job" in r]
    scale = REFERENCE_PROBE_S / probe_s
    return {
        "setup_s": _metric(scale * (import_s + _median([r["prepare_s"] for r in done])), "s"),
        "wall_s": _metric(scale * _upper_quartile([r["wall_s"] for r in done]), "s"),
        "fit_s": _metric(scale * _per_call(done, "fit_s"), "s"),
        "predict_s": _metric(scale * _per_call(done, "predict_s"), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def _ess(x):
    """Batch-means effective sample size of one chain coordinate."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    n = x.size
    b = max(int(np.sqrt(n)), 1)
    a = n // b
    if a < 2 or np.var(x) == 0:
        return float(n)
    means = x[: a * b].reshape(a, b).mean(axis=1)
    return float(n * np.var(x, ddof=1) / (b * np.var(means, ddof=1)))


def per_layer(untraced, traced, spans, workers_used):
    import tracing

    plain = [r["job"] for r in untraced if "job" in r]
    jobs = [r["job"] for r in traced if "job" in r]
    layers = tracing.layer_metrics(spans, len(jobs), workers_used)
    units = {"calls": "count", "entries": "count", "flops": "flop", "jitter_events": "count",
             "max_jitter": "ratio", "failures": "count", "objective_evals": "count",
             "converged_frac": "ratio", "samples": "count", "points": "count",
             "efficiency": "ratio", "chol_reuse_ratio": "ratio", "spans": "count"}
    out = {}
    for name, value in layers.items():
        leaf = name.split(".")[-1]
        unit = "ms" if ".mean_ms." in name else units.get(leaf, "s")
        out[name] = _metric(value, unit)

    for mode in ("gasp", "sgasp", "ogasp"):
        runs = [j.iters[mode] for j in plain if mode in j.iters]
        iters, secs = sum(r[0] for r in runs), sum(r[1] for r in runs)
        out[f"inference.mcmc_run.iters_per_s.{mode}"] = _metric(
            iters / secs if secs else 0.0, "1/s")
    samples = [s for j in plain for s in j.predict_samples]
    n, secs = sum(s[0] for s in samples), sum(s[1] for s in samples)
    out["inference.predict_posterior.ms_per_sample"] = _metric(1e3 * secs / n if n else 0.0, "ms")
    mixing = [m for j in jobs for m in j.mixing]
    for block in ("theta", "corr"):
        out[f"inference.mcmc.accept_rate.{block}"] = _metric(
            _mean([rates.get(block, 0.0) for rates, _ in mixing]), "ratio")
    out["inference.mcmc.ess.theta"] = _metric(
        _mean([_ess(theta) for _, theta in mixing]), "count")
    out["cli.bytes_written"] = _metric(_mean([j.bytes_written for j in jobs]), "bytes")
    out["quality.holdout_mse_model"] = _metric(_median([_mean(j.mse_model) for j in plain]), "y2")
    out["quality.holdout_mse_full"] = _metric(_median([_mean(j.mse_full) for j in plain]), "y2")
    wall_plain = _median([r["wall_s"] for r in untraced if "job" in r])
    wall_traced = _median([r["wall_s"] for r in traced if "job" in r])
    out["trace.overhead_s"] = _metric(wall_traced - wall_plain, "s")
    out["trace.overhead_frac"] = _metric(
        (wall_traced - wall_plain) / wall_plain if wall_plain else 0.0, "ratio")
    return dict(sorted(out.items()))


def run(workload, seed, seconds, trace, size="full", import_repeats=2):
    """Run one workload for ``seconds``; returns the result object."""
    import_s = _load_library(import_repeats)
    from gpcalib.workers import worker_count

    import tracing
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choices: {sorted(WORKLOADS)}")
    wl = WORKLOADS[workload]
    params = wl.sizes[size]
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    # The first calls pay one-off costs (lazy imports, first-use dispatch);
    # a smoke-size job pays them, is checked, and is not timed.
    warmup = [_one_job(wl, seed, 0, wl.sizes["smoke"], os.path.join(workdir, "warmup"))]
    untraced, traced, durations, probes = [], [], [], []
    j = 0
    while True:
        t0 = time.perf_counter()
        probes.append(_probe())
        untraced.append(_one_job(wl, seed, j, params, os.path.join(workdir, f"job{j}")))
        if tracer is not None:
            traced.append(
                _one_job(wl, seed, j, params, os.path.join(workdir, f"job{j}t"), tracer))
        durations.append(time.perf_counter() - t0)
        j += 1
        if time.perf_counter() - start + _median(durations) > seconds:
            break
    records = warmup + untraced + traced
    failed = sum(1 for r in records if r["failures"])
    if not any("job" in r for r in untraced):
        raise SystemExit("error: no timed job completed")
    if tracer is not None:
        tracer.write(os.path.join(workdir, "spans.csv"))
        metrics = per_layer(untraced, traced, tracer.spans, worker_count())
    else:
        print(f"probe median {_median(probes):.5f} s over {len(probes)} probes", file=sys.stderr)
        metrics = end_to_end(untraced, import_s, _median(probes))
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
