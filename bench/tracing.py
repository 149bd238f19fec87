"""Span tracing of gpcalib from outside the library.

``Tracer.installed()`` replaces each traced function at every gpcalib module
binding it has (``corr_matrix`` is bound in kernels, discrepancy,
calibration, emulator and experiments, for instance), and each traced method
on its class, by a wrapper that records a span: id, parent id, layer name,
start, end and a small annotation.  Leaving the context puts the originals
back, so untraced jobs run the library exactly as users get it.

Spans stay in memory until ``write`` and ``layer_metrics`` turn them into
per-layer numbers.  A layer's self time is its span's duration minus the part
of that interval covered by its child spans; the union is taken because
``thread_map`` children overlap in time.  Spans in worker threads each count
in full, so a layer's self time summed over threads can exceed a job's wall
time.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from gpcalib import calibration, cli, design, discrepancy, emulator, inference, kernels, linalg, workers


def _corr_entries(args, kwargs, result, exc):
    X1, X2 = np.shape(np.atleast_2d(args[0])), np.shape(np.atleast_2d(args[1]))
    return X1[0] * X2[0] * X1[1]


def _cholesky(args, kwargs, result, exc):
    n = np.shape(args[0])[0]
    if exc is not None:
        return (n, getattr(exc, "jitter", 0.0), True)
    return (n, result[1], False)


def _mode(args, kwargs, result, exc):
    return args[0].spec.mode


def _converged(args, kwargs, result, exc):
    if result is None:
        return 0.0
    return float(np.mean([s["converged"] for s in result.per_start]))


def _points(args, kwargs, result, exc):
    return np.shape(np.atleast_2d(args[1]))[0]


_IO = "cli.io"

#: (layer name, module, attribute, annotation) for plain functions.
FUNCTIONS = (
    ("kernels.corr_matrix", kernels, "corr_matrix", _corr_entries),
    ("linalg.cholesky", linalg, "cholesky_with_jitter", _cholesky),
    ("discrepancy.scaled_cov", discrepancy, "scaled_cov", None),
    ("discrepancy.scaled_cross_cov", discrepancy, "scaled_cross_cov", None),
    ("discrepancy.ogasp_kernel", discrepancy, "ogasp_kernel", None),
    ("calibration.log_prior", calibration, "log_prior", None),
    ("calibration.predict", calibration, "predict", None),
    ("inference.mcmc_run", inference, "mcmc_run", None),
    ("inference.mle_fit", inference, "mle_fit", _converged),
    ("inference.predict_posterior", inference, "predict_posterior", None),
    ("emulator.emulator_fit", emulator, "emulator_fit", None),
    ("emulator.emulator_predict", emulator, "emulator_predict", _points),
    ("design.maximin_lhd", design, "maximin_lhd", None),
    ("cli.calibrate", cli, "cmd_calibrate", None),
    ("cli.predict", cli, "cmd_predict", None),
    (_IO, cli, "load_config", None),
    (_IO, cli, "_read_csv", None),
    (_IO, cli, "read_field_csv", None),
    (_IO, cli, "read_inputs_csv", None),
    (_IO, cli, "read_truth_csv", None),
    (_IO, cli, "_write_table", None),
    (_IO, cli, "_update_summary", None),
)

#: (layer name, class, method, annotation) for methods patched on the class.
METHODS = (
    ("calibration.corr_chol", calibration.LikelihoodCore, "corr_chol", _mode),
    ("calibration.loglik", calibration.LikelihoodCore, "loglik_from_chol", None),
    ("calibration.from_vector", calibration.ParamTransform, "from_vector", None),
    ("calibration.model_eval", calibration.ComputerModel, "evaluate", None),
)

_THREAD_MAP = "workers.thread_map"
_TASK = "workers.thread_map.task"


class Tracer:
    """Collects spans from every thread while installed."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, annotation)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, annotate=None, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            note = annotate(args, kwargs, result, exc) if annotate else None
            self.spans.append((sid, parent, name, t0, t1, note))

    def _wrap(self, name, fn, annotate):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, annotate)

        return wrapper

    def _wrap_thread_map(self, original):
        def thread_map(fn, items):
            stack = self._stack()
            owner = stack[-1]

            def task(item):
                return self._call(_TASK, fn, (item,), {}, parent=owner)

            return original(task, items)

        return self._wrap(_THREAD_MAP, thread_map, None)

    @contextmanager
    def installed(self):
        """Trace every listed gpcalib function and method inside the block."""
        saved = []
        replacements = {}
        for name, module, attr, annotate in FUNCTIONS:
            original = getattr(module, attr)
            replacements[id(original)] = (original, self._wrap(name, original, annotate))
        original = workers.thread_map
        replacements[id(original)] = (original, self._wrap_thread_map(original))
        for modname, module in list(sys.modules.items()):
            if not (modname == "gpcalib" or modname.startswith("gpcalib.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for name, cls, attr, annotate in METHODS:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, annotate))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path):
        """Write the spans as CSV: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, t0, t1, _ in self.spans:
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


_CONTEXTS = ("inference.mcmc_run", "inference.mle_fit", "inference.predict_posterior")


def layer_metrics(spans, n_jobs: int, workers_used: int) -> dict:
    """Per-job layer totals from a list of spans of ``n_jobs`` traced jobs."""
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children[span[1]].append((span[3], span[4]))

    context = {0: None}

    def context_of(sid):
        """Name of the nearest context span at or above span ``sid``."""
        path = []
        while sid not in context:
            _, parent, name, *_ = by_id[sid]
            if name in _CONTEXTS:
                context[sid] = name
                break
            path.append(sid)
            sid = parent
        for s in path:
            context[s] = context[sid]
        return context[sid]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    per_mode = defaultdict(lambda: [0, 0.0])
    inside = defaultdict(int)
    m = dict(entries=0, flops=0.0, jitter_events=0, max_jitter=0.0, failures=0,
             points=0, converged=[])
    for sid, parent, name, t0, t1, note in spans:
        dur = t1 - t0
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - _union_length(children.get(sid, ()), t0, t1)
        ctx = context_of(parent)
        if ctx is not None:
            inside[(ctx, name)] += 1
        if name == "kernels.corr_matrix":
            m["entries"] += note
        elif name == "linalg.cholesky":
            n, jitter, failed = note
            m["flops"] += n**3 / 3.0
            m["jitter_events"] += jitter > 0
            m["max_jitter"] = max(m["max_jitter"], jitter)
            m["failures"] += failed
        elif name == "calibration.corr_chol":
            per_mode[note][0] += 1
            per_mode[note][1] += dur
        elif name == "inference.mle_fit":
            m["converged"].append(note)
        elif name == "emulator.emulator_predict":
            m["points"] += note

    J = float(max(n_jobs, 1))
    out = {}
    for layer in ("kernels.corr_matrix", "linalg.cholesky", "discrepancy.scaled_cov",
                  "discrepancy.scaled_cross_cov", "discrepancy.ogasp_kernel",
                  "calibration.corr_chol", "calibration.loglik", "calibration.from_vector",
                  "calibration.log_prior", "calibration.model_eval", "calibration.predict",
                  "emulator.emulator_predict"):
        out[f"{layer}.calls"] = calls[layer] / J
        out[f"{layer}.self_s"] = self_s[layer] / J
    out["kernels.corr_matrix.entries"] = m["entries"] / J
    out["linalg.cholesky.flops"] = m["flops"] / J
    out["linalg.cholesky.jitter_events"] = m["jitter_events"] / J
    out["linalg.cholesky.max_jitter"] = m["max_jitter"]
    out["linalg.cholesky.failures"] = m["failures"] / J
    for mode in ("gasp", "sgasp", "ogasp"):
        count, secs = per_mode[mode]
        out[f"calibration.corr_chol.mean_ms.{mode}"] = 1e3 * secs / count if count else 0.0
    for layer in ("inference.mcmc_run", "inference.mle_fit", "inference.predict_posterior",
                  "emulator.emulator_fit", "design.maximin_lhd", "cli.calibrate",
                  "cli.predict", _IO):
        out[f"{layer}.self_s"] = self_s[layer] / J
    priors = inside[("inference.mcmc_run", "calibration.log_prior")]
    chols = inside[("inference.mcmc_run", "calibration.corr_chol")]
    out["inference.mcmc.chol_reuse_ratio"] = 1.0 - chols / priors if priors else 0.0
    # every objective evaluation transforms its vector once; so does the
    # final parameter read-out of each fit
    fits = calls["inference.mle_fit"]
    out["inference.mle_fit.objective_evals"] = (
        inside[("inference.mle_fit", "calibration.from_vector")] - fits
    ) / J
    out["inference.mle_fit.converged_frac"] = float(np.mean(m["converged"])) if fits else 0.0
    out["inference.predict_posterior.samples"] = (
        inside[("inference.predict_posterior", "calibration.predict")] / J
    )
    out["emulator.emulator_predict.points"] = m["points"] / J
    wall, busy = total_s[_THREAD_MAP], total_s[_TASK]
    out["workers.thread_map.calls"] = calls[_THREAD_MAP] / J
    out["workers.thread_map.wall_s"] = wall / J
    out["workers.thread_map.busy_s"] = busy / J
    out["workers.thread_map.efficiency"] = busy / (wall * workers_used) if wall else 0.0
    out["trace.spans"] = len(spans) / J
    return out

