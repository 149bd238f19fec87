"""The public surface: ``gpcalib.__all__`` changes only on purpose."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import gpcalib

PUBLIC_NAMES = {
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
    "posterior_summary",
    "pow_exp",
    "predict",
    "predict_posterior",
    "scaled_cov",
}


def test_all_is_pinned():
    assert len(gpcalib.__all__) == len(PUBLIC_NAMES) == 42
    assert set(gpcalib.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special"])
def test_import_leaves_module_unloaded(module):
    # inference._multistart imports scipy.optimize when it runs; the library
    # uses no scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpcalib.__file__)))
    code = f"import sys, gpcalib; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_public_name_resolves():
    for name in gpcalib.__all__:
        assert getattr(gpcalib, name) is not None, name


@pytest.fixture
def tracing(monkeypatch):
    """bench/tracing.py, imported from the benchmark's directory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)


def test_names_the_benchmark_traces_resolve(tracing):
    # bench/tracing.py wraps these by module and attribute name, so deleting
    # one from the package breaks the traced benchmark run
    for layer, module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{layer}: {module.__name__}.{attr}"
    for layer, cls, attr, _ in tracing.METHODS:
        assert callable(cls.__dict__.get(attr)), f"{layer}: {cls.__name__}.{attr}"
    assert callable(getattr(tracing.workers, "thread_map", None))


_MODULES = sorted(
    path
    for path in glob.glob(os.path.join(os.path.dirname(gpcalib.__file__), "*.py"))
    if os.path.basename(path) != "__init__.py"
)


@pytest.mark.parametrize("path", _MODULES, ids=os.path.basename)
def test_module_uses_every_name_it_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SOURCES = sorted(glob.glob(os.path.join(_ROOT, "src", "gpcalib", "*.py")))
_READERS = _SOURCES + sorted(glob.glob(os.path.join(_ROOT, "bench", "*.py")))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _is_record(node) -> bool:
    """Whether a class definition is a ``@dataclass`` or a ``NamedTuple``."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
    names = {getattr(m, "id", getattr(m, "attr", None)) for m in marks}
    return bool(names & {"dataclass", "NamedTuple"})


def test_every_defined_name_is_read(tracing):
    # a module-level name of the package must be read somewhere in the package
    # or the benchmark, or be public; a dataclass or NamedTuple field must be
    # read as an attribute there, so nothing is kept that nothing reads.  The
    # benchmark's tracer reads the names it wraps by their strings.
    names = set(gpcalib.__all__) | {entry[2] for entry in tracing.FUNCTIONS + tracing.METHODS}
    attributes = set()
    for path in _READERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    unread = []
    for path in _SOURCES:
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                defined = []
            unread += [f"{module}.{n}" for n in defined if not n.startswith("__") and n not in names | attributes]
            if isinstance(node, ast.ClassDef) and _is_record(node):
                fields = (s.target.id for s in node.body if isinstance(s, ast.AnnAssign))
                unread += [f"{module}.{node.name}.{f}" for f in fields if f not in attributes]
    assert _SOURCES
    assert unread == []
