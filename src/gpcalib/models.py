"""Built-in computer models and truth functions used by the experiments."""

from __future__ import annotations

import numpy as np

from .calibration import ComputerModel


def park_truth(X) -> np.ndarray:
    """Four-dimensional benchmark reality on the unit hypercube."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return (
        2.0 / 3.0 * np.exp(X[:, 0] + X[:, 1]) - X[:, 3] * np.sin(X[:, 2]) + X[:, 2]
    )


def branin_truth(X) -> np.ndarray:
    """Branin function on [-5, 10] x [0, 15]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    x1, x2 = X[:, 0], X[:, 1]
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    s = 10.0
    t = 1.0 / (8.0 * np.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + s * (1.0 - t) * np.cos(x1) + s


def sine_truth(X) -> np.ndarray:
    """Two-frequency sine reality on [0, 1]."""
    x = np.atleast_2d(np.asarray(X, dtype=float))[:, 0]
    return np.sin(10.0 * np.pi * x) + np.sin(np.pi * x)


def oscillator_truth(X) -> np.ndarray:
    """Reality x cos(3x/2) + x of the nonlinear mode-study example on [0, 5]."""
    x = np.atleast_2d(np.asarray(X, dtype=float))[:, 0]
    return x * np.cos(1.5 * x) + x


def _constant(theta_bounds):
    return ComputerModel(
        evaluator=lambda X, th: np.full(np.atleast_2d(X).shape[0], th[0]),
        theta_bounds=theta_bounds,
        vectorized=True,
        theta_grad=lambda X, th: np.ones((np.atleast_2d(X).shape[0], 1)),
    )


def _sine_theta_x(theta_bounds):
    return ComputerModel(
        evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0]),
        theta_bounds=theta_bounds,
        vectorized=True,
        theta_grad=lambda X, th: (
            np.atleast_2d(X)[:, 0] * np.cos(th[0] * np.atleast_2d(X)[:, 0])
        ).reshape(-1, 1),
    )


def _sine_plus_x(theta_bounds):
    return ComputerModel(
        evaluator=lambda X, th: np.sin(th[0] * np.atleast_2d(X)[:, 0])
        + np.atleast_2d(X)[:, 0],
        theta_bounds=theta_bounds,
        vectorized=True,
        theta_grad=lambda X, th: (
            np.atleast_2d(X)[:, 0] * np.cos(th[0] * np.atleast_2d(X)[:, 0])
        ).reshape(-1, 1),
    )


_DEFAULT_BOUNDS = {
    "constant": [[0.0, 30.0]],
    "sine_theta_x": [[0.0, 40.0]],
    "sine_plus_x": [[0.0, 3.0]],
}

_FACTORIES = {
    "constant": _constant,
    "sine_theta_x": _sine_theta_x,
    "sine_plus_x": _sine_plus_x,
}


def builtin_model(name: str, theta_bounds=None) -> ComputerModel:
    """Instantiate a built-in computer model, optionally overriding its box."""
    if name not in _FACTORIES:
        raise KeyError(f"unknown builtin model {name!r}; choices: {sorted(_FACTORIES)}")
    bounds = theta_bounds if theta_bounds is not None else _DEFAULT_BOUNDS[name]
    return _FACTORIES[name](bounds)


BUILTIN_MODELS = tuple(sorted(_FACTORIES))
