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


def _x_cos_theta_x(X, th):
    return (X[:, 0] * np.cos(th[0] * X[:, 0]))[:, None]


#: name -> (evaluator, theta-gradient, default theta box); each has one parameter.
_BUILTINS = {
    "constant": (
        lambda X, th: np.full(X.shape[0], th[0]),
        lambda X, th: np.ones((X.shape[0], 1)),
        [[0.0, 30.0]],
    ),
    "sine_theta_x": (lambda X, th: np.sin(th[0] * X[:, 0]), _x_cos_theta_x, [[0.0, 40.0]]),
    "sine_plus_x": (lambda X, th: np.sin(th[0] * X[:, 0]) + X[:, 0], _x_cos_theta_x, [[0.0, 3.0]]),
}


def builtin_model(name: str, theta_bounds=None) -> ComputerModel:
    """Instantiate a built-in computer model, optionally overriding its one-row box."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin model {name!r}; choices: {sorted(_BUILTINS)}")
    evaluator, grad, default = _BUILTINS[name]
    bounds = default if theta_bounds is None else theta_bounds
    model = ComputerModel(evaluator, bounds, vectorized=True, theta_grad=grad)
    if model.p_theta != 1:
        raise ValueError(f"{name} has one parameter, so theta_bounds needs one row, got {model.p_theta}")
    return model


BUILTIN_MODELS = tuple(sorted(_BUILTINS))
