"""Built-in models and truth functions."""

import numpy as np
import pytest

from gpcalib.models import (
    branin_truth,
    builtin_model,
    oscillator_truth,
    park_truth,
    sine_truth,
)


class TestTruths:
    def test_park_value(self):
        x = np.array([[0.5, 0.5, 0.5, 0.5]])
        expected = 2.0 / 3.0 * np.e - 0.5 * np.sin(0.5) + 0.5
        assert np.isclose(park_truth(x)[0], expected, rtol=1e-12)

    def test_branin_minima(self):
        minima = np.array(
            [[np.pi, 2.275], [-np.pi, 12.275], [9.42478, 2.475]]
        )
        vals = branin_truth(minima)
        np.testing.assert_allclose(vals, 0.397887, atol=1e-4)

    def test_sine_truth(self):
        x = np.array([[0.25]])
        assert np.isclose(
            sine_truth(x)[0], np.sin(2.5 * np.pi) + np.sin(0.25 * np.pi), rtol=1e-12
        )

    def test_oscillator_truth(self):
        x = np.array([[2.0]])
        assert np.isclose(oscillator_truth(x)[0], 2 * np.cos(3.0) + 2.0, rtol=1e-12)


class TestBuiltinModels:
    def test_constant(self):
        m = builtin_model("constant")
        np.testing.assert_allclose(m.evaluate(np.zeros((3, 4)), [2.5]), 2.5)

    def test_sine_theta_x(self):
        m = builtin_model("sine_theta_x")
        assert np.isclose(m.evaluate([[0.5]], [np.pi])[0], np.sin(np.pi / 2), rtol=1e-12)

    def test_sine_plus_x(self):
        m = builtin_model("sine_plus_x")
        assert np.isclose(m.evaluate([[2.0]], [1.5])[0], np.sin(3.0) + 2.0, rtol=1e-12)

    @pytest.mark.parametrize("name", ["constant", "sine_theta_x", "sine_plus_x"])
    def test_analytic_gradients_match_finite_differences(self, name):
        m = builtin_model(name)
        lo, hi = m.theta_bounds[0]
        theta = np.array([0.3 * lo + 0.7 * hi])
        X = np.linspace(0.1, 0.9, 5)[:, None]
        if name == "constant":
            X = np.tile(X, (1, 4))
        analytic = m.theta_grad(X, theta)
        step = 1e-5
        fd = (m.evaluate(X, theta + step) - m.evaluate(X, theta - step)) / (2 * step)
        np.testing.assert_allclose(analytic[:, 0], fd, atol=1e-6)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_model("nope")

    @pytest.mark.parametrize("name", ["constant", "sine_theta_x", "sine_plus_x"])
    def test_a_box_with_more_rows_than_parameters_is_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} has one parameter, so theta_bounds needs one row, got 2"):
            builtin_model(name, [[0.0, 1.0], [0.0, 2.0]])

    def test_a_flat_pair_is_one_row(self):
        np.testing.assert_array_equal(builtin_model("sine_theta_x", [0.0, 2.0]).theta_bounds, [[0.0, 2.0]])

    def test_bounds_override(self):
        m = builtin_model("constant", theta_bounds=[[-1.0, 1.0]])
        np.testing.assert_array_equal(m.theta_bounds, [[-1.0, 1.0]])
