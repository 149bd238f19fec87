"""Kernel-level checks: scalar values, monotonicity, matrix structure."""

import numpy as np
import pytest

from gpcalib.kernels import KernelSpec, _matern52, corr_matrix, matern52, pow_exp
from oracles import matern52_expression, product_corr


class TestMatern52:
    def test_zero_distance(self):
        assert matern52(0.0, 1.0) == 1.0

    def test_decay_limit(self):
        assert matern52(50.0, 1.0) < 1e-12

    def test_scalar_value(self):
        # independent evaluation of (1 + sqrt5 + 5/3) * exp(-sqrt5)
        expected = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))
        assert np.isclose(matern52(1.0, 1.0), expected, rtol=1e-12)
        assert np.isclose(expected, 0.52399, atol=5e-6)

    def test_overflowing_scaled_distance_gives_zero(self):
        # (1 + u + u^2/3) overflows to inf where exp(-u) is 0; the limit is 0
        d = np.array([0.0, 1e-200, 0.5, 1.0])
        np.testing.assert_array_equal(matern52(d, 1e-305), [1.0, 0.0, 0.0, 0.0])
        assert matern52(1.0, 5e-324) == 0.0

    @pytest.mark.parametrize(
        "d",
        [0.0, 0.7, np.float64(2.5), np.array(1e3), np.array([0.0, 1e-200, 0.3, 447.0, 1e3, 1e300]),
         np.random.default_rng(0).exponential(size=(30, 17))],
    )
    @pytest.mark.parametrize("gamma", [5e-324, 1e-305, 0.05, 1.0, 2.2360679, 1e300])
    def test_in_place_kernel_equals_expression(self, d, gamma):
        with np.errstate(over="ignore"):
            want = matern52_expression(np.asarray(d, dtype=float), gamma)
            got = _matern52(np.asarray(d, dtype=float), gamma)
            public = matern52(d, gamma)
        assert np.array_equal(got, want) and np.array_equal(public, want)
        assert type(got) is type(want) and type(public) is type(want)
        assert np.shape(got) == np.shape(want)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            matern52(-1.0, 1.0)
        with pytest.raises(ValueError):
            matern52(np.nan, 1.0)
        with pytest.raises(ValueError):
            matern52(1.0, 0.0)


class TestPowExp:
    def test_zero_distance(self):
        assert pow_exp(0.0, 1.0, 1.9) == 1.0

    def test_nu_two_is_gaussian(self):
        assert np.isclose(pow_exp(1.0, 1.0, 2.0), np.exp(-1.0), rtol=1e-12)

    def test_scalar_value(self):
        expected = np.exp(-np.exp(1.9 * np.log(0.5)))
        assert np.isclose(pow_exp(0.5, 1.0, 1.9), expected, rtol=1e-12)
        assert np.isclose(expected, 0.764953, atol=5e-6)

    def test_small_nu_at_zero(self):
        # the 0**nu short-circuit must hold below nu = 1 as well
        assert pow_exp(0.0, 1.0, 0.5) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pow_exp(1.0, -1.0, 1.9)
        with pytest.raises(ValueError):
            pow_exp(1.0, 1.0, 2.5)
        with pytest.raises(ValueError):
            pow_exp(1.0, 1.0, 0.0)


class TestProductCorr:
    def test_identical_inputs(self):
        spec = KernelSpec("matern52", [0.7, 1.3])
        assert product_corr([0.2, 0.4], [0.2, 0.4], spec) == 1.0

    def test_square_of_univariate(self):
        spec = KernelSpec("matern52", [1.0, 1.0])
        one_d = matern52(1.0, 1.0)
        assert np.isclose(product_corr([0, 0], [1, 1], spec), one_d**2, rtol=1e-12)

    def test_unit_factor(self):
        spec = KernelSpec("matern52", [1.0, 2.0])
        assert np.isclose(
            product_corr([0.5, 0.0], [0.5, 1.0], spec),
            matern52(1.0, 2.0),
            rtol=1e-12,
        )

    def test_dimension_mismatch(self):
        spec = KernelSpec("matern52", [1.0, 1.0])
        with pytest.raises(ValueError):
            product_corr([0.0], [0.0, 1.0], spec)


class TestCorrMatrix:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 3))
        spec = KernelSpec("matern52", [0.5, 0.5, 0.5])
        R = corr_matrix(X, X, spec)
        np.testing.assert_allclose(R, R.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(R), 1.0, atol=1e-15)

    @pytest.mark.parametrize("family,kwargs", [("matern52", {}), ("pow_exp", {"roughness": 1.9})])
    def test_psd_small(self, family, kwargs):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(20, 2))
        spec = KernelSpec(family, [0.3, 0.3], **kwargs)
        eigs = np.linalg.eigvalsh(corr_matrix(X, X, spec))
        assert eigs.min() >= -1e-10

    def test_single_rows_match_product_corr(self):
        spec = KernelSpec("pow_exp", [1.0, 2.0], roughness=1.5)
        xa, xb = np.array([0.1, 0.9]), np.array([0.7, 0.2])
        R = corr_matrix(xa[None, :], xb[None, :], spec)
        assert np.isclose(R[0, 0], product_corr(xa, xb, spec), rtol=1e-12)

    def test_shape_mismatch(self):
        spec = KernelSpec("matern52", [1.0])
        with pytest.raises(ValueError):
            corr_matrix(np.zeros((3, 2)), np.zeros((3, 2)), spec)


class TestKernelProperties:
    """Correlation-function properties shared by both families."""

    @pytest.mark.parametrize(
        "family,gamma,nu",
        [
            ("matern52", 0.3, None),
            ("matern52", 2.5, None),
            ("pow_exp", 0.3, 1.9),
            ("pow_exp", 1.0, 1.0),
            ("pow_exp", 1.7, 0.5),
            ("pow_exp", 0.8, 2.0),
        ],
    )
    def test_unit_at_zero_bounded_monotone(self, family, gamma, nu):
        d = np.linspace(0, 10, 1001)
        if family == "matern52":
            c = matern52(d, gamma)
        else:
            c = pow_exp(d, gamma, nu)
        assert c[0] == 1.0
        # strictly positive until float64 underflow; never above 1
        assert np.all(c >= 0) and np.all(c <= 1.0)
        assert np.all(c[d <= 2 * gamma] > 0)
        assert np.all(np.diff(c) <= 1e-15)

    def test_families_agree_at_zero_and_infinity(self):
        assert matern52(0.0, 1.0) == pow_exp(0.0, 1.0, 2.0) == 1.0
        assert matern52(100.0, 1.0) < 1e-12
        assert pow_exp(100.0, 1.0, 2.0) < 1e-12

    def test_psd_up_to_200(self):
        rng = np.random.default_rng(7)
        for n in (50, 200):
            X = rng.uniform(size=(n, 2))
            spec = KernelSpec("matern52", [0.4, 0.4])
            eigmin = np.linalg.eigvalsh(corr_matrix(X, X, spec)).min()
            assert eigmin >= -1e-8 * n


class TestKernelSpec:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            KernelSpec("matern52", [1.0, -1.0])
        with pytest.raises(ValueError):
            KernelSpec("matern52", [])

    def test_rejects_bad_roughness(self):
        with pytest.raises(ValueError):
            KernelSpec("pow_exp", [1.0], roughness=[2.1])

    def test_default_roughness(self):
        spec = KernelSpec("pow_exp", [1.0, 1.0])
        np.testing.assert_allclose(spec.roughness, 1.9)

    def test_matern_ignores_roughness(self):
        spec = KernelSpec("matern52", [1.0], roughness=[1.2])
        assert spec.roughness is None
