"""One-dimensional correlation functions and product-form correlation matrices.

All kernels here are stationary correlations (unit variance): ``c(0) = 1`` and
``0 < c(d) <= 1`` for every admissible parameter set.  Multi-dimensional
correlations are products of one-dimensional correlations, one factor per
input coordinate, each with its own range parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MATERN52 = "matern52"
POW_EXP = "pow_exp"

_FAMILIES = (MATERN52, POW_EXP)

#: Default roughness of the power-exponential correlation.
DEFAULT_ROUGHNESS = 1.9


@dataclass(frozen=True)
class KernelSpec:
    """Correlation family plus per-dimension range (and roughness) parameters.

    Parameters
    ----------
    family : str
        Either ``"matern52"`` or ``"pow_exp"``.
    ranges : array_like
        Positive range parameter per input dimension, in the units of that
        coordinate.
    roughness : array_like, optional
        Power-exponential exponent per dimension, each in (0, 2].  Ignored by
        the Matern family.  Defaults to 1.9 for every dimension.
    """

    family: str
    ranges: np.ndarray
    roughness: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        ranges = np.atleast_1d(np.asarray(self.ranges, dtype=float))
        if ranges.ndim != 1 or ranges.size == 0:
            raise ValueError("ranges must be a non-empty 1-D array")
        if not np.all(np.isfinite(ranges)) or np.any(ranges <= 0):
            raise ValueError("all range parameters must be finite and positive")
        object.__setattr__(self, "ranges", ranges)
        if self.family == POW_EXP:
            rough = self.roughness
            if rough is None:
                rough = np.full(ranges.size, DEFAULT_ROUGHNESS)
            rough = np.atleast_1d(np.asarray(rough, dtype=float))
            if rough.size == 1 and ranges.size > 1:
                rough = np.full(ranges.size, rough[0])
            if rough.shape != ranges.shape:
                raise ValueError("roughness must match ranges in length")
            if np.any(rough <= 0) or np.any(rough > 2):
                raise ValueError("roughness must lie in (0, 2]")
            object.__setattr__(self, "roughness", rough)
        else:
            object.__setattr__(self, "roughness", None)

    @property
    def dim(self) -> int:
        return self.ranges.size


def _check_distance(d):
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("distances must be finite and non-negative")
    return d


def matern52(d, gamma: float):
    """Matern correlation with smoothness 5/2.

    ``c(d) = (1 + sqrt(5) d/gamma + 5 d^2 / (3 gamma^2)) exp(-sqrt(5) d/gamma)``,
    which is 0 (its limit) wherever ``d/gamma`` is large enough to overflow.
    """
    d = _check_distance(d)
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be finite and positive")
    return _matern52(d, gamma)


def _matern52(d, gamma):
    """:func:`matern52` on checked arguments."""
    # exp(-u) underflows to 0 near u = 745; the cap keeps u * u finite there.  In
    # place, in the expression's order; shape () lets scalars take out= and stay scalars.
    u = np.multiply(np.sqrt(5.0), d, out=np.empty(np.shape(d)))
    u /= gamma
    np.minimum(u, 1e3, out=u)
    out = 1.0 + u
    t = u * u
    t /= 3.0
    out += t
    out *= np.exp(np.negative(u, out=u), out=u)
    return out[()]


def pow_exp(d, gamma: float, nu: float = DEFAULT_ROUGHNESS):
    """Power-exponential correlation ``c(d) = exp(-(d/gamma)^nu)``.

    Zero distance short-circuits to 1 so that exponents below 1 never see
    ``0**nu``.
    """
    d = _check_distance(d)
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be finite and positive")
    if not 0 < nu <= 2:
        raise ValueError("nu must lie in (0, 2]")
    return _pow_exp(d, gamma, nu)


def _pow_exp(d, gamma, nu):
    """:func:`pow_exp` on checked arguments."""
    scaled = d / gamma
    out = np.exp(-np.where(scaled > 0, scaled, 1.0) ** nu)
    return np.where(scaled > 0, out, 1.0)


def _corr_1d(d, spec: KernelSpec, gamma, dim: int):
    """One-dimensional correlation of ``spec``'s family along axis ``dim`` at
    range ``gamma``, unchecked."""
    if spec.family == MATERN52:
        return _matern52(d, gamma)
    return _pow_exp(d, gamma, spec.roughness[dim])


def _distances(X1, X2) -> list[np.ndarray]:
    """Checked per-axis distance matrices ``|X1[i, l] - X2[j, l]|`` of 2-D designs."""
    return [_check_distance(np.abs(X1[:, l, None] - X2[None, :, l])) for l in range(X1.shape[1])]


def _product_corr(dists, spec: KernelSpec, gammas) -> np.ndarray:
    """Product correlation from per-axis distance matrices (see :func:`_distances`)
    with ``spec``'s family and roughness at ranges ``gammas``, unchecked."""
    out = _corr_1d(dists[0], spec, gammas[0], 0)
    for l in range(1, len(dists)):
        out *= _corr_1d(dists[l], spec, gammas[l], l)
    return out


def corr_matrix(X1, X2, spec: KernelSpec) -> np.ndarray:
    """Correlation matrix between two sets of input points.

    Parameters
    ----------
    X1, X2 : array_like, shapes (m, p) and (k, p)
        Input designs; a 1-D array is one point (a single row), so a
        column of one-dimensional inputs must be passed as shape (m, 1).

    Returns
    -------
    ndarray, shape (m, k)
        Entry (i, j) is the product over coordinates ``l`` of the
        one-dimensional correlation at distance ``|X1[i, l] - X2[j, l]|``.
    """
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if X1.shape[1] != spec.dim or X2.shape[1] != spec.dim:
        raise ValueError(
            f"designs have {X1.shape[1]} and {X2.shape[1]} columns, spec expects {spec.dim}"
        )
    return _product_corr(_distances(X1, X2), spec, spec.ranges)
