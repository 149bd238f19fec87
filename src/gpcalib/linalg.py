"""Cholesky factorization of dense correlation matrices.

Near-singular correlation matrices (small ranges, no nugget) are stabilized
by a short jitter escalation whose final level is reported back to the
caller.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

#: Jitter levels tried in order, as multiples of the mean diagonal.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

LOG_2PI = float(np.log(2.0 * np.pi))


class NumericalError(RuntimeError):
    """Cholesky factorization failed even after jitter escalation."""

    def __init__(self, message: str, jitter: float = 0.0):
        super().__init__(message)
        self.jitter = jitter


def _shifted(A: np.ndarray, shift: float) -> np.ndarray:
    """A copy of the square ``A`` with ``shift`` added to its diagonal
    (``A + shift * I`` without forming ``I``)."""
    A = A.copy()
    A.flat[:: A.shape[0] + 1] += shift
    return A


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L^-1`` of a lower Cholesky factor ``L``: a product with
    it applies the factor to many right-hand sides faster than a triangular
    solve, and as accurately (Du Croz & Higham, IMA J. Numer. Anal. 1992)."""
    return dtrtri(L, lower=1)[0]


def cholesky_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A``, escalating diagonal jitter on failure.

    ``A`` itself is tried first; only when that fails are the ladder's
    multiples of the mean diagonal added.  Only the lower triangle is read,
    as by ``dpotrf``, so ``A`` should be symmetric.  A non-finite ``A``
    raises :class:`NumericalError`; it is scanned for only when the first
    ``dpotrf`` fails or leaves a non-finite diagonal in ``L``, since
    OpenBLAS can report success for a NaN or inf entry and only that
    diagonal then shows it.

    Returns
    -------
    (L, jitter) : lower-triangular factor and the absolute jitter added to the
        diagonal (0.0 when none was needed).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    L, info = dpotrf(A, lower=1)
    if info == 0 and np.isfinite(L.diagonal()).all():
        return L, 0.0
    if not np.isfinite(A).all():
        raise NumericalError("matrix to factor is not finite")
    scale = float(np.mean(np.diag(A)))
    last = 0.0
    for level in JITTER_LADDER[1:]:
        jitter = level * scale
        last = jitter
        L, info = dpotrf(_shifted(A, jitter) if jitter > 0 else A, lower=1)
        if info == 0:
            return L, jitter
    raise NumericalError(
        f"Cholesky failed after jitter escalation up to {last:.3e}", jitter=last
    )
