"""Cholesky factorization of dense correlation matrices.

Near-singular correlation matrices (small ranges, no nugget) are stabilized
by a short jitter escalation whose final level is reported back to the
caller.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky

#: Jitter levels tried in order, as multiples of the mean diagonal.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

LOG_2PI = float(np.log(2.0 * np.pi))


class NumericalError(RuntimeError):
    """Cholesky factorization failed even after jitter escalation."""

    def __init__(self, message: str, jitter: float = 0.0):
        super().__init__(message)
        self.jitter = jitter


def cholesky_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A``, escalating diagonal jitter on failure.

    Returns
    -------
    (L, jitter) : lower-triangular factor and the absolute jitter added to the
        diagonal (0.0 when none was needed).
    """
    A = np.asarray(A, dtype=float)
    scale = float(np.mean(np.diag(A)))
    if not np.isfinite(scale):
        raise NumericalError("covariance diagonal is not finite")
    last = 0.0
    for level in JITTER_LADDER:
        jitter = level * scale
        last = jitter
        try:
            if jitter > 0:
                L = cholesky(A + jitter * np.eye(A.shape[0]), lower=True)
            else:
                L = cholesky(A, lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"Cholesky failed after jitter escalation up to {last:.3e}", jitter=last
    )
