"""Dense least squares shared by the equilibrium solver and the implicit gradient.

`lstsq` is a rank-revealing QR (LAPACK gelsy); it solves the Levenberg-
Marquardt steps Cholesky cannot and the implicit gradient's transpose system,
which is exactly singular on some games.  `DampedLeastSquares` serves the LM
steps of one Jacobian.  Everything here is deterministic for fixed inputs,
which the CLI relies on for byte-identical reruns.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def lstsq(a: np.ndarray, rhs: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Minimize ||a z - rhs||^2 + damping ||z||^2.

    With damping == 0 this is the minimum-norm least-squares solution.  A
    positive damping is handled by stacking sqrt(damping) * I under `a`, which
    is better conditioned than forming the normal equations.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or rhs.ndim != 1 or rhs.shape[0] != a.shape[0]:
        raise ValueError("incompatible shapes for lstsq")
    if damping < 0.0:
        raise ValueError("damping must be nonnegative")
    if damping > 0.0:
        k = a.shape[1]
        a = np.vstack([a, math.sqrt(damping) * np.eye(k)])
        rhs = np.concatenate([rhs, np.zeros(k)])
    sol, _, _, _ = scipy.linalg.lstsq(a, rhs, lapack_driver="gelsy", check_finite=False)
    return sol


class DampedLeastSquares:
    """Minimizers of ||a z - rhs||^2 + damping ||z||^2 for one (a, rhs), any damping.

    Forms a^T a and a^T rhs once; each solve then Cholesky-factors
    a^T a + damping * I, so a new damping costs one factorization.  The first
    time the factorization fails (the damped matrix is not numerically
    positive definite, as with badly scaled or rank-deficient a), a^T a is
    dropped, and that solve and every later one go to lstsq(a, rhs, damping)
    on the stacked system.
    """

    def __init__(self, a: np.ndarray, rhs: np.ndarray) -> None:
        a = np.asarray(a, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if a.ndim != 2 or rhs.ndim != 1 or rhs.shape[0] != a.shape[0]:
            raise ValueError("incompatible shapes for DampedLeastSquares")
        self.a = a
        self.rhs = rhs
        self._gram: np.ndarray | None = a.T @ a
        self._grad = a.T @ rhs

    def solve(self, damping: float) -> np.ndarray:
        """The damped minimizer; same contract as lstsq(a, rhs, damping)."""
        if damping < 0.0:
            raise ValueError("damping must be nonnegative")
        factor = self._cholesky(damping) if self._gram is not None else None
        if factor is None:
            # freed before the stacked copies are allocated
            self._gram = None
            return lstsq(self.a, self.rhs, damping=damping)
        return scipy.linalg.cho_solve(factor, self._grad, check_finite=False)

    def _cholesky(self, damping: float) -> tuple[np.ndarray, bool] | None:
        # None when a^T a + damping I is not numerically positive definite.
        # The damped copy is freed on return, before any fallback allocates.
        k = self._gram.shape[0]
        damped = self._gram.copy()
        damped.reshape(-1)[:: k + 1] += damping
        try:
            return scipy.linalg.cho_factor(damped, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None
