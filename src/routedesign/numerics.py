"""Dense linear-algebra helpers with explicit tolerance conventions.

Thin wrappers around LAPACK via numpy/scipy; everything here is deterministic
for fixed inputs, which the CLI relies on for byte-identical reruns.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import NotSymmetricError


def default_rcond(shape: tuple[int, int]) -> float:
    """Singular-value cutoff ratio: max(rows, cols) times machine epsilon."""
    return max(shape) * np.finfo(float).eps


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with an SVD cutoff at default_rcond * sigma_max."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("pseudoinverse expects a matrix")
    return np.linalg.pinv(a, rcond=default_rcond(a.shape))


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
    a^T a + damping * I, so a new damping costs one factorization.  When the
    factorization fails (the damped matrix is not numerically positive
    definite, as with badly scaled or rank-deficient a), that solve falls
    back to lstsq(a, rhs, damping) on the stacked system.  a^T a is dropped
    for the fallback, whose stacked copies need the memory, and formed again
    if another damping is tried.
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
        factor = self._cholesky(damping)
        if factor is None:
            self._gram = None
            return lstsq(self.a, self.rhs, damping=damping)
        return scipy.linalg.cho_solve(factor, self._grad, check_finite=False)

    def _cholesky(self, damping: float) -> tuple[np.ndarray, bool] | None:
        # None when a^T a + damping I is not numerically positive definite.
        # The damped copy is freed on return, before any fallback allocates.
        if self._gram is None:
            self._gram = self.a.T @ self.a
        k = self._gram.shape[0]
        damped = self._gram.copy()
        damped.reshape(-1)[:: k + 1] += damping
        try:
            return scipy.linalg.cho_factor(damped, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None


def eig_sym(s: np.ndarray, eig_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises:
        NotSymmetricError: relative asymmetry exceeds eig_tol.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("eig_sym expects a square matrix")
    scale = np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > eig_tol * max(scale, 1.0):
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    w, q = np.linalg.eigh(s)
    return w, q

