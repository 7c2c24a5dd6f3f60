"""Dense least squares, and the package's one door to scipy.

`lstsq` is a rank-revealing QR (LAPACK gelsy).  smooth_eq.Linearization
calls it on the dense J~, the log system's Jacobian, where its factors meet
a singular J~, and for the equilibrium solver's last direction, when the
line searches along the Newton and proximal steps fail.  It is deterministic for fixed inputs,
which the CLI relies on for byte-identical reruns.

`scipy_linalg` imports scipy.linalg on its first call.  Only `lstsq` and
Linearization's dense route (the LU of J~ and its chord solves) call it: the
structured route runs on numpy's LAPACK, so a command that never takes the
dense route or the least-squares fallback never loads scipy, whose import
costs more than a whole scenario design.
"""

from __future__ import annotations

import numpy as np


def scipy_linalg():
    """The scipy.linalg module, imported on the first call."""
    import scipy.linalg

    return scipy.linalg


def lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm minimizer of ||a z - rhs||^2."""
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or rhs.ndim != 1 or rhs.shape[0] != a.shape[0]:
        raise ValueError("incompatible shapes for lstsq")
    sol, _, _, _ = scipy_linalg().lstsq(a, rhs, lapack_driver="gelsy", check_finite=False)
    return sol
