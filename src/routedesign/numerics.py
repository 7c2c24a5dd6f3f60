"""Dense least squares shared by the equilibrium solver and the implicit gradient.

`lstsq` is a rank-revealing QR (LAPACK gelsy).  It gives the equilibrium
solver's fallback direction where the Newton step is singular or its line
search fails, and solves the implicit gradient's transpose system, which is
exactly singular on some games.  It is deterministic for fixed inputs, which
the CLI relies on for byte-identical reruns.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm minimizer of ||a z - rhs||^2."""
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or rhs.ndim != 1 or rhs.shape[0] != a.shape[0]:
        raise ValueError("incompatible shapes for lstsq")
    sol, _, _, _ = scipy.linalg.lstsq(a, rhs, lapack_driver="gelsy", check_finite=False)
    return sol
