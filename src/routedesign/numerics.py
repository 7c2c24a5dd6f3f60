"""Dense least squares, the fallback of every solve with the Jacobian.

`lstsq` is a rank-revealing QR (LAPACK gelsy).  smooth_eq.Linearization
calls it on the dense J~, the log system's Jacobian, where its factors meet
a singular J~, and for the equilibrium solver's direction when the line
search along the Newton step fails.  It is deterministic for fixed inputs,
which the CLI relies on for byte-identical reruns.
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
