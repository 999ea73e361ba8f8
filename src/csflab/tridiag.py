"""Tridiagonal solves for the implicit time step.

The banded core is LAPACK's ``gtsv`` (``scipy.linalg.lapack.dgtsv``),
called directly; the wrap terms of closed and periodic curves are folded in
with a rank-one Sherman-Morrison correction on top of it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NumericalFailureError


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] ignored), ``upper[i]``
    multiplies x[i+1] (upper[-1] ignored).  ``rhs`` may be (n,) or (n, k).
    Raises ``NumericalFailureError`` on a zero pivot or a non-finite result.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    *_, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info > 0:
        raise NumericalFailureError(
            f"singular tridiagonal system: zero pivot in row {info}"
        )
    if not np.isfinite(x).all():
        raise NumericalFailureError("tridiagonal solve produced non-finite values")
    return x


def solve_cyclic_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a cyclic tridiagonal system.

    Row i couples x[(i-1) % n], x[i], x[(i+1) % n]; the wrap entries are
    ``lower[0]`` (row 0, last column) and ``upper[-1]`` (last row, column 0).
    The cyclic corners are removed by a rank-one update and restored with the
    Sherman-Morrison formula, so only one banded factorization is needed.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise NumericalFailureError("cyclic system needs at least 3 rows")

    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs

    gamma = -diag[0]
    mod_diag = diag.copy()
    mod_diag[0] -= gamma
    mod_diag[-1] -= upper[-1] * lower[0] / gamma

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = upper[-1]

    stacked = np.hstack([b, u[:, None]])
    sol = solve_tridiagonal(lower, mod_diag, upper, stacked)
    y, z = sol[:, :-1], sol[:, -1]

    # v = (1, 0, ..., 0, lower[0] / gamma)
    denom = 1.0 + z[0] + (lower[0] / gamma) * z[-1]
    if abs(denom) < 1e-300:
        raise NumericalFailureError("cyclic closure is singular")
    vy = y[0] + (lower[0] / gamma) * y[-1]
    x = y - np.outer(z, vy / denom)
    return x[:, 0] if single else x
