"""Tridiagonal solves for the implicit time step.

The banded core is LAPACK's ``gtsv``, called directly; the wrap terms of
closed and periodic curves are folded in with a rank-one Sherman-Morrison
correction on top of it.  The cyclic solve writes its right-hand sides and
the correction column straight into one Fortran-ordered array, the layout
``gtsv`` works in, so no stacked copy is built and none is transposed on
the way in; one factorization serves all columns.  The correction is
applied by broadcasting along the rows of the transposed solution.

``dgtsv`` comes from SciPy's compiled LAPACK wrapper module,
``scipy.linalg._flapack``, loaded on its own from the install directory
that ``importlib.util.find_spec`` reports, so neither ``scipy/__init__.py``
nor ``scipy/linalg/__init__.py`` runs: the first leaves about 1.3 MB
resident, the second, most of it SciPy's array-API layer cloning the numpy
namespace, would nearly triple csflab's import time, and one LAPACK call
needs neither.  Where that load fails, as it can where SciPy's package
init (its ``_distributor_init`` hook) sets up the library search path,
``scipy`` is imported and the load repeated.  ``dgtsv`` is the same
function object that ``scipy.linalg.lapack`` re-exports, so every solve is
unchanged.

The module is loaded by the first ``solve_tridiagonal`` call, not at
import: explicit runs, the sphere flow and the chord-arc tools never solve
a system, and SciPy with its OpenBLAS would cost them start-up time and
resident memory for nothing.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import NumericalFailureError


def _exec_flapack(scipy_dir: str):
    """``scipy.linalg._flapack`` loaded from ``scipy_dir`` and registered."""
    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy_dir, "linalg")]
    )
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    # registered as the import system would, so a later ``scipy.linalg``
    # import reuses this module instead of loading a second one
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def _load_flapack():
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("cannot find scipy, which supplies LAPACK gtsv", name="scipy")
    scipy_dir = spec.submodule_search_locations[0]
    try:
        return _exec_flapack(scipy_dir)
    except ImportError:
        import scipy  # noqa: F401  its package init sets up the library path

        return _exec_flapack(scipy_dir)


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] ignored), ``upper[i]``
    multiplies x[i+1] (upper[-1] ignored).  ``rhs`` may be (n,) or (n, k).
    Raises ``NumericalFailureError`` on a zero pivot or a non-finite result.
    """
    *_, x, info = _load_flapack().dgtsv(lower[1:], diag, upper[:-1], rhs)
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
    n = len(diag)
    if n < 3:
        raise NumericalFailureError("cyclic system needs at least 3 rows")
    single = np.ndim(rhs) == 1
    k = 1 if single else np.shape(rhs)[1]

    mod_diag = np.array(diag, dtype=float)
    gamma = -mod_diag[0]
    mod_diag[0] -= gamma
    mod_diag[-1] -= upper[-1] * lower[0] / gamma

    # columns 0..k-1 hold the right-hand sides, column k the vector
    # u = (gamma, 0, ..., 0, upper[-1]) of the rank-one update
    b = np.zeros((n, k + 1), order="F")
    b[:, :k] = np.reshape(rhs, (n, k))
    b[0, k] = gamma
    b[-1, k] = upper[-1]
    sol = solve_tridiagonal(lower, mod_diag, upper, b).T
    y, z = sol[:k], sol[k]

    # v = (1, 0, ..., 0, lower[0] / gamma)
    ratio = lower[0] / gamma
    denom = 1.0 + z[0] + ratio * z[-1]
    if abs(denom) < 1e-300:
        raise NumericalFailureError("cyclic closure is singular")
    vy = y[:, 0] + ratio * y[:, -1]
    x = (y - (vy / denom)[:, None] * z).T
    return x[:, 0] if single else x
