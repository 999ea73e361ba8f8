"""Tridiagonal solves for the implicit time step.

The banded core is LAPACK's ``gtsv``, called directly; the wrap terms of
closed and periodic curves are folded in with a rank-one Sherman-Morrison
correction on top of it.  The cyclic solve writes its right-hand sides and
the correction column straight into one Fortran-ordered array, the layout
``gtsv`` works in, so no stacked copy is built and none is transposed on
the way in; one factorization serves all columns.  The correction is
applied by broadcasting along the rows of the transposed solution.

``dgtsv`` comes from the OpenBLAS that numpy already links.  ``import
numpy`` loads ``numpy.linalg._umath_linalg``; ``ctypes.CDLL`` on that
library returns its handle, which also resolves the symbols of the
OpenBLAS it depends on.  numpy's wheels export LAPACK with 64-bit integers
(ILP64) under ``scipy_dgtsv_64_``, and OpenBLAS64 builds without the
``scipy_`` prefix under ``dgtsv_64_``: the ``64_`` suffix is what fixes
the integer arguments at 64 bits, so no other name is looked up.  The
argument types are declared, the integers as pointers to ``c_int64`` and
the arrays as ``c_void_p`` addresses: ctypes passes an undeclared Python
int as a 32-bit C ``int``, which cuts an address short.  Each solve
copies the three diagonals and the right-hand sides into one ``float64``
work array ``[dl | d | du | B]``, ``B`` in Fortran order, with one
``np.concatenate``, so the caller's arrays are never written; ``gtsv``
overwrites the copy and leaves the solution in its ``B`` part, returned
as a view.  The sizes are checked first: LAPACK trusts n.

Where numpy exports neither name (Windows, numpy on Accelerate, distro
builds of numpy), ``dgtsv`` comes from SciPy's compiled LAPACK wrapper
module, ``scipy.linalg._flapack``, loaded on its own from the install
directory that ``importlib.util.find_spec`` reports, so neither
``scipy/__init__.py`` nor ``scipy/linalg/__init__.py`` runs.  Where that
load fails, as it can where SciPy's package init (its
``_distributor_init`` hook) sets up the library search path, ``scipy`` is
imported and the load repeated.  Both routes run the same LAPACK routine
on the same arrays and give the same bits.

The lookup, and the SciPy load where it is needed, run on the first
``solve_tridiagonal`` call, not at import, and are cached: explicit runs,
the sphere flow and the chord-arc tools never solve a system.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidArgumentError, NumericalFailureError

# dgtsv with 64-bit integers, as numpy's wheels and OpenBLAS64 export it
_ILP64_GTSV = ("scipy_dgtsv_64_", "dgtsv_64_")


@functools.cache
def _numpy_gtsv():
    """numpy's LAPACK ``dgtsv`` with its arguments declared, or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in _ILP64_GTSV:
        gtsv = getattr(lib, name, None)
        if gtsv is not None:
            int64 = ctypes.POINTER(ctypes.c_int64)
            # N, NRHS, DL, D, DU, B, LDB, INFO
            gtsv.argtypes = (int64, int64, *[ctypes.c_void_p] * 4, int64, int64)
            gtsv.restype = None
            return gtsv
    return None


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


def _solve_numpy(gtsv, lower, diag, upper, rhs):
    """``gtsv`` on a copy of the system: the solution and LAPACK's info."""
    n = len(diag)
    work = np.concatenate((lower[1:], diag, upper[:-1], rhs.ravel("F")), dtype=np.float64)
    dl = ctypes.addressof(ctypes.c_double.from_buffer(work))
    d = dl + 8 * (n - 1)  # 8 bytes per float64
    du = d + 8 * n
    b = du + 8 * (n - 1)
    info = ctypes.c_int64()
    size = ctypes.c_int64(n)
    gtsv(size, ctypes.c_int64(rhs.size // n), dl, d, du, b, size, info)
    # B holds the columns one after another: the transpose of a C-order view
    return work[3 * n - 2 :].reshape(rhs.shape[::-1]).T, info.value


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] ignored), ``upper[i]``
    multiplies x[i+1] (upper[-1] ignored).  ``rhs`` may be (n,) or (n, k).
    Raises ``NumericalFailureError`` on a zero pivot or a non-finite result.
    """
    rhs = np.asarray(rhs)
    n, shape = len(diag), rhs.shape
    if not 0 < len(shape) < 3 or len(lower) != n or len(upper) != n or shape[0] != n:
        raise InvalidArgumentError(
            f"tridiagonal system with diagonals of length {len(lower)}, {n} and "
            f"{len(upper)} does not fit a right-hand side of shape {shape}"
        )
    if n < 2:
        raise InvalidArgumentError("tridiagonal system needs at least 2 rows")
    gtsv = _numpy_gtsv()
    if gtsv is None:
        *_, x, info = _load_flapack().dgtsv(lower[1:], diag, upper[:-1], rhs)
    else:
        x, info = _solve_numpy(gtsv, lower, diag, upper, rhs)
    if info < 0:
        raise NumericalFailureError(f"LAPACK gtsv rejected its argument {-info}")
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
