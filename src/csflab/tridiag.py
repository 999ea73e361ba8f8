"""Tridiagonal solves for the implicit time step.

The banded core is LAPACK's ``gtsv``; the wrap terms of closed and periodic
curves are folded in with a rank-one Sherman-Morrison correction on top of
it, so one factorization serves all columns.  Each public solve checks its
arguments once, since LAPACK trusts n, and builds one ``float64`` work
array ``[dl | d | du | B]``, the layout ``gtsv`` works in, ``B`` in Fortran
order: the banded solve with one ``np.concatenate``, the cyclic solve by
writing its diagonals, right-hand sides and correction column straight
into it.  The caller's arrays are never written.  ``_gtsv``, the one place
that calls LAPACK, solves in that array and leaves the solution in ``B``.

``dgtsv`` comes from the OpenBLAS that numpy already links.  ``import
numpy`` loads ``numpy.linalg._umath_linalg``; ``ctypes.CDLL`` on that
library returns its handle, which also resolves the symbols of the
OpenBLAS it depends on.  numpy's wheels export LAPACK with 64-bit integers
(ILP64) under ``scipy_dgtsv_64_``, and OpenBLAS64 builds without the
``scipy_`` prefix under ``dgtsv_64_``: the ``64_`` suffix is what fixes
the integer arguments at 64 bits, so no other name is looked up.  The
argument types are declared, the integers as pointers to ``c_int64`` and
the arrays as ``c_void_p`` addresses: ctypes passes an undeclared Python
int as a 32-bit C ``int``, which cuts an address short.

Where numpy exports neither name (Windows, numpy on Accelerate, distro
builds of numpy), SciPy's ``dgtsv`` solves in views of the same work
array, with its overwrite flags set, and gives the same bits.  The lookup,
and the ``scipy.linalg.lapack`` import where it is needed, run on the
first solve, not at import, and are cached: explicit runs and the
chord-arc tools never solve a system.
"""

from __future__ import annotations

import ctypes
import functools
import math

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


@functools.cache
def _load_flapack():
    """SciPy's LAPACK wrappers, for hosts where numpy exports no ``dgtsv``."""
    from scipy.linalg import lapack

    return lapack


def _gtsv(work, n, k):
    """Solve ``[dl | d | du | B]`` in ``work`` in place; return B, its k columns in turn."""
    x = work[3 * n - 2 :]
    gtsv = _numpy_gtsv()
    if gtsv is None:
        dl, d, du = work[: n - 1], work[n - 1 : 2 * n - 1], work[2 * n - 1 : 3 * n - 2]
        *_, info = _load_flapack().dgtsv(dl, d, du, x.reshape(k, n).T, overwrite_dl=1,
                                         overwrite_d=1, overwrite_du=1, overwrite_b=1)
    else:
        dl = ctypes.addressof(ctypes.c_double.from_buffer(work))
        d = dl + 8 * (n - 1)  # 8 bytes per float64
        du = d + 8 * n
        b = du + 8 * (n - 1)
        status, size = ctypes.c_int64(), ctypes.c_int64(n)
        gtsv(size, ctypes.c_int64(k), dl, d, du, b, size, status)
        info = status.value
    if info < 0:
        raise NumericalFailureError(f"LAPACK gtsv rejected its argument {-info}")
    if info > 0:
        raise NumericalFailureError(f"singular tridiagonal system: zero pivot in row {info}")
    if not np.isfinite(x).all():
        raise NumericalFailureError("tridiagonal solve produced non-finite values")
    return x


def _checked_system(lower, diag, upper, rhs, min_rows, name):
    """The system as arrays, after the checks both LAPACK routes rely on.

    ``gtsv`` trusts n and the column count, and on a complex entry one route
    raises where the other drops the imaginary part.
    """
    lower, diag, upper, rhs = map(np.asarray, (lower, diag, upper, rhs))
    # three 1-D diagonals, each as long as the right-hand side has rows
    if not (lower.ndim == diag.ndim == upper.ndim == 1 and 0 < rhs.ndim < 3
            and len(lower) == len(diag) == len(upper) == len(rhs)):
        raise InvalidArgumentError(
            f"{name} with diagonals of shapes {lower.shape}, {diag.shape} and "
            f"{upper.shape} does not fit a right-hand side of shape {rhs.shape}"
        )
    if len(diag) < min_rows:
        raise InvalidArgumentError(f"{name} needs at least {min_rows} rows")
    if rhs.size == 0:
        raise InvalidArgumentError(f"{name} has a right-hand side with no columns")
    dtype = np.result_type(lower, diag, upper, rhs)
    if dtype.kind not in "biuf":
        raise InvalidArgumentError(f"{name} must have real entries, not {dtype}")
    return lower, diag, upper, rhs


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] ignored), ``upper[i]``
    multiplies x[i+1] (upper[-1] ignored).  ``rhs`` may be (n,) or (n, k).
    Raises ``InvalidArgumentError`` on diagonals that are not 1-D or whose
    sizes do not fit, fewer than 2 rows, no column or a non-real entry, and
    ``NumericalFailureError`` on a zero pivot or a non-finite result.
    """
    lower, diag, upper, rhs = _checked_system(lower, diag, upper, rhs, 2, "tridiagonal system")
    n = len(diag)
    work = np.concatenate((lower[1:], diag, upper[:-1], rhs.ravel("F")), dtype=np.float64)
    # B holds the columns one after another: the transpose of a C-order view
    return _gtsv(work, n, rhs.size // n).reshape(rhs.shape[::-1]).T


def solve_cyclic_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a cyclic tridiagonal system.

    Row i couples x[(i-1) % n], x[i], x[(i+1) % n]; the wrap entries are
    ``lower[0]`` (row 0, last column) and ``upper[-1]`` (last row, column 0).
    The cyclic corners are removed by a rank-one update and restored with the
    Sherman-Morrison formula, so only one banded factorization is needed.
    Arguments are checked as in ``solve_tridiagonal``, with at least 3 rows.
    """
    lower, diag, upper, rhs = _checked_system(
        lower, diag, upper, rhs, 3, "cyclic tridiagonal system"
    )
    n = len(diag)
    k = rhs.size // n

    # [dl | d | du | B] as in solve_tridiagonal; B's columns 0..k-1 hold the
    # right-hand sides, column k the vector u = (gamma, 0, ..., 0, upper[-1])
    # of the rank-one update
    work = np.empty(3 * n - 2 + n * (k + 1))
    work[: n - 1] = lower[1:]
    d = work[n - 1 : 2 * n - 1]
    d[:] = diag
    work[2 * n - 1 : 3 * n - 2] = upper[:-1]
    b = work[3 * n - 2 :].reshape(k + 1, n)
    b[:k] = rhs.reshape(n, k).T
    # any nonzero gamma gives the same solution; -diag[0] is the usual
    # choice, and a zero diag[0] takes the scale of its row instead
    gamma = -d[0] or -float(abs(lower[0]) + abs(upper[0])) or -1.0
    d[0] -= gamma
    d[-1] -= upper[-1] * lower[0] / gamma
    b[k] = 0.0
    b[k, 0] = gamma
    b[k, -1] = upper[-1]
    _gtsv(work, n, k + 1)
    y, z = b[:k], b[k]

    # v = (1, 0, ..., 0, lower[0] / gamma)
    ratio = lower[0] / gamma
    denom = 1.0 + z[0] + ratio * z[-1]
    # a NaN denominator would pass the size test alone
    if not (math.isfinite(ratio) and math.isfinite(denom)) or abs(denom) < 1e-300:
        raise NumericalFailureError(f"cyclic closure is singular: denominator {denom}")
    vy = y[:, 0] + ratio * y[:, -1]
    # back to the shape of rhs: (n, k), or (n,) for a 1-D right-hand side
    return (y - (vy / denom)[:, None] * z).T.reshape(rhs.shape)
