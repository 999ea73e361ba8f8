"""Symmetric positive-definite tridiagonal solves for the implicit time step.

A system is its diagonal ``diag`` and its off-diagonal ``off``, which
couples row i with row i + 1 from both sides.  The banded core is LAPACK's
``ptsv`` (an L D L^T factorization, no pivoting); the corner of closed and
periodic curves is folded in with a rank-one Sherman-Morrison correction on
top of it, so one factorization serves all columns.  Each public solve
checks its arguments once, since LAPACK trusts n, and builds one
``float64`` work array ``[d | e | B]``, the layout ``ptsv`` works in, ``B``
in Fortran order: the banded solve with one ``np.concatenate``, the cyclic
solve by writing its diagonals, right-hand sides and correction column
straight into it.  The caller's arrays are never written.  ``_ptsv``, the
one place that calls LAPACK, solves in that array and leaves the solution
in ``B``.  A system that is not positive definite raises
``NumericalFailureError``.

``dptsv`` comes from the OpenBLAS that numpy already links.  ``import
numpy`` loads ``numpy.linalg._umath_linalg``; ``ctypes.CDLL`` on that
library returns its handle, which also resolves the symbols of the
OpenBLAS it depends on.  numpy's wheels export LAPACK with 64-bit integers
(ILP64) under ``scipy_dptsv_64_``, and OpenBLAS64 builds without the
``scipy_`` prefix under ``dptsv_64_``: the ``64_`` suffix is what fixes
the integer arguments at 64 bits, so no other name is looked up.  The
argument types are declared, the integers as pointers to ``c_int64`` and
the arrays as ``c_void_p`` addresses: ctypes passes an undeclared Python
int as a 32-bit C ``int``, which cuts an address short.

Where numpy exports neither name (Windows, numpy on Accelerate, distro
builds of numpy), SciPy's ``dptsv`` solves in views of the same work
array, with its overwrite flags set, and gives the same bits.  The lookup,
and the ``scipy.linalg.lapack`` import where it is needed, run on the
first solve, not at import, and are cached: explicit runs and the
chord-arc tools never solve a system.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidArgumentError, NumericalFailureError

# dptsv with 64-bit integers, as numpy's wheels and OpenBLAS64 export it
_ILP64_PTSV = ("scipy_dptsv_64_", "dptsv_64_")


@functools.cache
def _numpy_ptsv():
    """numpy's LAPACK ``dptsv`` with its arguments declared, or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in _ILP64_PTSV:
        ptsv = getattr(lib, name, None)
        if ptsv is not None:
            int64 = ctypes.POINTER(ctypes.c_int64)
            # N, NRHS, D, E, B, LDB, INFO
            ptsv.argtypes = (int64, int64, *[ctypes.c_void_p] * 3, int64, int64)
            ptsv.restype = None
            return ptsv
    return None


@functools.cache
def _load_flapack():
    """SciPy's LAPACK wrappers, for hosts where numpy exports no ``dptsv``."""
    from scipy.linalg import lapack

    return lapack


def _ptsv(work, n, k):
    """Solve ``[d | e | B]`` in ``work`` in place; return B, its k columns in turn."""
    x = work[2 * n - 1 :]
    ptsv = _numpy_ptsv()
    if ptsv is None:
        d, e = work[:n], work[n : 2 * n - 1]
        *_, info = _load_flapack().dptsv(d, e, x.reshape(k, n).T, overwrite_d=1,
                                         overwrite_e=1, overwrite_b=1)
    else:
        d = ctypes.addressof(ctypes.c_double.from_buffer(work))
        e = d + 8 * n  # 8 bytes per float64
        b = e + 8 * (n - 1)
        status, size = ctypes.c_int64(), ctypes.c_int64(n)
        ptsv(size, ctypes.c_int64(k), d, e, b, size, status)
        info = status.value
    if info < 0:
        raise NumericalFailureError(f"LAPACK ptsv rejected its argument {-info}")
    if info > 0:
        raise NumericalFailureError(
            f"tridiagonal system is not positive definite: pivot {info} is not positive"
        )
    if not np.isfinite(x).all():
        raise NumericalFailureError("tridiagonal solve produced non-finite values")
    return x


def _checked_system(diag, off, rhs, cyclic):
    """The system as arrays, after the checks both LAPACK routes rely on.

    ``ptsv`` trusts n and the column count, and on a complex entry one route
    raises where the other drops the imaginary part.
    """
    name = "cyclic tridiagonal system" if cyclic else "tridiagonal system"
    diag, off, rhs = map(np.asarray, (diag, off, rhs))
    # 1-D diagonals: n rows, and n - 1 couplings, or n with the corner
    if not (diag.ndim == off.ndim == 1 and 0 < rhs.ndim < 3 and len(diag) == len(rhs)
            and len(off) == len(diag) - 1 + cyclic):
        raise InvalidArgumentError(
            f"{name} with diagonals of shapes {diag.shape} and {off.shape} "
            f"does not fit a right-hand side of shape {rhs.shape}"
        )
    if len(diag) < 2 + cyclic:
        raise InvalidArgumentError(f"{name} needs at least {2 + cyclic} rows")
    if rhs.size == 0:
        raise InvalidArgumentError(f"{name} has a right-hand side with no columns")
    dtype = np.result_type(diag, off, rhs)
    if dtype.kind not in "biuf":
        raise InvalidArgumentError(f"{name} must have real entries, not {dtype}")
    return diag, off, rhs


def solve_tridiagonal(diag, off, rhs) -> np.ndarray:
    """Solve a symmetric positive-definite tridiagonal system.

    ``off[i]`` couples x[i] and x[i+1], in rows i and i+1 alike, so ``off``
    has n - 1 entries.  ``rhs`` may be (n,) or (n, k).  Raises
    ``InvalidArgumentError`` on diagonals that are not 1-D or whose sizes do
    not fit, fewer than 2 rows, no column or a non-real entry, and
    ``NumericalFailureError`` on a system that is not positive definite or
    a non-finite result.
    """
    diag, off, rhs = _checked_system(diag, off, rhs, cyclic=False)
    n = len(diag)
    work = np.concatenate((diag, off, rhs.ravel("F")), dtype=np.float64)
    # B holds the columns one after another: the transpose of a C-order view
    return _ptsv(work, n, rhs.size // n).reshape(rhs.shape[::-1]).T


def solve_cyclic_tridiagonal(diag, off, rhs) -> np.ndarray:
    """Solve a symmetric positive-definite cyclic tridiagonal system.

    As ``solve_tridiagonal``, with n entries in ``off``: ``off[-1]``, the
    corner, couples x[n-1] and x[0].  With gamma = -diag[0] and
    u = (gamma, 0, ..., 0, off[-1]), the banded part is the system plus
    u u^T / diag[0], which is positive definite when the system is; one
    banded factorization solves it, and the Sherman-Morrison formula takes
    the rank-one term back out.  Arguments are checked as in
    ``solve_tridiagonal``, with at least 3 rows; ``diag[0] <= 0`` raises
    ``NumericalFailureError``, as no positive-definite system has it.
    """
    diag, off, rhs = _checked_system(diag, off, rhs, cyclic=True)
    n = len(diag)
    k = rhs.size // n
    first, corner = float(diag[0]), float(off[-1])
    if not first > 0.0:
        raise NumericalFailureError(
            f"cyclic tridiagonal system is not positive definite: diag[0] = {first!r}"
        )

    # [d | e | B] as in solve_tridiagonal; B's columns 0..k-1 hold the
    # right-hand sides, column k the vector u of the rank-one update
    work = np.empty(2 * n - 1 + n * (k + 1))
    d = work[:n]
    d[:] = diag
    work[n : 2 * n - 1] = off[:-1]
    b = work[2 * n - 1 :].reshape(k + 1, n)
    b[:k] = rhs.reshape(n, k).T
    d[0] += first  # diag[0] - gamma
    d[-1] += corner * corner / first  # diag[-1] - corner^2 / gamma
    b[k] = 0.0
    b[k, 0] = -first
    b[k, -1] = corner
    _ptsv(work, n, k + 1)
    y, z = b[:k], b[k]

    # v = u / gamma = (1, 0, ..., 0, ratio); the denominator 1 + v.z is
    # positive exactly when the system is positive definite
    ratio = corner / -first
    denom = 1.0 + z[0] + ratio * z[-1]
    if not 1e-300 < denom < np.inf:  # a NaN fails too
        raise NumericalFailureError(
            f"cyclic closure is not positive definite: denominator {denom}"
        )
    vy = y[:, 0] + ratio * y[:, -1]
    # back to the shape of rhs: (n, k), or (n,) for a 1-D right-hand side
    return (y - (vy / denom)[:, None] * z).T.reshape(rhs.shape)
