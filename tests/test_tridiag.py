"""Tridiagonal solvers checked against dense linear algebra, and the two
routes to LAPACK ``gtsv`` against each other."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csflab import tridiag
from csflab.errors import InvalidArgumentError, NumericalFailureError
from csflab.tridiag import solve_cyclic_tridiagonal, solve_tridiagonal

# the default route (numpy's OpenBLAS through ctypes where it exports gtsv)
# and the forced fallback to SciPy's wrapper
PATHS = ("default", "scipy")

needs_numpy_gtsv = pytest.mark.skipif(
    tridiag._numpy_gtsv() is None, reason="numpy exports no ILP64 gtsv here"
)


def on_path(path, solve, *args):
    """``solve(*args)`` with LAPACK taken from ``path``."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "scipy":
            mp.setattr(tridiag, "_numpy_gtsv", lambda: None)
        return solve(*args)


def dense_tridiagonal(lower, diag, upper, cyclic):
    n = len(diag)
    m = np.diag(diag)
    for i in range(1, n):
        m[i, i - 1] = lower[i]
        m[i - 1, i] = upper[i - 1]
    if cyclic:
        m[0, n - 1] = lower[0]
        m[n - 1, 0] = upper[n - 1]
    return m


def random_system(n, rng, cyclic):
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    # diagonally dominant keeps the dense solve a trustworthy oracle
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    rhs = rng.standard_normal((n, 3))
    return lower, diag, upper, rhs


def test_tridiagonal_matches_dense():
    rng = np.random.default_rng(7)
    for n in (4, 17, 100):
        lower, diag, upper, rhs = random_system(n, rng, cyclic=False)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        m = dense_tridiagonal(lower, diag, upper, cyclic=False)
        expected = np.linalg.solve(m, rhs)
        assert np.abs(x - expected).max() < 1e-12


def test_cyclic_matches_dense():
    rng = np.random.default_rng(11)
    for n in (8, 33, 257):
        lower, diag, upper, rhs = random_system(n, rng, cyclic=True)
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        m = dense_tridiagonal(lower, diag, upper, cyclic=True)
        expected = np.linalg.solve(m, rhs)
        assert np.abs(x - expected).max() < 1e-11


def test_single_rhs_vector():
    rng = np.random.default_rng(3)
    lower, diag, upper, _ = random_system(12, rng, cyclic=True)
    rhs = rng.standard_normal(12)
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    m = dense_tridiagonal(lower, diag, upper, cyclic=True)
    assert np.abs(x - np.linalg.solve(m, rhs)).max() < 1e-12
    assert x.shape == (12,)


def test_constant_coefficient_circulant():
    # (I + laplacian) applied to a constant vector keeps it constant
    n = 50
    lower = np.full(n, -1.0)
    upper = np.full(n, -1.0)
    diag = np.full(n, 3.0)
    rhs = np.ones((n, 1))
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert np.abs(x - 1.0).max() < 1e-13


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
def test_singular_system_raises(solve):
    # zero off-diagonals and one zero on the diagonal: row 1 has no pivot
    n = 10
    diag = np.ones(n)
    diag[1] = 0.0
    zeros = np.zeros(n)
    messages = []
    for path in PATHS:
        with pytest.raises(NumericalFailureError, match="singular") as info:
            on_path(path, solve, zeros, diag, zeros, np.ones((n, 2)))
        messages.append(str(info.value))
    # both routes report the same pivot
    assert messages[0] == messages[1]
    if solve is solve_tridiagonal:
        assert messages[0] == "singular tridiagonal system: zero pivot in row 2"


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
@pytest.mark.parametrize("shape", ["1-D", "C", "F"])
def test_solves_leave_their_arguments_unchanged(solve, shape):
    # gtsv can factor and solve in place; the caller's arrays must not be
    rng = np.random.default_rng(5)
    lower, diag, upper, rhs = random_system(16, rng, cyclic=True)
    rhs = {"1-D": rhs[:, 0].copy(), "C": rhs, "F": np.asfortranarray(rhs)}[shape]
    args = (lower, diag, upper, rhs)
    before = [a.copy() for a in args]
    for path in PATHS:
        on_path(path, solve, *args)
        for arg, saved in zip(args, before):
            assert np.array_equal(arg.view(np.int64), saved.view(np.int64)), path


@needs_numpy_gtsv
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 2048),
    columns=st.sampled_from([None, 1, 3, 4]),
    order=st.sampled_from("CF"),
    pivoting=st.booleans(),
)
def test_numpy_gtsv_equals_scipy_gtsv_bit_for_bit(seed, n, columns, order, pivoting):
    from scipy.linalg.lapack import dgtsv

    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    # a diagonal below the sub-diagonal makes gtsv interchange rows
    diag = rng.uniform(-0.1, 0.1, n) if pivoting else 3.0 + rng.uniform(0.0, 1.0, n)
    shape = n if columns is None else (n, columns)
    rhs = np.asarray(rng.standard_normal(shape), order=order)
    *_, expected, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    assert info == 0
    if not np.isfinite(expected).all():
        with pytest.raises(NumericalFailureError, match="non-finite"):
            solve_tridiagonal(lower, diag, upper, rhs)
        return
    x = solve_tridiagonal(lower, diag, upper, rhs)
    assert x.shape == expected.shape and x.flags.f_contiguous
    assert np.array_equal(x.view(np.int64), expected.view(np.int64))


@needs_numpy_gtsv
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 2048),
    columns=st.sampled_from([None, 1, 3, 4]),
    order=st.sampled_from("CF"),
    pivoting=st.booleans(),
)
def test_cyclic_solve_gives_the_same_bits_on_both_routes(seed, n, columns, order, pivoting):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    diag = rng.uniform(-0.1, 0.1, n) if pivoting else 3.0 + rng.uniform(0.0, 1.0, n)
    shape = n if columns is None else (n, columns)
    rhs = np.asarray(rng.standard_normal(shape), order=order)
    # the solution with its layout, or the failure both routes must share
    outcomes = []
    for path in PATHS:
        try:
            x = on_path(path, solve_cyclic_tridiagonal, lower, diag, upper, rhs)
        except NumericalFailureError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((x.shape, x.strides, x.view(np.int64).tobytes()))
    assert outcomes[0] == outcomes[1]
    # a diagonally dominant system always solves
    assert pivoting or outcomes[0][0] == rhs.shape


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
def test_each_solve_checks_its_arguments_once(monkeypatch, solve):
    calls = []
    checked = tridiag._checked_system

    def counting(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(tridiag, "_checked_system", counting)
    lower, diag, upper, rhs = random_system(16, np.random.default_rng(17), cyclic=True)
    for path in PATHS:
        on_path(path, solve, lower, diag, upper, rhs)
    # one check per solve, on each route
    assert len(calls) == len(PATHS)


def test_cyclic_solve_does_not_call_the_public_banded_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_cyclic_tridiagonal called solve_tridiagonal")

    monkeypatch.setattr(tridiag, "solve_tridiagonal", refuse)
    lower, diag, upper, rhs = random_system(16, np.random.default_rng(19), cyclic=True)
    m = dense_tridiagonal(lower, diag, upper, cyclic=True)
    for path in PATHS:
        x = on_path(path, solve_cyclic_tridiagonal, lower, diag, upper, rhs)
        assert np.abs(x - np.linalg.solve(m, rhs)).max() < 1e-12


# (diagonal shapes, right-hand side) of systems no route may take; a shape
# of None stands for a Python float
MISMATCHED = {
    "short-lower": ((9, 10, 10), np.ones((10, 2))),
    "long-upper": ((10, 10, 11), np.ones(10)),
    "short-rhs": ((10, 10, 10), np.ones((9, 2))),
    "3-D-rhs": ((10, 10, 10), np.ones((10, 2, 1))),
    "one-row": ((1, 1, 1), np.ones(1)),
    # numpy's route would refuse the cast, SciPy's drop the imaginary part
    "complex-rhs": ((10, 10, 10), 1j * np.ones(10)),
    # diagonals that are not 1-D
    "scalar-lower": ((None, 10, 10), np.ones(10)),
    "0-d-diag": ((10, (), 10), np.ones(10)),
    "2-D-lower": (((10, 2), 10, 10), np.ones((10, 2))),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "solve, sizes, rhs",
    [pytest.param(solve_tridiagonal, *case, id=name) for name, case in MISMATCHED.items()]
    + [
        pytest.param(solve_cyclic_tridiagonal, *case, id=f"cyclic-{name}")
        for name, case in {**MISMATCHED, "two-rows": ((2, 2, 2), np.ones(2))}.items()
    ],
)
def test_mismatched_systems_are_rejected_before_lapack(path, solve, sizes, rhs):
    # gtsv reads and writes n-sized arrays: a short one must never reach it
    lower, diag, upper = (1.0 if size is None else np.ones(size) for size in sizes)
    with pytest.raises(InvalidArgumentError, match="tridiagonal system"):
        on_path(path, solve, lower, 3.0 * diag, upper, rhs)


# both solvers on an (8, 0) right-hand side; SciPy's dgtsv takes one and
# then crashes the interpreter at exit, so each route gets a fresh one
NO_COLUMNS = """\
import numpy as np
from csflab import tridiag
from csflab.errors import InvalidArgumentError
if {fallback}:
    tridiag._numpy_gtsv = lambda: None
for solve in (tridiag.solve_tridiagonal, tridiag.solve_cyclic_tridiagonal):
    try:
        solve(np.ones(8), np.full(8, 3.0), np.ones(8), np.ones((8, 0)))
    except InvalidArgumentError as err:
        print(err)
"""


@pytest.mark.parametrize("path", PATHS)
def test_right_hand_side_without_columns_is_rejected(path):
    env = dict(os.environ, PYTHONPATH=str(Path(tridiag.__file__).resolve().parents[1]))
    code = NO_COLUMNS.format(fallback=path == "scipy")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "tridiagonal system has a right-hand side with no columns",
        "cyclic tridiagonal system has a right-hand side with no columns",
    ]


@pytest.mark.parametrize("path", PATHS)
def test_cyclic_with_zero_first_diagonal_entry(path):
    # the Sherman-Morrison shift -diag[0] would be zero here, although the
    # system is well conditioned (condition number about 8)
    n = 8
    lower, upper = np.ones(n), np.ones(n)
    diag = np.full(n, 3.0)
    diag[0] = 0.0
    rhs = np.random.default_rng(13).standard_normal((n, 2))
    m = dense_tridiagonal(lower, diag, upper, cyclic=True)
    x = on_path(path, solve_cyclic_tridiagonal, lower, diag, upper, rhs)
    assert np.abs(x - np.linalg.solve(m, rhs)).max() < 1e-13


@pytest.mark.parametrize("path", PATHS)
def test_cyclic_closure_overflow_raises(path):
    # lower[0] / gamma overflows while the banded solve stays finite: the
    # Sherman-Morrison denominator is NaN, and the solve must not return it
    n = 8
    lower, upper, diag = np.zeros(n), np.zeros(n), np.ones(n)
    lower[0], diag[0] = 1e308, 1e-10
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match="cyclic closure"):
            on_path(path, solve_cyclic_tridiagonal, lower, diag, upper, np.ones(n))
