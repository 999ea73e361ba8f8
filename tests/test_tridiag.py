"""Symmetric tridiagonal solvers checked against dense linear algebra, and
the two routes to LAPACK ``ptsv`` against each other."""

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

# the default route (numpy's OpenBLAS through ctypes where it exports ptsv)
# and the forced fallback to SciPy's wrapper
PATHS = ("default", "scipy")

needs_numpy_ptsv = pytest.mark.skipif(
    tridiag._numpy_ptsv() is None, reason="numpy exports no ILP64 ptsv here"
)


def on_path(path, solve, *args):
    """``solve(*args)`` with LAPACK taken from ``path``."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "scipy":
            mp.setattr(tridiag, "_numpy_ptsv", lambda: None)
        return solve(*args)


def dense_tridiagonal(diag, off, cyclic):
    n = len(diag)
    m = np.diag(diag)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = off[i]
    if cyclic:
        m[0, n - 1] = m[n - 1, 0] = off[n - 1]
    return m


def random_system(n, rng, cyclic):
    off = rng.uniform(-1.0, 1.0, n if cyclic else n - 1)
    # diagonally dominant with a positive diagonal: positive definite, and
    # the dense solve a trustworthy oracle
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    rhs = rng.standard_normal((n, 3))
    return diag, off, rhs


def test_tridiagonal_matches_dense():
    rng = np.random.default_rng(7)
    for n in (4, 17, 100):
        diag, off, rhs = random_system(n, rng, cyclic=False)
        x = solve_tridiagonal(diag, off, rhs)
        m = dense_tridiagonal(diag, off, cyclic=False)
        expected = np.linalg.solve(m, rhs)
        assert np.abs(x - expected).max() < 1e-12


def test_cyclic_matches_dense():
    rng = np.random.default_rng(11)
    for n in (8, 33, 257):
        diag, off, rhs = random_system(n, rng, cyclic=True)
        x = solve_cyclic_tridiagonal(diag, off, rhs)
        m = dense_tridiagonal(diag, off, cyclic=True)
        expected = np.linalg.solve(m, rhs)
        assert np.abs(x - expected).max() < 1e-11


def test_single_rhs_vector():
    rng = np.random.default_rng(3)
    diag, off, _ = random_system(12, rng, cyclic=True)
    rhs = rng.standard_normal(12)
    x = solve_cyclic_tridiagonal(diag, off, rhs)
    m = dense_tridiagonal(diag, off, cyclic=True)
    assert np.abs(x - np.linalg.solve(m, rhs)).max() < 1e-12
    assert x.shape == (12,)


def test_constant_coefficient_circulant():
    # (I + laplacian) applied to a constant vector keeps it constant
    n = 50
    off = np.full(n, -1.0)
    diag = np.full(n, 3.0)
    rhs = np.ones((n, 1))
    x = solve_cyclic_tridiagonal(diag, off, rhs)
    assert np.abs(x - 1.0).max() < 1e-13


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
def test_singular_system_raises(solve):
    # zero off-diagonals and one zero on the diagonal: row 1 has no pivot
    n = 10
    diag = np.ones(n)
    diag[1] = 0.0
    off = np.zeros(n if solve is solve_cyclic_tridiagonal else n - 1)
    messages = []
    for path in PATHS:
        with pytest.raises(NumericalFailureError, match="not positive definite") as info:
            on_path(path, solve, diag, off, np.ones((n, 2)))
        messages.append(str(info.value))
    # both routes report the same pivot
    assert messages[0] == messages[1]
    assert messages[0] == "tridiagonal system is not positive definite: pivot 2 is not positive"


@pytest.mark.parametrize("cyclic", [False, True], ids=["banded", "cyclic"])
@pytest.mark.parametrize("row", [0, 5, 15])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_a_diagonal_that_is_not_positive_raises_on_both_routes(cyclic, row, value):
    # x^T A x = diag[row] <= 0 at x = e_row: no positive-definite system has it
    diag, off, rhs = random_system(16, np.random.default_rng(23), cyclic)
    diag[row] = value
    solve = solve_cyclic_tridiagonal if cyclic else solve_tridiagonal
    messages = []
    for path in PATHS:
        with pytest.raises(NumericalFailureError, match="not positive definite") as info:
            on_path(path, solve, diag, off, rhs)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
@pytest.mark.parametrize("shape", ["1-D", "C", "F"])
def test_solves_leave_their_arguments_unchanged(solve, shape):
    # ptsv factors and solves in place; the caller's arrays must not be
    # written
    rng = np.random.default_rng(5)
    diag, off, rhs = random_system(16, rng, cyclic=solve is solve_cyclic_tridiagonal)
    rhs = {"1-D": rhs[:, 0].copy(), "C": rhs, "F": np.asfortranarray(rhs)}[shape]
    args = (diag, off, rhs)
    before = [a.copy() for a in args]
    for path in PATHS:
        on_path(path, solve, *args)
        for arg, saved in zip(args, before):
            assert np.array_equal(arg.view(np.int64), saved.view(np.int64)), path


def random_case(seed, n, columns, order, definite, cyclic):
    """A symmetric system, positive definite or (when not ``definite``)
    with a diagonal in (-0.1, 0.1) that mostly is not."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n if cyclic else n - 1)
    diag = 3.0 + rng.uniform(0.0, 1.0, n) if definite else rng.uniform(-0.1, 0.1, n)
    shape = n if columns is None else (n, columns)
    return diag, off, np.asarray(rng.standard_normal(shape), order=order)


SYSTEMS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 2048),
    columns=st.sampled_from([None, 1, 3, 4]),
    order=st.sampled_from("CF"),
    definite=st.booleans(),
)


@needs_numpy_ptsv
@settings(max_examples=80, deadline=None)
@given(**SYSTEMS)
def test_numpy_ptsv_equals_scipy_ptsv_bit_for_bit(seed, n, columns, order, definite):
    from scipy.linalg.lapack import dptsv

    diag, off, rhs = random_case(seed, n, columns, order, definite, cyclic=False)
    *_, expected, info = dptsv(diag, off, rhs)
    if info > 0:
        # the same pivot, as an error
        message = f"not positive definite: pivot {info} is not positive"
        with pytest.raises(NumericalFailureError, match=message):
            solve_tridiagonal(diag, off, rhs)
        return
    assert info == 0
    if not np.isfinite(expected).all():
        with pytest.raises(NumericalFailureError, match="non-finite"):
            solve_tridiagonal(diag, off, rhs)
        return
    x = solve_tridiagonal(diag, off, rhs)
    assert x.shape == expected.shape and x.flags.f_contiguous
    assert np.array_equal(x.view(np.int64), expected.view(np.int64))


@needs_numpy_ptsv
@settings(max_examples=80, deadline=None)
@given(**SYSTEMS)
def test_cyclic_solve_gives_the_same_bits_on_both_routes(seed, n, columns, order, definite):
    diag, off, rhs = random_case(seed, n, columns, order, definite, cyclic=True)
    # the solution with its layout, or the failure both routes must share
    outcomes = []
    for path in PATHS:
        try:
            x = on_path(path, solve_cyclic_tridiagonal, diag, off, rhs)
        except NumericalFailureError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((x.shape, x.strides, x.view(np.int64).tobytes()))
    assert outcomes[0] == outcomes[1]
    # a diagonally dominant system always solves
    assert not definite or outcomes[0][0] == rhs.shape


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
def test_each_solve_checks_its_arguments_once(monkeypatch, solve):
    calls = []
    checked = tridiag._checked_system

    def counting(*args, **kwargs):
        calls.append(args)
        return checked(*args, **kwargs)

    monkeypatch.setattr(tridiag, "_checked_system", counting)
    cyclic = solve is solve_cyclic_tridiagonal
    diag, off, rhs = random_system(16, np.random.default_rng(17), cyclic)
    for path in PATHS:
        on_path(path, solve, diag, off, rhs)
    # one check per solve, on each route
    assert len(calls) == len(PATHS)


def test_cyclic_solve_does_not_call_the_public_banded_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_cyclic_tridiagonal called solve_tridiagonal")

    monkeypatch.setattr(tridiag, "solve_tridiagonal", refuse)
    diag, off, rhs = random_system(16, np.random.default_rng(19), cyclic=True)
    m = dense_tridiagonal(diag, off, cyclic=True)
    for path in PATHS:
        x = on_path(path, solve_cyclic_tridiagonal, diag, off, rhs)
        assert np.abs(x - np.linalg.solve(m, rhs)).max() < 1e-12


# (diagonal shape, off-diagonal shape, right-hand side) of systems no route
# may take.  The off-diagonal shapes are the banded solve's; the cyclic
# solve takes one coupling more, so a size there is one larger and fits no
# better.  The off-diagonal is both the lower and the upper band of the
# symmetric matrix, and the ids name it by either; a shape of None stands
# for a Python float.
MISMATCHED = {
    "short-lower": (10, 8, np.ones((10, 2))),
    "long-upper": (10, 11, np.ones(10)),
    "short-rhs": (10, 9, np.ones((9, 2))),
    "3-D-rhs": (10, 9, np.ones((10, 2, 1))),
    "one-row": (1, 0, np.ones(1)),
    # numpy's route would refuse the cast, SciPy's drop the imaginary part
    "complex-rhs": (10, 9, 1j * np.ones(10)),
    # diagonals that are not 1-D
    "scalar-lower": (10, None, np.ones(10)),
    "0-d-diag": ((), 9, np.ones(10)),
    "2-D-lower": (10, (9, 2), np.ones((10, 2))),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "solve, diag_shape, off_shape, rhs",
    [pytest.param(solve_tridiagonal, *case, id=name) for name, case in MISMATCHED.items()]
    + [
        pytest.param(solve_cyclic_tridiagonal, *case, id=f"cyclic-{name}")
        for name, case in {**MISMATCHED, "two-rows": (2, 1, np.ones(2))}.items()
    ],
)
def test_mismatched_systems_are_rejected_before_lapack(path, solve, diag_shape, off_shape, rhs):
    # ptsv reads and writes n-sized arrays: a short one must never reach it
    if isinstance(off_shape, int) and solve is solve_cyclic_tridiagonal:
        off_shape += 1
    off = 1.0 if off_shape is None else np.ones(off_shape)
    with pytest.raises(InvalidArgumentError, match="tridiagonal system"):
        on_path(path, solve, np.full(diag_shape, 3.0), off, rhs)


# both solvers on an (8, 0) right-hand side; SciPy's dptsv may take one and
# then crash the interpreter at exit, so each route gets a fresh one
NO_COLUMNS = """\
import numpy as np
from csflab import tridiag
from csflab.errors import InvalidArgumentError
if {fallback}:
    tridiag._numpy_ptsv = lambda: None
for solve, k in ((tridiag.solve_tridiagonal, 7), (tridiag.solve_cyclic_tridiagonal, 8)):
    try:
        solve(np.full(8, 3.0), np.ones(k), np.ones((8, 0)))
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
    # the Sherman-Morrison shift -diag[0] would be zero here; a zero
    # diag[0] is not positive definite, so the solve refuses the system
    # before LAPACK sees it
    n = 8
    off = np.ones(n)
    diag = np.full(n, 3.0)
    diag[0] = 0.0
    rhs = np.random.default_rng(13).standard_normal((n, 2))
    with pytest.raises(NumericalFailureError) as info:
        on_path(path, solve_cyclic_tridiagonal, diag, off, rhs)
    assert str(info.value) == (
        "cyclic tridiagonal system is not positive definite: diag[0] = 0.0"
    )


@pytest.mark.parametrize("path", PATHS)
def test_cyclic_closure_overflow_raises(path):
    # off[-1] / gamma overflows while the banded solve stays finite: the
    # Sherman-Morrison denominator is NaN, and the solve must not return it
    n = 8
    off, diag = np.zeros(n), np.ones(n)
    off[-1], diag[0] = 1e308, 1e-10
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match="cyclic closure"):
            on_path(path, solve_cyclic_tridiagonal, diag, off, np.ones(n))


@pytest.mark.parametrize("path", PATHS)
def test_cyclic_corner_that_breaks_definiteness_raises(path):
    # every diagonal entry is positive and the banded part is positive
    # definite, but the corner 2 couples x[0] and x[-1] more strongly than
    # their diagonal entries 1 allow: the Sherman-Morrison denominator
    # 1 - (1/2 + 4/5) is negative
    off, diag = np.zeros(8), np.ones(8)
    off[-1] = 2.0
    with pytest.raises(NumericalFailureError) as info:
        on_path(path, solve_cyclic_tridiagonal, diag, off, np.ones(8))
    assert str(info.value).startswith("cyclic closure is not positive definite")
