"""Tridiagonal solvers checked against dense linear algebra."""

import numpy as np
import pytest

from csflab.errors import NumericalFailureError
from csflab.tridiag import solve_cyclic_tridiagonal, solve_tridiagonal


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
    with pytest.raises(NumericalFailureError, match="singular"):
        solve(zeros, diag, zeros, np.ones((n, 2)))


@pytest.mark.parametrize("solve", [solve_tridiagonal, solve_cyclic_tridiagonal])
@pytest.mark.parametrize("shape", ["1-D", "C", "F"])
def test_solves_leave_their_arguments_unchanged(solve, shape):
    # gtsv can factor and solve in place; the caller's arrays must not be
    rng = np.random.default_rng(5)
    lower, diag, upper, rhs = random_system(16, rng, cyclic=True)
    rhs = {"1-D": rhs[:, 0].copy(), "C": rhs, "F": np.asfortranarray(rhs)}[shape]
    args = (lower, diag, upper, rhs)
    before = [a.copy() for a in args]
    solve(*args)
    for arg, saved in zip(args, before):
        assert np.array_equal(arg.view(np.int64), saved.view(np.int64))
