import numpy as np
import pytest

from fdia_lab.errors import DataError, DimensionError, NumericalError, SingularMatrixError
from fdia_lab.numerics import PIVOT_RTOL, as_matrix, as_vector, solve


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(solve(np.eye(3), b), b)


def test_solve_diagonal_hand_case():
    x = solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-14)


def test_solve_singular_reports_rcond():
    with pytest.raises(SingularMatrixError) as err:
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    assert 0.0 <= err.value.rcond <= PIVOT_RTOL
    assert "reciprocal condition number" in str(err.value)


def test_solve_matrix_rhs_equals_column_solves(rng):
    for _ in range(20):
        n = int(rng.integers(2, 13))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=(n, int(rng.integers(1, 5))))
        x = solve(a, b)
        assert x.shape == b.shape
        for j in range(b.shape[1]):
            np.testing.assert_allclose(x[:, j], solve(a, b[:, j]), rtol=1e-12, atol=1e-14)


def near_singular(rng, n, rcond):
    """A random n x n matrix with singular values 1 .. rcond."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return u @ np.diag(np.geomspace(1.0, rcond, n)) @ v.T


@pytest.mark.parametrize("rhs_cols", [None, 3])
def test_solve_singular_and_near_singular_raise(rng, rhs_cols):
    b = np.ones(4) if rhs_cols is None else np.ones((4, rhs_cols))
    singular = np.array([[1.0, 2.0, 0.0, 1.0], [2.0, 4.0, 0.0, 2.0],
                         [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 3.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        solve(singular, b)
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((4, 4)), b)
    a = near_singular(rng, 4, 1e-13)
    assert 1 / np.linalg.cond(a) == pytest.approx(1e-13, rel=1e-2)
    with pytest.raises(SingularMatrixError) as err:
        solve(a, b)
    assert err.value.rcond == pytest.approx(1e-13, rel=1e-2)
    solve(near_singular(rng, 4, 1e-11), b)  # better conditioned: solved


def test_solve_rejects_non_finite_matrix_and_bad_rhs():
    with pytest.raises(NumericalError):
        solve(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(DimensionError):
        solve(np.eye(2), np.ones(3))
    with pytest.raises(DimensionError):
        solve(np.eye(2), np.ones((2, 2, 2)))


def test_solve_requires_square():
    with pytest.raises(DimensionError):
        solve(np.ones((2, 3)), np.ones(2))


def test_solve_roundtrip_random(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        x = rng.normal(size=n)
        np.testing.assert_allclose(solve(a, a @ x), x, atol=1e-8)


def test_solve_residual_tolerance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(DataError):
        as_matrix([[1.0, np.nan]])


def test_as_vector_length_check():
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], length=3)
