import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexks.linalg import SingularMatrixError, lu_factor, lu_solve


def test_identity_solve_returns_input():
    fact = lu_factor(np.eye(5))
    b = np.arange(5.0)
    assert np.array_equal(lu_solve(fact, b), b)


def test_diagonal_solve():
    fact = lu_factor(np.diag([2.0, 3.0]))
    x = lu_solve(fact, np.ones(2))
    assert x == pytest.approx([0.5, 1.0 / 3.0], rel=1e-15)


def test_solve_recovers_known_vector():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 8))
    x = rng.standard_normal(8)
    fact = lu_factor(a)
    assert np.abs(lu_solve(fact, a @ x) - x).max() <= 1e-10 * np.abs(x).max()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 10_000))
def test_solve_recovers_vector_for_diagonally_dominant_matrices(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    x = rng.standard_normal(n)
    sol = lu_solve(lu_factor(a), a @ x)
    assert np.abs(sol - x).max() <= 1e-9 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_residual_small_at_scale(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    x = lu_solve(lu_factor(a), b)
    assert np.abs(a @ x - b).max() / np.abs(b).max() <= 1e-10


def test_solve_matrix_rhs_gives_identity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    assert np.abs(lu_solve(lu_factor(a), a) - np.eye(12)).max() <= 1e-10


def test_complex_factorization_of_real_matrix_keeps_solutions_real():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    fact = lu_factor(a.astype(complex))
    x = lu_solve(fact, rng.standard_normal(10).astype(complex))
    assert np.abs(x.imag).max() <= 1e-12


def test_real_factorization_accepts_complex_rhs():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((9, 9)) + 9 * np.eye(9)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    x = lu_solve(lu_factor(a), b)
    assert np.abs(a @ x - b).max() <= 1e-11


def test_singular_matrix_names_pivot():
    a = np.eye(4)
    a[2, 2] = 0.0
    with pytest.raises(SingularMatrixError) as err:
        lu_factor(a)
    assert err.value.pivot_index == 2
    assert "pivot" in str(err.value)


def test_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError):
        lu_factor(np.zeros((3, 3)))


def test_rank_deficient_matrix_is_singular():
    a = np.ones((5, 5))
    with pytest.raises(SingularMatrixError):
        lu_factor(a)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        lu_factor(np.ones((3, 4)))


def test_non_finite_rejected():
    a = np.eye(3)
    a[0, 0] = np.inf
    with pytest.raises(ValueError):
        lu_factor(a)


def test_rhs_dimension_mismatch():
    fact = lu_factor(np.eye(3))
    with pytest.raises(ValueError):
        lu_solve(fact, np.ones(4))

