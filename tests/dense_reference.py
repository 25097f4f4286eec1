"""Dense reference for the transform path: the independent test oracle.

The compact operators are built as read-only N x N matrices ``D = A^-1 B``
straight from their tridiagonal (Dirichlet) or circulant (periodic)
relations, and :func:`step_dense_reference` evaluates one IMEX step from the
rational matrix functions with dense solves.  Its wall term comes from
:func:`dense_walls`, the dropped wall stencil columns solved with the dense
A, so a wrong wall coupling in the library cannot pass.  Only public library
names are used, and the stencils are stated here from the compact relations,
so the oracle does not share the library's symbols or stencil constants.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from imexks import linalg
from imexks.compact_fd import MIN_OPERATOR_POINTS, BoundaryScheme, Grid
from imexks.system import KseParameters, SemiDiscreteKse

# (lower, diagonal, upper) of A and B in A u^(p) = (scale) B u
_D1_LHS = (1.0, 4.0, 1.0)
_D1_RHS = (-1.0, 0.0, 1.0)
_D2_LHS = (1.0, 10.0, 1.0)
_D2_RHS = (1.0, -2.0, 1.0)


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def _circulant(n: int, lo: float, diag: float, hi: float) -> np.ndarray:
    out = np.zeros((n, n))
    idx = np.arange(n)
    out[idx, idx] = diag
    out[idx, (idx - 1) % n] = lo
    out[idx, (idx + 1) % n] = hi
    return out


def _tridiag(n: int, lo: float, diag: float, hi: float) -> np.ndarray:
    out = np.diag(np.full(n, float(diag)))
    out += np.diag(np.full(n - 1, float(lo)), -1)
    out += np.diag(np.full(n - 1, float(hi)), 1)
    return out


def _check_size(grid: Grid, minimum: int, what: str):
    if grid.n_points < minimum:
        raise ValueError(f"{what} needs at least {minimum} points, grid has {grid.n_points}")


def _build(grid: Grid, lhs_stencil, rhs_stencil, scale: float) -> np.ndarray:
    if grid.scheme is BoundaryScheme.PERIODIC:
        n, band = grid.n_points, _circulant
    else:
        n, band = grid.n_points - 2, _tridiag
    return _freeze(linalg.lu_solve(linalg.lu_factor(band(n, *lhs_stencil)),
                                   band(n, *rhs_stencil) * scale))


def build_first_derivative(grid: Grid) -> np.ndarray:
    """u' from u'_{i-1} + 4 u'_i + u'_{i+1} = (3/h)(u_{i+1} - u_{i-1})."""
    _check_size(grid, 6, "first-derivative operator")
    return _build(grid, _D1_LHS, _D1_RHS, 3.0 / grid.h)


def build_second_derivative(grid: Grid) -> np.ndarray:
    """u'' from u''_{i-1} + 10 u''_i + u''_{i+1} = (12/h^2)(u_{i-1} - 2u_i + u_{i+1})."""
    _check_size(grid, MIN_OPERATOR_POINTS, "second-derivative operator")
    return _build(grid, _D2_LHS, _D2_RHS, 12.0 / grid.h**2)


def _wall_columns(grid: Grid, lhs_stencil, rhs_stencil, scale: float) -> np.ndarray:
    """A^-1 E: E holds the terms of the relation at the first and last interior
    node that reach a wall node, moved to the right-hand side, as columns on
    (u_0, u_{N-1}, u^(p)_0, u^(p)_{N-1})."""
    m = grid.n_points - 2
    wall_terms = np.zeros((m, 4))
    wall_terms[0, [0, 2]] = scale * rhs_stencil[0], -lhs_stencil[0]
    wall_terms[-1, [1, 3]] = scale * rhs_stencil[2], -lhs_stencil[2]
    return _freeze(linalg.lu_solve(linalg.lu_factor(_tridiag(m, *lhs_stencil)), wall_terms))


def dense_walls(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The (N-2) x 4 wall couplings (W1, W2) of the Dirichlet D1 and D2 at the nodes."""
    return (_wall_columns(grid, _D1_LHS, _D1_RHS, 3.0 / grid.h),
            _wall_columns(grid, _D2_LHS, _D2_RHS, 12.0 / grid.h**2))


def dense_wall_term(sys: SemiDiscreteKse, t: float) -> np.ndarray:
    """G w(t) = -1/2 W1 (u^2, (u^2)_x) - beta W2 (u_xx, u_xxxx)
    - (alpha W2 + beta D2 W2) (u, u_xx), from the wall data at t."""
    (u, u_x, u_xx, u_xxxx), (alpha, beta) = sys.wall_data(t), (sys.params.alpha, sys.params.beta)
    w1, w2 = dense_walls(sys.grid)
    lifted = w2 @ np.r_[u, u_xx]
    return (-0.5 * w1 @ np.r_[u * u, 2.0 * u * u_x] - beta * w2 @ np.r_[u_xx, u_xxxx]
            - alpha * lifted - beta * build_second_derivative(sys.grid) @ lifted)


def dense_operators(params: KseParameters, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Dense L = alpha D2 + beta D2^2 and D1 from the builders above."""
    d2 = build_second_derivative(grid)
    linear = params.alpha * d2 + params.beta * (d2 @ d2)
    linear.setflags(write=False)
    return linear, build_first_derivative(grid)


_DENSE_REFERENCE_LIMIT = 512


def step_dense_reference(sys: SemiDiscreteKse, u_n: np.ndarray, t_n: float, k: float) -> np.ndarray:
    """One step evaluated directly from the rational matrix functions.

    Builds its own dense L and D1, forms (12 I + 6 kL + (kL)^2) and
    (48 I + 12 kL + (kL)^2) and solves with them densely, evaluating F with
    the dense D1 plus :func:`dense_wall_term`; no partial fractions and no
    transform symbols involved.  Oracle for ``imexks.stepper.step``.
    """
    n = sys.state_size
    if n > _DENSE_REFERENCE_LIMIT:
        raise ValueError(f"dense reference limited to {_DENSE_REFERENCE_LIMIT} unknowns")
    linear, d1 = dense_operators(sys.params, sys.grid)
    u_n = np.asarray(u_n, dtype=float)
    z = k * linear
    z2 = z @ z
    eye = np.eye(n)
    den = linalg.lu_factor(12.0 * eye + 6.0 * z + z2)
    den_h = linalg.lu_factor(48.0 * eye + 12.0 * z + z2)

    def apply_full(num: np.ndarray, vec: np.ndarray) -> np.ndarray:
        return linalg.lu_solve(den, num @ vec)

    def apply_half(num: np.ndarray, vec: np.ndarray) -> np.ndarray:
        return linalg.lu_solve(den_h, num @ vec)

    def rhs(u: np.ndarray, t: float) -> np.ndarray:
        f = -0.5 * (d1 @ (u * u))
        return f if sys.boundary_values is None else f + dense_wall_term(sys, t)

    f_n = rhs(u_n, t_n)
    a_n = apply_half(48.0 * eye - 12.0 * z + z2, u_n) + 24.0 * k * linalg.lu_solve(den_h, f_n)
    f_a = rhs(a_n, t_n + k / 2)

    b_n = (apply_half(48.0 * eye - 12.0 * z + z2, u_n)
           + 24.0 * k * linalg.lu_solve(den_h, f_n)
           + 2.0 * k * apply_half(12.0 * eye + z, f_a - f_n))
    f_b = rhs(b_n, t_n + k / 2)

    r22u = apply_full(12.0 * eye - 6.0 * z + z2, u_n)
    p1f = 12.0 * k * linalg.lu_solve(den, f_n)
    c_n = r22u + p1f + 2.0 * k * apply_full(6.0 * eye + z, f_b - f_n)
    f_c = rhs(c_n, t_n + k)

    return (r22u + p1f
            + k * apply_full(6.0 * eye + z, -3.0 * f_n + 2.0 * f_a + 2.0 * f_b - f_c)
            + 2.0 * k * apply_full(4.0 * eye + z, f_n - f_a - f_b + f_c))
