"""Fourth-order compact finite-difference operators on uniform 1-D grids.

The derivative of order p at the nodes is obtained from an implicit banded
relation ``L u^(p) = M u``.  Two representations are built here:

* periodic grids (N unknowns, x_{N+1} == x_1): L and M are circulant, so the
  discrete Fourier transform diagonalizes ``D = L^-1 M``.  The ``*_symbol``
  functions return its eigenvalues on the ``rfft`` frequencies, which is all
  the periodic solver uses (O(N) memory, O(N log N) to apply);
* dense matrices ``D = L^-1 M`` from the ``build_*`` functions, returned as
  read-only ndarrays.  Dirichlet grids close the ends with one-sided
  relations at the first and last node, so the matrices act on all N nodes
  including the endpoints.  The builders also accept periodic grids, where
  the circulant matrices serve as the independent reference for the symbols.

For homogeneous Dirichlet problems there are also ``interior_*`` builders
that drop the closure rows entirely and act on the N-2 interior nodes with
pure tridiagonal Toeplitz relations.  Those assume the boundary values (and
the boundary entries of the implicit left-hand sides) vanish; they are the
stable choice when nothing has to be fed in from the walls, because the
one-sided closures turn strongly non-normal once they are squared for the
fourth derivative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg


class BoundaryScheme(enum.Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class Grid:
    """Uniform spatial partition of [a, b].

    Periodic grids hold ``n_points`` unknowns x_i = a + (i-1) h with
    h = (b-a)/n_points and x_{n+1} identified with x_1.  Dirichlet grids hold
    ``n_points`` nodes including both endpoints, h = (b-a)/(n_points-1).
    """

    a: float
    b: float
    n_points: int
    scheme: BoundaryScheme

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"invalid domain [{self.a}, {self.b}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def h(self) -> float:
        if self.scheme is BoundaryScheme.PERIODIC:
            return (self.b - self.a) / self.n_points
        return (self.b - self.a) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n_points)

    def interior_nodes(self) -> np.ndarray:
        if self.scheme is not BoundaryScheme.DIRICHLET:
            raise ValueError("interior nodes are only defined for Dirichlet grids")
        return self.nodes()[1:-1]


# Interior three-point stencils (lower, diagonal, upper) of L and M.  The
# scale factor of M (3/h and 12/h^2) is applied by the callers.
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


def _materialize(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return linalg.lu_solve(linalg.lu_factor(lhs), rhs)


# The one-sided D2 closure reaches five nodes in from each wall: the D2
# builders, and with them every Dirichlet system, need this many nodes.
MIN_OPERATOR_POINTS = 7


def _check_size(grid: Grid, minimum: int, what: str):
    if grid.n_points < minimum:
        raise ValueError(f"{what} needs at least {minimum} points, grid has {grid.n_points}")


def _stencil_symbol(stencil, theta: np.ndarray) -> np.ndarray:
    """lo e^{-i theta} + diag + hi e^{i theta}: the eigenvalue of a circulant
    three-point stencil on the Fourier mode exp(i theta j)."""
    lo, diag, hi = stencil
    return diag + (lo + hi) * np.cos(theta) + 1j * (hi - lo) * np.sin(theta)


def _rfft_angles(grid: Grid) -> np.ndarray:
    if grid.scheme is not BoundaryScheme.PERIODIC:
        raise ValueError("Fourier symbols require a periodic grid")
    return 2.0 * np.pi * np.fft.rfftfreq(grid.n_points)


def first_derivative_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of the periodic compact D1 on the ``rfft`` frequencies.

    (3/h) 2i sin(theta) / (4 + 2 cos(theta)) with theta = 2 pi q / N,
    q = 0 .. N//2, so ``irfft(symbol * rfft(u), n=N)`` applies D1 to real u.
    """
    theta = _rfft_angles(grid)
    return _freeze((3.0 / grid.h) * _stencil_symbol(_D1_RHS, theta)
                   / _stencil_symbol(_D1_LHS, theta).real)


def second_derivative_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of the periodic compact D2 on the ``rfft`` frequencies.

    (12/h^2) (2 cos(theta) - 2) / (10 + 2 cos(theta)); real and even in
    theta because the stencils are symmetric.
    """
    theta = _rfft_angles(grid)
    return _freeze((12.0 / grid.h**2) * _stencil_symbol(_D2_RHS, theta).real
                   / _stencil_symbol(_D2_LHS, theta).real)


def build_first_derivative(grid: Grid) -> np.ndarray:
    """u' from u'_{i-1} + 4 u'_i + u'_{i+1} = (3/h)(u_{i+1} - u_{i-1}).

    Dirichlet grids close the ends with the one-sided relation
    4 u'_1 + 12 u'_2 = (3/h)(-34/9 u_1 + 2 u_2 + 2 u_3 - 2/9 u_4) and its
    mirror image, both fourth order.
    """
    _check_size(grid, 6, "first-derivative operator")
    n = grid.n_points
    h = grid.h
    if grid.scheme is BoundaryScheme.PERIODIC:
        lhs = _circulant(n, *_D1_LHS)
        rhs = _circulant(n, *_D1_RHS) * (3.0 / h)
    else:
        lhs = _tridiag(n, *_D1_LHS)
        rhs = _tridiag(n, *_D1_RHS)
        lhs[0, :2] = (4.0, 12.0)
        rhs[0, :4] = (-34.0 / 9.0, 2.0, 2.0, -2.0 / 9.0)
        lhs[-1, -2:] = (12.0, 4.0)
        rhs[-1, -4:] = (2.0 / 9.0, -2.0, -2.0, 34.0 / 9.0)
        rhs *= 3.0 / h
    return _freeze(_materialize(lhs, rhs))


def build_second_derivative(grid: Grid) -> np.ndarray:
    """u'' from u''_{i-1} + 10 u''_i + u''_{i+1} = (12/h^2)(u_{i-1} - 2u_i + u_{i+1}).

    The Dirichlet closure is
    10 u''_1 + 100 u''_2 = (12/h^2)(725/72 u_1 - 190/9 u_2 + 145/12 u_3
    - 10/9 u_4 + 5/72 u_5), mirrored on the right.
    """
    _check_size(grid, MIN_OPERATOR_POINTS, "second-derivative operator")
    n = grid.n_points
    h = grid.h
    if grid.scheme is BoundaryScheme.PERIODIC:
        lhs = _circulant(n, *_D2_LHS)
        rhs = _circulant(n, *_D2_RHS) * (12.0 / h**2)
    else:
        lhs = _tridiag(n, *_D2_LHS)
        rhs = _tridiag(n, *_D2_RHS)
        lhs[0, :2] = (10.0, 100.0)
        rhs[0, :5] = (725.0 / 72.0, -190.0 / 9.0, 145.0 / 12.0, -10.0 / 9.0, 5.0 / 72.0)
        lhs[-1, -2:] = (100.0, 10.0)
        rhs[-1, -5:] = (5.0 / 72.0, -10.0 / 9.0, 145.0 / 12.0, -190.0 / 9.0, 725.0 / 72.0)
        rhs *= 12.0 / h**2
    return _freeze(_materialize(lhs, rhs))


def _interior(grid: Grid, minimum: int, what: str, lhs_stencil, rhs_stencil,
              scale: float) -> np.ndarray:
    if grid.scheme is not BoundaryScheme.DIRICHLET:
        raise ValueError("interior operators require a Dirichlet grid")
    _check_size(grid, minimum, what)
    m = grid.n_points - 2
    return _freeze(_materialize(_tridiag(m, *lhs_stencil), _tridiag(m, *rhs_stencil) * scale))


def build_interior_first_derivative(grid: Grid) -> np.ndarray:
    """First derivative on the interior nodes of a Dirichlet grid.

    Rows are the plain interior relation; boundary couplings are dropped,
    which is exact when u and u' vanish at both walls.
    """
    return _interior(grid, 6, "interior first-derivative operator",
                     _D1_LHS, _D1_RHS, 3.0 / grid.h)


def build_interior_second_derivative(grid: Grid) -> np.ndarray:
    """Second derivative on the interior nodes of a Dirichlet grid (zero walls)."""
    return _interior(grid, MIN_OPERATOR_POINTS, "interior second-derivative operator",
                     _D2_LHS, _D2_RHS, 12.0 / grid.h**2)
