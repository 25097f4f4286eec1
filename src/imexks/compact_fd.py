"""Fourth-order compact finite-difference operators on uniform 1-D grids.

The derivative of order p at the nodes is obtained from an implicit
tridiagonal relation ``A u^(p) = B u``.  A real transform diagonalizes the
relations on both boundary kinds (:func:`transforms`):

* periodic grids (N unknowns, x_{N+1} == x_1): A and B are circulant and
  ``rfft`` diagonalizes them;
* Dirichlet grids: the relation holds at the N-2 interior nodes, with the
  terms that reach a wall node dropped.  The truncated symmetric stencils
  are polynomials in the (1, 0, 1) matrix, which DST-I diagonalizes; the
  skew B of D1 is applied by slicing (:func:`skew_difference`).

The ``*_symbol`` functions return the eigenvalues on the transform's modes;
no N x N matrix is formed.  The dense ``D = A^-1 B`` lives only in the test
suite (``tests/dense_reference.py``), as the independent oracle for them.

The dropped wall terms are the ``*_walls`` matrices W: with the wall values
u_0, u_{N-1} and the walls' derivatives of order p known, the relation at
every interior node, the first and the last included, reads
``u^(p) = D u + W (u_0, u_{N-1}, u^(p)_0, u^(p)_{N-1})``.  Zero wall data
makes the term vanish.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


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


# Interior three-point stencils (lower, diagonal, upper) of A and B.  The
# scale factor of B (3/h and 12/h^2) is applied by the callers.
_D1_LHS = (1.0, 4.0, 1.0)
_D1_RHS = (-1.0, 0.0, 1.0)
_D2_LHS = (1.0, 10.0, 1.0)
_D2_RHS = (1.0, -2.0, 1.0)


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


# Smallest Dirichlet grid `system.assemble` (and so the CLI) accepts, and
# the smallest grid of the D2 wall couplings: below it the wall couplings or
# the interior operators have too few nodes.
MIN_OPERATOR_POINTS = 7


def _check_size(grid: Grid, minimum: int, what: str):
    if grid.n_points < minimum:
        raise ValueError(f"{what} needs at least {minimum} points, grid has {grid.n_points}")


def _stencil_symbol(stencil, theta: np.ndarray) -> np.ndarray:
    """lo e^{-i theta} + diag + hi e^{i theta}: the eigenvalue of a circulant
    three-point stencil on the Fourier mode exp(i theta j), and of a truncated
    symmetric one on the sine mode sin(theta j) at a DST-I angle."""
    lo, diag, hi = stencil
    return diag + (lo + hi) * np.cos(theta) + 1j * (hi - lo) * np.sin(theta)


def _angles(grid: Grid) -> np.ndarray:
    """The mode angles: the ``rfft`` frequencies 2 pi q / N (periodic) or
    the DST-I angles j pi / (m+1), j = 1 .. m, on the m = N-2 interior nodes."""
    if grid.scheme is BoundaryScheme.PERIODIC:
        return 2.0 * np.pi * np.fft.rfftfreq(grid.n_points)
    m = grid.n_points - 2
    return np.pi * np.arange(1, m + 1) / (m + 1)


def first_derivative_symbol(grid: Grid) -> np.ndarray:
    """The compact D1 on the transform modes.

    Periodic: the eigenvalues (3/h) 2i sin(theta) / (4 + 2 cos(theta)).
    Dirichlet: those of (3/h) A^-1, (3/h) / (4 + 2 cos(theta)), since the
    skew B is not diagonal in DST-I: D1 u = ``idst1(symbol * dst1(skew_difference(u)))``.
    """
    theta = _angles(grid)
    lhs = _stencil_symbol(_D1_LHS, theta).real
    if grid.scheme is BoundaryScheme.PERIODIC:
        return _freeze((3.0 / grid.h) * _stencil_symbol(_D1_RHS, theta) / lhs)
    return _freeze((3.0 / grid.h) / lhs)


def second_derivative_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of the compact D2 on the transform modes.

    (12/h^2) (2 cos(theta) - 2) / (10 + 2 cos(theta)); real because the
    stencils are symmetric.
    """
    theta = _angles(grid)
    return _freeze((12.0 / grid.h**2) * _stencil_symbol(_D2_RHS, theta).real
                   / _stencil_symbol(_D2_LHS, theta).real)


def skew_difference(u: np.ndarray) -> np.ndarray:
    """u_{i+1} - u_{i-1} at the interior nodes of a Dirichlet grid, zero walls."""
    out = np.empty_like(u)
    out[0], out[-1] = u[1], -u[-2]
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    return out


def dst1(x: np.ndarray) -> np.ndarray:
    """DST-I along axis 0: X_j = sum_n x_n sin(pi j n / (m+1)), j, n = 1 .. m.

    The imaginary part of the ``rfft`` of the odd extension [0, x, 0, -x
    reversed] is -2 X.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    odd = np.zeros((2 * m + 2,) + x.shape[1:])
    odd[1:m + 1] = x
    odd[m + 2:] = -x[::-1]
    return -0.5 * np.fft.rfft(odd, axis=0)[1:m + 1].imag


def idst1(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dst1`: DST-I squared is (m+1)/2 times the identity."""
    return dst1(coeffs) * (2.0 / (len(coeffs) + 1))


def transforms(grid: Grid) -> Tuple[Callable, Callable]:
    """(forward, inverse): ``rfft``/``irfft`` (periodic) or DST-I (Dirichlet)."""
    if grid.scheme is BoundaryScheme.PERIODIC:
        return np.fft.rfft, functools.partial(np.fft.irfft, n=grid.n_points)
    return dst1, idst1


def _walls(grid: Grid, lhs_stencil, rhs_stencil, scale: float) -> np.ndarray:
    if grid.scheme is not BoundaryScheme.DIRICHLET:
        raise ValueError("wall couplings require a Dirichlet grid")
    # A wall node enters the relation at the first (last) interior node, and so
    # the interior through the first (last) column of A^-1.  For A = (1, d, 1)
    # that column is x_i ~ r^i - r^(2m-i) (x_m = 0, |r| < 1); the last reversed.
    m, d = grid.n_points - 2, lhs_stencil[1]
    r = (np.sqrt(d * d - 4.0) - d) / 2.0
    i = np.arange(m + 1)
    x = r**i - r**(2 * m - i)
    first = x[:m] / (d * x[0] + x[1])
    walls = np.outer(first, (scale * rhs_stencil[0], 0.0, -lhs_stencil[0], 0.0))
    walls += np.outer(first[::-1], (0.0, scale * rhs_stencil[2], 0.0, -lhs_stencil[2]))
    return _freeze(walls)


def first_derivative_walls(grid: Grid) -> np.ndarray:
    """The (N-2) x 4 wall coupling of the Dirichlet D1 on (u_0, u_{N-1}, u'_0, u'_{N-1})."""
    _check_size(grid, 6, "first-derivative operator")
    return _walls(grid, _D1_LHS, _D1_RHS, 3.0 / grid.h)


def second_derivative_walls(grid: Grid) -> np.ndarray:
    """The (N-2) x 4 wall coupling of the Dirichlet D2 on (u_0, u_{N-1}, u''_0, u''_{N-1})."""
    _check_size(grid, MIN_OPERATOR_POINTS, "second-derivative operator")
    return _walls(grid, _D2_LHS, _D2_RHS, 12.0 / grid.h**2)
