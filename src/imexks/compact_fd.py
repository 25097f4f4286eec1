"""Fourth-order compact finite-difference operators on uniform 1-D grids.

The derivative of order p at the nodes is obtained from an implicit
tridiagonal relation ``A u^(p) = B u``.  A real transform diagonalizes the
relations on both boundary kinds (:func:`transforms`):

* periodic grids (N unknowns, x_{N+1} == x_1): A and B are circulant and
  ``rfft`` diagonalizes them;
* Dirichlet grids: the relation holds at the N-2 interior nodes, with the
  terms that reach a wall node dropped.  The truncated symmetric stencils
  are polynomials in the (1, 0, 1) matrix, which DST-I, one phase-shifted
  zero-padded ``rfft``, diagonalizes.

What differs between the two kinds is decided here: the wall count
:attr:`BoundaryScheme.walls` and the transforms.  The ``*_symbol``
functions return the eigenvalues on the transform's modes, and
:func:`transforms` also builds the transport x -> (transform of
-1/2 D1 x); no N x N matrix is formed.  The dense ``D = A^-1 B`` lives only
in the test suite (``tests/dense_reference.py``), as the independent oracle
for them.

The dropped wall terms are the ``*_walls`` couplings W, given on the DST-I
modes: with the wall values u_0, u_{N-1} and the walls' derivatives of order
p known, the relation at every interior node, the first and the last
included, reads ``u^(p) = D u + W (u_0, u_{N-1}, u^(p)_0, u^(p)_{N-1})``.
Zero wall data makes the term vanish.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


class BoundaryScheme(enum.Enum):
    """How a grid ends: ``walls`` wall nodes at each end carry given data,
    the rest are the unknowns."""

    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"

    @property
    def walls(self) -> int:
        return 0 if self is BoundaryScheme.PERIODIC else 1


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
        if not isinstance(self.scheme, BoundaryScheme):
            raise ValueError(f"scheme must be a BoundaryScheme, got {self.scheme!r}")
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"invalid domain [{self.a}, {self.b}]")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n_points - self.scheme.walls)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n_points)


# Interior three-point stencils (lower, diagonal, upper) of A and B.  The
# scale factor of B (3/h and 12/h^2) is applied by the callers.
_D1_LHS = (1.0, 4.0, 1.0)
_D1_RHS = (-1.0, 0.0, 1.0)
_D2_LHS = (1.0, 10.0, 1.0)
_D2_RHS = (1.0, -2.0, 1.0)


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


# Smallest Dirichlet grid `system.assemble` (and so the CLI) accepts: D4 =
# D2 D2 obeys the five-point relation A^2 D4 u = B^2 u, and 7 nodes is the
# fewest on which that relation reaches no wall node at some interior node.
# The operators on the transform modes themselves are defined on any grid.
MIN_OPERATOR_POINTS = 7


def _stencil_symbol(stencil, theta: np.ndarray) -> np.ndarray:
    """lo e^{-i theta} + diag + hi e^{i theta}: the eigenvalue of a circulant
    three-point stencil on the Fourier mode exp(i theta j), and of a truncated
    symmetric one on the sine mode sin(theta j) at a DST-I angle."""
    lo, diag, hi = stencil
    symbol = diag + (lo + hi) * np.cos(theta)
    return symbol if hi == lo else symbol + 1j * (hi - lo) * np.sin(theta)


def mode_angles(grid: Grid) -> np.ndarray:
    """The mode angles 2 pi q / P of an ``rfft`` of length P: every frequency
    of the N nodes (periodic, P = N), or q = 1 .. m of the odd extension of
    the m = N-2 interior nodes (Dirichlet, P = 2m+2), the DST-I angles
    q pi / (m+1)."""
    walls = grid.scheme.walls
    period = (1 + walls) * (grid.n_points - walls)
    return 2.0 * np.pi * np.fft.rfftfreq(period)[walls:period // 2 + 1 - walls]


def first_derivative_symbol(grid: Grid) -> np.ndarray:
    """The compact D1 on the transform modes, (3/h) 2i sin(theta) / (4 + 2 cos(theta)).

    On Dirichlet grids the skew B takes sines to cosines, so D1 is not
    diagonal in DST-I: the DST-I of D1 x is i times this symbol times the
    cosine sums of x (see :func:`transforms`).
    """
    theta = mode_angles(grid)
    return _freeze((3.0 / grid.h) * _stencil_symbol(_D1_RHS, theta)
                   / _stencil_symbol(_D1_LHS, theta).real)


def second_derivative_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of the compact D2 on the transform modes.

    (12/h^2) (2 cos(theta) - 2) / (10 + 2 cos(theta)); real because the
    stencils are symmetric.
    """
    theta = mode_angles(grid)
    return _freeze((12.0 / grid.h**2) * _stencil_symbol(_D2_RHS, theta).real
                   / _stencil_symbol(_D2_LHS, theta).real)


def _sine_transform(phase: np.ndarray) -> Callable:
    """x -> Im(phase * rfft(x, 2m+2)[1:m+1]) for m = len(phase)."""
    size = 2 * len(phase) + 2
    return lambda x: (phase * np.fft.rfft(x, size)[1:-1]).imag


def transforms(grid: Grid) -> Tuple[Callable, Callable, Callable]:
    """(forward, inverse, transport) on 1-D states.

    forward/inverse are ``rfft``/``irfft`` (periodic) or DST-I (Dirichlet), and
    transport takes x to the forward transform of -1/2 D1 x.

    DST-I, X_j = sum_n x_n sin(theta_j n), is Im(-e^{-i theta} rfft(x, 2m+2)[1:m+1]):
    ``rfft(x, 2m+2)[j]`` is e^{i theta_j} (C_j - i S_j), C and S the cosine and
    sine sums.  DST-I squared is (m+1)/2 times the identity, so the inverse
    folds in 2/(m+1).  The DST-I of the skew difference B x is -2 sin(theta) C,
    so that of D1 x is i s C for the D1 symbol s, and the transport is the
    same Im(...) with the phase times -s/2.
    """
    transport = -0.5 * first_derivative_symbol(grid)
    if not grid.scheme.walls:
        return (np.fft.rfft, functools.partial(np.fft.irfft, n=grid.n_points),
                lambda x: transport * np.fft.rfft(x))
    shift = -np.exp(-1j * mode_angles(grid))
    return (_sine_transform(shift), _sine_transform(shift * (2.0 / (len(shift) + 1))),
            _sine_transform(shift * transport))


def _walls(grid: Grid, lhs_stencil, rhs_stencil, scale: float) -> np.ndarray:
    if not grid.scheme.walls:
        raise ValueError("wall couplings require a Dirichlet grid")
    # A wall node enters the relation at the first (last) interior node, and so
    # the interior through the first (last) column of A^-1.  DST-I takes e_1 to
    # sin(theta_j), e_m to (-1)^(j+1) sin(theta_j), and A^-1 to 1 / A(theta).
    theta = mode_angles(grid)
    first = np.sin(theta) / _stencil_symbol(lhs_stencil, theta)
    last = first * (-1.0) ** np.arange(len(theta))
    walls = np.outer(first, (scale * rhs_stencil[0], 0.0, -lhs_stencil[0], 0.0))
    walls += np.outer(last, (0.0, scale * rhs_stencil[2], 0.0, -lhs_stencil[2]))
    return _freeze(walls)


def first_derivative_walls(grid: Grid) -> np.ndarray:
    """The (N-2) x 4 wall coupling of the Dirichlet D1 on (u_0, u_{N-1}, u'_0, u'_{N-1}),
    on the DST-I modes."""
    return _walls(grid, _D1_LHS, _D1_RHS, 3.0 / grid.h)


def second_derivative_walls(grid: Grid) -> np.ndarray:
    """The (N-2) x 4 wall coupling of the Dirichlet D2 on (u_0, u_{N-1}, u''_0, u''_{N-1}),
    on the DST-I modes."""
    return _walls(grid, _D2_LHS, _D2_RHS, 12.0 / grid.h**2)
