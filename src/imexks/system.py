"""Semi-discrete Kuramoto-Sivashinsky system U_t + L U = F(U, t).

``L = alpha D2 + beta D4`` collects the stiff linear terms and the quadratic
transport enters explicitly through ``F(U) = -1/2 D1 (U * U)``.  Both are
held on the modes of the real transform that diagonalizes the compact
relations (see compact_fd): O(N) memory, and F costs one transform pair.

* periodic - every node is an unknown and the transform is ``rfft``;
* Dirichlet - the N-2 interior nodes are the unknowns and the transform is
  DST-I.  Wall data enters as a known affine term of F: the compact relations
  at the first and last interior node reach the wall nodes, and the wall
  values of u, (u^2)_x, u_xx and u_xxxx fill those terms in (see
  :meth:`SemiDiscreteKse.wall_term`).  Zero wall data
  (``boundary_values=None``) adds no term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import compact_fd
from .compact_fd import BoundaryScheme, Grid


@dataclass(frozen=True)
class KseParameters:
    """Coefficients of u_xx (alpha) and u_xxxx (beta); both must be nonzero."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha != 0.0):
            raise ValueError("alpha must be finite and nonzero")
        if not (np.isfinite(self.beta) and self.beta != 0.0):
            raise ValueError("beta must be finite and nonzero")


@dataclass(frozen=True, eq=False)
class SemiDiscreteKse:
    """U_t + L U = F(U, t) on the active unknowns.

    ``linear_symbol`` and ``d1_symbol`` (see compact_fd) are L and D1 on the
    modes of the ``forward``/``inverse`` transform pair, and with wall data
    ``wall_matrix`` is G of :meth:`wall_term` on those modes.
    """

    params: KseParameters
    grid: Grid
    linear_symbol: np.ndarray
    d1_symbol: np.ndarray
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    boundary_values: Optional[Callable] = None
    wall_matrix: Optional[np.ndarray] = None

    @property
    def scheme(self) -> BoundaryScheme:
        return self.grid.scheme

    @property
    def state_size(self) -> int:
        if self.scheme is BoundaryScheme.PERIODIC:
            return self.grid.n_points
        return self.grid.n_points - 2

    def active_nodes(self) -> np.ndarray:
        """Positions of the evolving unknowns."""
        if self.scheme is BoundaryScheme.PERIODIC:
            return self.grid.nodes()
        return self.grid.interior_nodes()

    def wall_data(self, t: float) -> np.ndarray:
        """u, u_x, u_xx, u_xxxx (rows) at the left and right wall (columns)."""
        return self.boundary_values(np.array([self.grid.a, self.grid.b]), t)

    def _transformed_wall_term(self, t: float) -> np.ndarray:
        data = self.wall_data(t)
        return self.wall_matrix @ np.concatenate((data.ravel(), (data[0] * data[:2]).ravel()))

    def wall_term(self, t: float) -> np.ndarray:
        """G w(t): what the wall data adds to F at the interior nodes.

        w(t) is the eight wall values of u, u_x, u_xx, u_xxxx followed by u^2
        and u u_x at both walls (G: see ``_wall_matrix``).  Needs wall data.
        """
        return self.inverse(self._transformed_wall_term(t))

    def _transport(self, u: np.ndarray) -> np.ndarray:
        """The transform of -1/2 D1 (U * U)."""
        u = np.asarray(u)
        n = self.state_size
        if u.shape[0] != n:
            raise ValueError(f"state has length {u.shape[0]}, expected {n}")
        square = u * u
        if self.scheme is BoundaryScheme.DIRICHLET:
            square = compact_fd.skew_difference(square)
        return -0.5 * self.d1_symbol * self.forward(square)

    def nonlinear_rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        """F(U, t) = -1/2 D1 (U * U), plus the wall term when there is wall data."""
        f = self.inverse(self._transport(u))
        if self.boundary_values is not None:
            f += self.wall_term(t)
        return f

    def transformed_rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        """The transform of F(U, t), which the stepper works with."""
        f = self._transport(u)
        if self.boundary_values is not None:
            f += self._transformed_wall_term(t)
        return f

    def initial_state(self, initial_condition: Callable) -> np.ndarray:
        """Sample an initial-condition function onto the active unknowns."""
        return np.asarray(initial_condition(self.active_nodes()), dtype=float)

    def full_state(self, u: np.ndarray, t: float) -> np.ndarray:
        """The state on every grid node: Dirichlet walls get the wall data at t."""
        if self.scheme is BoundaryScheme.PERIODIC:
            return np.array(u, dtype=float, copy=True)
        out = np.zeros(self.grid.n_points)
        out[1:-1] = u
        if self.boundary_values is not None:
            out[[0, -1]] = self.wall_data(t)[0]
        return out


def _wall_matrix(params: KseParameters, grid: Grid, s2: np.ndarray) -> np.ndarray:
    """G of :meth:`SemiDiscreteKse.wall_term` on the DST-I modes, one column
    per entry of w(t).

    With W1, W2 the wall couplings of D1 and D2 (see compact_fd), the wall
    terms of -L u + F(u) are -1/2 W1 (u^2, (u^2)_x) - beta W2 (u_xx, u_xxxx)
    - (alpha W2 + beta D2 W2) (u, u_xx), each pair given at both walls:
    (u^2)_x = 2 u u_x, and D2 (D2 u) needs the walls' (u_xx)_xx = u_xxxx.
    On the DST-I modes D2 W2 is the D2 symbol ``s2`` times the transform of W2.
    """
    w1 = compact_fd.dst1(compact_fd.first_derivative_walls(grid))
    w2 = compact_fd.dst1(compact_fd.second_derivative_walls(grid))
    lifted = (params.alpha + params.beta * s2)[:, None] * w2
    g = np.zeros((grid.n_points - 2, 12))
    g[:, 0:2] = -lifted[:, 0:2]                              # u
    g[:, 4:6] = -lifted[:, 2:4] - params.beta * w2[:, 0:2]   # u_xx
    g[:, 6:8] = -params.beta * w2[:, 2:4]                    # u_xxxx
    g[:, 8:10] = -0.5 * w1[:, 0:2]                           # u^2
    g[:, 10:12] = -w1[:, 2:4]                                # u u_x
    g.setflags(write=False)
    return g


def assemble(
    params: KseParameters,
    grid: Grid,
    boundary_values: Optional[Callable] = None,
) -> SemiDiscreteKse:
    """Build L = alpha D2 + beta D4 and the transport operator for the grid.

    ``boundary_values`` is a callable ``g(x, t)`` returning u, u_x, u_xx and
    u_xxxx (rows) at the points ``x`` (columns); Dirichlet systems evaluate it
    at both walls.  ``None`` means zero wall data.  Periodic grids accept no
    boundary data; Dirichlet grids need at least
    ``compact_fd.MIN_OPERATOR_POINTS`` nodes.
    """
    if grid.scheme is BoundaryScheme.PERIODIC and boundary_values is not None:
        raise ValueError("periodic systems take no boundary values")
    if grid.scheme is BoundaryScheme.DIRICHLET and grid.n_points < compact_fd.MIN_OPERATOR_POINTS:
        raise ValueError(f"a Dirichlet grid needs at least {compact_fd.MIN_OPERATOR_POINTS} "
                         f"points, got {grid.n_points}")
    s2 = compact_fd.second_derivative_symbol(grid)
    linear = params.alpha * s2 + params.beta * s2 * s2
    linear.setflags(write=False)
    forward, inverse = compact_fd.transforms(grid)
    return SemiDiscreteKse(
        params=params,
        grid=grid,
        linear_symbol=linear,
        d1_symbol=compact_fd.first_derivative_symbol(grid),
        forward=forward,
        inverse=inverse,
        boundary_values=boundary_values,
        wall_matrix=None if boundary_values is None else _wall_matrix(params, grid, s2),
    )
