"""Semi-discrete Kuramoto-Sivashinsky system U_t + L U = F(U, t).

``L = alpha D2 + beta D4`` collects the stiff linear terms and the quadratic
transport enters explicitly through ``F(U) = -1/2 D1 (U * U)``.

Boundary handling comes in two kinds, chosen by the grid scheme:

* periodic - every node is an unknown and the operators are held as their
  Fourier symbols: ``linear_symbol`` and ``d1_symbol`` on the ``rfft``
  frequencies, O(N) memory, and F costs one FFT pair;
* Dirichlet - the N-2 interior nodes are the unknowns, with the dense
  interior compact operators ``linear_matrix`` and ``d1_matrix``.  Wall data
  enters as a known affine term of F: the compact relations at the first and
  last interior node reach the wall nodes, and the wall values of u, (u^2)_x,
  u_xx and u_xxxx fill those terms in (see :meth:`SemiDiscreteKse.wall_term`).
  Zero wall data (``boundary_values=None``) adds no term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

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

    Periodic systems carry ``linear_symbol`` and ``d1_symbol`` (eigenvalues
    of L and D1 on the ``rfft`` frequencies); Dirichlet systems carry the
    dense ``linear_matrix`` and ``d1_matrix`` on the interior nodes, and with
    wall data the ``wall_matrix`` G of :meth:`wall_term`.
    """

    params: KseParameters
    grid: Grid
    linear_matrix: Optional[np.ndarray] = None
    d1_matrix: Optional[np.ndarray] = None
    linear_symbol: Optional[np.ndarray] = None
    d1_symbol: Optional[np.ndarray] = None
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

    def wall_term(self, t: float) -> np.ndarray:
        """G w(t): what the wall data adds to F at the interior nodes.

        w(t) is the eight wall values of u, u_x, u_xx, u_xxxx followed by u^2
        and u u_x at both walls (G: see ``_wall_matrix``).  Needs wall data.
        """
        data = self.wall_data(t)
        return self.wall_matrix @ np.concatenate((data.ravel(), (data[0] * data[:2]).ravel()))

    def nonlinear_rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        """F(U, t) = -1/2 D1 (U * U), plus the wall term when there is wall data."""
        u = np.asarray(u)
        n = self.state_size
        if u.shape[0] != n:
            raise ValueError(f"state has length {u.shape[0]}, expected {n}")
        if self.scheme is BoundaryScheme.PERIODIC:
            return -0.5 * np.fft.irfft(self.d1_symbol * np.fft.rfft(u * u), n=n)
        f = -0.5 * (self.d1_matrix @ (u * u))
        if self.boundary_values is not None:
            f += self.wall_term(t)
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


def _linear(params: KseParameters, d2: np.ndarray) -> np.ndarray:
    linear = params.alpha * d2 + params.beta * (d2 @ d2)
    linear.setflags(write=False)
    return linear


def dense_operators(params: KseParameters, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Dense L = alpha D2 + beta D2^2 and D1 from the compact_fd builders.

    Dirichlet systems run on these interior matrices; on periodic grids they
    are the independent reference for the Fourier symbols.
    """
    return (_linear(params, compact_fd.build_second_derivative(grid)),
            compact_fd.build_first_derivative(grid))


def _wall_matrix(params: KseParameters, grid: Grid, d2: np.ndarray) -> np.ndarray:
    """G of :meth:`SemiDiscreteKse.wall_term`, one column per entry of w(t).

    With W1, W2 the wall couplings of D1 and D2 (see compact_fd), the wall
    terms of -L u + F(u) are -1/2 W1 (u^2, (u^2)_x) - beta W2 (u_xx, u_xxxx)
    - (alpha W2 + beta D2 W2) (u, u_xx), each pair given at both walls:
    (u^2)_x = 2 u u_x, and D2 (D2 u) needs the walls' (u_xx)_xx = u_xxxx.
    """
    w1 = compact_fd.first_derivative_walls(grid)
    w2 = compact_fd.second_derivative_walls(grid)
    lifted = params.alpha * w2 + params.beta * (d2 @ w2)
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
    boundary data and get the Fourier symbols of L and D1 instead of matrices.
    """
    if grid.scheme is BoundaryScheme.PERIODIC:
        if boundary_values is not None:
            raise ValueError("periodic systems take no boundary values")
        s2 = compact_fd.second_derivative_symbol(grid)
        linear = params.alpha * s2 + params.beta * s2 * s2
        linear.setflags(write=False)
        return SemiDiscreteKse(params=params, grid=grid, linear_symbol=linear,
                               d1_symbol=compact_fd.first_derivative_symbol(grid))
    d2 = compact_fd.build_second_derivative(grid)
    return SemiDiscreteKse(
        params=params,
        grid=grid,
        linear_matrix=_linear(params, d2),
        d1_matrix=compact_fd.build_first_derivative(grid),
        boundary_values=boundary_values,
        wall_matrix=None if boundary_values is None else _wall_matrix(params, grid, d2),
    )
