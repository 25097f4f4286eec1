"""Semi-discrete Kuramoto-Sivashinsky system U_t + L U = F(U, t).

``L = alpha D2 + beta D4`` collects the stiff linear terms and the quadratic
transport enters explicitly through ``F(U) = -1/2 D1 (U * U)``.

Boundary handling comes in three flavors, chosen by grid scheme and boundary
data:

* periodic - every node is an unknown and the operators are held as their
  Fourier symbols: ``linear_symbol`` and ``d1_symbol`` on the ``rfft``
  frequencies, O(N) memory, and F costs one FFT pair;
* Dirichlet with boundary data - all N nodes evolve with the one-sided
  closure operators and the outermost two nodes per end are overwritten with
  the supplied data after every stage.  Pinning a single endpoint is not
  enough: the composed fourth-derivative closure then carries a strongly
  amplifying pseudo-mode and fine grids blow up mid-run;
* homogeneous Dirichlet - the system is reduced to the N-2 interior nodes
  with the truncated tridiagonal operators.  Injecting zeros into the full
  closure operators instead is unstable whenever the solution is not already
  flat next to the walls.

Both Dirichlet flavors hold dense ``linear_matrix`` and ``d1_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import compact_fd
from .compact_fd import BoundaryScheme, Grid

# nodes overwritten per end when boundary data is injected
INJECTION_BAND = 2


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
    dense ``linear_matrix`` and ``d1_matrix``.  The other pair is None.
    """

    params: KseParameters
    grid: Grid
    linear_matrix: Optional[np.ndarray] = None
    d1_matrix: Optional[np.ndarray] = None
    linear_symbol: Optional[np.ndarray] = None
    d1_symbol: Optional[np.ndarray] = None
    boundary_values: Optional[Callable] = None
    homogeneous: bool = False

    @property
    def scheme(self) -> BoundaryScheme:
        return self.grid.scheme

    @property
    def state_size(self) -> int:
        return self.grid.n_points - 2 if self.homogeneous else self.grid.n_points

    def active_nodes(self) -> np.ndarray:
        """Positions of the evolving unknowns."""
        if self.homogeneous:
            return self.grid.interior_nodes()
        return self.grid.nodes()

    def nonlinear_rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        """F(U, t) = -1/2 D1 (U * U)."""
        u = np.asarray(u)
        n = self.state_size
        if u.shape[0] != n:
            raise ValueError(f"state has length {u.shape[0]}, expected {n}")
        if self.scheme is BoundaryScheme.PERIODIC:
            return -0.5 * np.fft.irfft(self.d1_symbol * np.fft.rfft(u * u), n=n)
        return -0.5 * (self.d1_matrix @ (u * u))

    def apply_boundary(self, u: np.ndarray, t: float) -> np.ndarray:
        """Return a copy of ``u`` with the boundary band set to boundary data.

        For injected systems the band is two nodes per end evaluated from the
        boundary function; for homogeneous systems the (eliminated) endpoint
        values are zero by construction, so this is the identity on the active
        state.
        """
        if self.scheme is BoundaryScheme.PERIODIC:
            raise ValueError("apply_boundary is undefined for periodic systems")
        out = np.array(u, dtype=float, copy=True)
        if self.homogeneous:
            return out
        x = self.grid.nodes()
        for i in (*range(INJECTION_BAND), *range(-INJECTION_BAND, 0)):
            out[i] = self.boundary_values(x[i], t)
        return out

    def constrain_stage(self, u: np.ndarray, t: float) -> np.ndarray:
        """Boundary hook the stepper applies to each stage vector."""
        if self.scheme is BoundaryScheme.DIRICHLET and not self.homogeneous:
            return self.apply_boundary(u, t)
        return u

    def initial_state(self, initial_condition: Callable, t0: float = 0.0) -> np.ndarray:
        """Sample an initial-condition function onto the active unknowns."""
        u = np.asarray(initial_condition(self.active_nodes()), dtype=float)
        if self.scheme is BoundaryScheme.DIRICHLET and not self.homogeneous:
            u = self.apply_boundary(u, t0)
        return u

    def full_state(self, u: np.ndarray) -> np.ndarray:
        """Embed the active state on the full grid (zero walls when reduced)."""
        if not self.homogeneous:
            return np.array(u, dtype=float, copy=True)
        out = np.zeros(self.grid.n_points)
        out[1:-1] = u
        return out


def dense_operators(params: KseParameters, grid: Grid,
                    homogeneous: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Dense L = alpha D2 + beta D2^2 and D1 from the compact_fd builders.

    ``homogeneous`` selects the interior operators of a Dirichlet grid.
    Dirichlet systems run on these matrices; on periodic grids they are the
    independent reference for the Fourier symbols.
    """
    if homogeneous:
        d1 = compact_fd.build_interior_first_derivative(grid)
        d2 = compact_fd.build_interior_second_derivative(grid)
    else:
        d1 = compact_fd.build_first_derivative(grid)
        d2 = compact_fd.build_second_derivative(grid)
    linear = params.alpha * d2 + params.beta * (d2 @ d2)
    linear.setflags(write=False)
    return linear, d1


def assemble(
    params: KseParameters,
    grid: Grid,
    boundary_values: Optional[Callable] = None,
) -> SemiDiscreteKse:
    """Build L = alpha D2 + beta D4 and the transport operator for the grid.

    ``boundary_values`` is a callable ``g(x, t)`` giving the imposed solution
    values near the walls; it is required for Dirichlet grids unless the
    boundary data is identically zero (pass ``None`` for the homogeneous
    reduction).  Periodic grids accept no boundary data and get the Fourier
    symbols of L and D1 instead of matrices.
    """
    if grid.scheme is BoundaryScheme.PERIODIC:
        if boundary_values is not None:
            raise ValueError("periodic systems take no boundary values")
        s2 = compact_fd.second_derivative_symbol(grid)
        linear = params.alpha * s2 + params.beta * s2 * s2
        linear.setflags(write=False)
        return SemiDiscreteKse(params=params, grid=grid, linear_symbol=linear,
                               d1_symbol=compact_fd.first_derivative_symbol(grid))
    homogeneous = boundary_values is None
    linear, d1 = dense_operators(params, grid, homogeneous)
    return SemiDiscreteKse(
        params=params,
        grid=grid,
        linear_matrix=linear,
        d1_matrix=d1,
        boundary_values=boundary_values,
        homogeneous=homogeneous,
    )
