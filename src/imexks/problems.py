"""The four benchmark problems: domains, parameters, initial and boundary data.

Problem 1 is the traveling-wave accuracy benchmark with a closed-form
solution, whose wall data the Dirichlet system takes from the closed form; 2 is
the classical chaotic periodic run on [0, 32 pi]; 3 and 4 are Dirichlet
problems with zero wall data (Gaussian pulse, decaying sine).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .compact_fd import BoundaryScheme, Grid
from .system import KseParameters, SemiDiscreteKse, assemble

EXAMPLE1_MU = 5.0
EXAMPLE1_NU = 1.0 / (2.0 * math.sqrt(19.0))
EXAMPLE1_X0 = -25.0

# Problem 4's convergence table is computed at 1.1/pi^2; the sweep values
# 0.4/pi^2 .. 0.8/pi^2 of configs/beta_sweep_*.json give the cellular regimes.
TABLE_BETA_PROBLEM4 = 1.1 / math.pi**2
SWEEP_BETAS_PROBLEM4 = (0.4 / math.pi**2, 0.6 / math.pi**2, 0.8 / math.pi**2)


# u = p(S) with p's coefficients by power of S, valid for alpha = -1, beta = 1
_WAVE = (EXAMPLE1_MU, -45.0 / 19.0**1.5, 0.0, 15.0 / 19.0**1.5)


def _wave_phase(x, t):
    """S = tanh(nu (x - (mu t + x0))) at the points ``x``, with the ``EXAMPLE1_*`` constants."""
    return np.tanh(EXAMPLE1_NU * (np.asarray(x, dtype=float) - (EXAMPLE1_MU * t + EXAMPLE1_X0)))


def example1_exact(x, t):
    """Traveling-wave solution mu + (15 S^3 - 45 S) / 19^(3/2) with S = :func:`_wave_phase`."""
    return P.polyval(_wave_phase(x, t), _WAVE)


def _example1_derivative_coefficients() -> np.ndarray:
    """Rows: u, u_x, u_xx and u_xxxx as polynomials in S, powers 0 to 7.

    u = p(S) with dS/dx = nu (1 - S^2), so every x-derivative is again a
    polynomial, d/dx p(S) = nu (1 - S^2) p'(S).
    """
    rows = [np.array(_WAVE)]
    for _ in range(4):
        rows.append(EXAMPLE1_NU * P.polymul((1.0, 0.0, -1.0), P.polyder(rows[-1])))
    return np.array([np.pad(rows[order], (0, 8 - len(rows[order]))) for order in (0, 1, 2, 4)])


_EXAMPLE1_DERIVATIVES = _example1_derivative_coefficients()
_POWERS = np.arange(8)[:, None]


def example1_wall_data(x, t) -> np.ndarray:
    """u, u_x, u_xx and u_xxxx of :func:`example1_exact` at the points ``x``.

    Rows are the four quantities, columns the points; the Dirichlet system
    evaluates it at both walls for every F.
    """
    return _EXAMPLE1_DERIVATIVES @ _wave_phase(x, t) ** _POWERS


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """Static description of one benchmark problem."""

    domain: tuple
    params: KseParameters
    scheme: BoundaryScheme
    initial_condition: Callable
    exact_solution: Optional[Callable] = None
    boundary_values: Optional[Callable] = None

    def grid(self, n_points: int) -> Grid:
        return Grid(self.domain[0], self.domain[1], n_points, self.scheme)

    def build_system(self, n_points: int) -> SemiDiscreteKse:
        return assemble(self.params, self.grid(n_points), self.boundary_values)

    def initial_state(self, sys: SemiDiscreteKse) -> np.ndarray:
        return np.asarray(self.initial_condition(sys.active_nodes()), dtype=float)


_PROBLEMS = {
    1: ProblemSpec(domain=(-50.0, 50.0), params=KseParameters(alpha=-1.0, beta=1.0),
                   scheme=BoundaryScheme.DIRICHLET,
                   initial_condition=lambda x: example1_exact(x, 0.0),
                   exact_solution=example1_exact, boundary_values=example1_wall_data),
    2: ProblemSpec(domain=(0.0, 32.0 * math.pi), params=KseParameters(alpha=1.0, beta=1.0),
                   scheme=BoundaryScheme.PERIODIC,
                   initial_condition=lambda x: np.cos(x / 16.0) * (1.0 + np.sin(x / 16.0))),
    3: ProblemSpec(domain=(-30.0, 30.0), params=KseParameters(alpha=1.0, beta=1.0),
                   scheme=BoundaryScheme.DIRICHLET,
                   initial_condition=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)),
    4: ProblemSpec(domain=(-1.0, 1.0), params=KseParameters(alpha=1.0, beta=1.1),
                   scheme=BoundaryScheme.DIRICHLET,
                   initial_condition=lambda x: -np.sin(np.pi * np.asarray(x, dtype=float))),
}


def make_problem(problem_id: int, beta: Optional[float] = None) -> ProblemSpec:
    """The ProblemSpec of one of the four benchmarks.

    ``beta`` may override the fourth-derivative coefficient of problem 4
    only; the other problems have fixed parameters.
    """
    if beta is not None and problem_id != 4:
        raise ValueError("beta override is only available for problem 4")
    if problem_id not in _PROBLEMS:
        raise ValueError(f"unknown problem id {problem_id}")
    if beta is None:
        return _PROBLEMS[problem_id]
    return dataclasses.replace(_PROBLEMS[4], params=KseParameters(alpha=1.0, beta=beta))
