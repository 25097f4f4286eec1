"""The four benchmark problems: domains, parameters, initial and boundary data.

Problem 1 is the traveling-wave accuracy benchmark with a closed-form
solution, whose wall data the Dirichlet system takes from the closed form; 2 is
the classical chaotic periodic run on [0, 32 pi]; 3 and 4 are Dirichlet
problems with zero wall data (Gaussian pulse, decaying sine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .compact_fd import BoundaryScheme, Grid
from .system import KseParameters, SemiDiscreteKse, assemble

EXAMPLE1_MU = 5.0
EXAMPLE1_NU = 1.0 / (2.0 * math.sqrt(19.0))
EXAMPLE1_X0 = -25.0

# Problem 4's convergence table is computed at 1.1/pi^2; the sweep values
# 0.4/pi^2 .. 0.8/pi^2 produce the cellular / multi-peak regimes.
TABLE_BETA_PROBLEM4 = 1.1 / math.pi**2
SWEEP_BETAS_PROBLEM4 = (0.4 / math.pi**2, 0.6 / math.pi**2, 0.8 / math.pi**2)


def example1_exact(x, t):
    """Traveling-wave solution mu + (15 tanh^3(s) - 45 tanh(s)) / 19^(3/2).

    ``s = nu (x - mu t - x0)`` with the ``EXAMPLE1_*`` constants, the same
    ones :func:`example1_wall_data` uses; valid for alpha = -1, beta = 1.
    """
    s = np.tanh(EXAMPLE1_NU * (np.asarray(x, dtype=float) - EXAMPLE1_MU * t - EXAMPLE1_X0))
    return EXAMPLE1_MU + (15.0 * s**3 - 45.0 * s) / 19.0**1.5


def _example1_derivative_coefficients() -> np.ndarray:
    """Rows: u, u_x, u_xx and u_xxxx as polynomials in S, powers 0 to 7.

    u = p(S) with S = tanh(nu (x - mu t - x0)) and dS/dx = nu (1 - S^2), so
    every x-derivative is again a polynomial, d/dx p(S) = nu (1 - S^2) p'(S).
    """
    rows = [np.array([EXAMPLE1_MU, -45.0 / 19.0**1.5, 0.0, 15.0 / 19.0**1.5])]
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
    s = np.tanh(EXAMPLE1_NU * (np.asarray(x, dtype=float) - (EXAMPLE1_MU * t + EXAMPLE1_X0)))
    return _EXAMPLE1_DERIVATIVES @ s**_POWERS


@dataclass(frozen=True)
class ProblemSpec:
    """Static description of one benchmark problem."""

    problem_id: int
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
        return sys.initial_state(self.initial_condition)


def _ic_problem2(x):
    return np.cos(x / 16.0) * (1.0 + np.sin(x / 16.0))


def _ic_problem3(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def _ic_problem4(x):
    return -np.sin(np.pi * np.asarray(x, dtype=float))


def make_problem(problem_id: int, beta: Optional[float] = None) -> ProblemSpec:
    """Build the ProblemSpec for one of the four benchmarks.

    ``beta`` may override the fourth-derivative coefficient of problem 4
    only; the other problems have fixed parameters.
    """
    if beta is not None and problem_id != 4:
        raise ValueError("beta override is only available for problem 4")
    if problem_id == 1:
        return ProblemSpec(
            problem_id=1,
            domain=(-50.0, 50.0),
            params=KseParameters(alpha=-1.0, beta=1.0),
            scheme=BoundaryScheme.DIRICHLET,
            initial_condition=lambda x: example1_exact(x, 0.0),
            exact_solution=example1_exact,
            boundary_values=example1_wall_data,
        )
    if problem_id == 2:
        return ProblemSpec(
            problem_id=2,
            domain=(0.0, 32.0 * math.pi),
            params=KseParameters(alpha=1.0, beta=1.0),
            scheme=BoundaryScheme.PERIODIC,
            initial_condition=_ic_problem2,
        )
    if problem_id == 3:
        return ProblemSpec(
            problem_id=3,
            domain=(-30.0, 30.0),
            params=KseParameters(alpha=1.0, beta=1.0),
            scheme=BoundaryScheme.DIRICHLET,
            initial_condition=_ic_problem3,
        )
    if problem_id == 4:
        return ProblemSpec(
            problem_id=4,
            domain=(-1.0, 1.0),
            params=KseParameters(alpha=1.0, beta=1.1 if beta is None else beta),
            scheme=BoundaryScheme.DIRICHLET,
            initial_condition=_ic_problem4,
        )
    raise ValueError(f"unknown problem id {problem_id}")
