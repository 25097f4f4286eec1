"""Fourth-order implicit-explicit Runge-Kutta time stepper.

The linear part is propagated through the (2,2)-Pade rational
``R(z) = (12 - 6z + z^2) / (12 + 6z + z^2)`` of exp(-z) and its half-step
analogue ``(48 - 12z + z^2) / (48 + 12z + z^2)``.  Partial fractions turn
every stage into one backward-Euler-type solve with kL - c: each denominator
has a single conjugate pole pair, so for real data ``2 Re(.)`` of one solve
suffices.  L is held as real eigenvalues on the modes of a real transform
(``rfft`` periodic, DST-I Dirichlet), so ``2 Re(.)`` of a solve is a real
multiplier per mode; :func:`prepare` computes them once for the time loop.
No N x N matrix is formed or solved with: a step costs nine real transforms,
of u_n and, per stage, of the transport and the stage's inverse.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .system import SemiDiscreteKse


class InstabilityError(RuntimeError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, message: str, step_index: Optional[int] = None,
                 time: Optional[float] = None, max_abs: Optional[float] = None):
        self.step_index = step_index
        self.time = time
        self.max_abs = max_abs
        super().__init__(message)


@dataclass(frozen=True)
class ImexCoefficients:
    """Pole and residue weights of the partial-fraction stage solves.

    ``c1`` is the upper-half-plane root of z^2 + 6z + 12 (full step) and
    ``c1_half`` the upper-half-plane root of z^2 + 12z + 48 (half step).
    """

    c1: complex
    w1: complex
    w11: complex
    w21: complex
    w31: complex
    c1_half: complex
    w1_half: complex
    omega1_half: complex
    omega2_half: complex


@functools.cache
def coefficients() -> ImexCoefficients:
    """The stage constants, each the residue of its rational stage function.

    For a denominator q with conjugate roots, the residue of p/q at the upper
    root c is p(c) / (c - conj(c)).  Both poles are c = a + b sqrt(3) i with
    integer a, b and every numerator is linear, p(c) = p0 + p1 c, so the
    residue is p1/2 - sqrt(3) (p0 + p1 a) / (6 b) i.  sqrt(3) is taken to 40
    digits, so each constant is the double nearest its exact value.
    """
    ctx = decimal.Context(prec=40)

    def sqrt3_times(num: int, den: int) -> float:
        return float(ctx.divide(ctx.multiply(ctx.sqrt(3), num), den))

    def residue(p0: int, p1: int, a: int, b: int) -> complex:
        return complex(p1 / 2, -sqrt3_times(p0 + p1 * a, 6 * b))

    return ImexCoefficients(
        c1=complex(-3.0, sqrt3_times(1, 1)),
        w1=residue(0, -12, -3, 1),        # p = -12 c
        w11=residue(12, 0, -3, 1),        # p = 12
        w21=residue(6, 1, -3, 1),         # p = 6 + c
        w31=residue(8, 2, -3, 1),         # p = 2 (4 + c)
        c1_half=complex(-6.0, sqrt3_times(2, 1)),
        w1_half=residue(0, -24, -6, 2),   # p = -24 c
        omega1_half=residue(24, 0, -6, 2),  # p = 24
        omega2_half=residue(24, 2, -6, 2),  # p = 2 (12 + c)
    )


_POLE_GUARD = 1e-8


def scalar_amplification(x, y):
    """One-step growth factor of the scheme on u' = -c u + gamma u.

    ``x = gamma k`` scales the explicitly treated term and ``y = -c k`` the
    implicit one, so the update is evaluated at z = k c = -y.  The result is
    an exact degree-4 polynomial in x with y-dependent coefficients; ``x``
    may be an array.
    """
    z = -complex(y)
    co = coefficients()
    for pole in (co.c1, co.c1.conjugate(), co.c1_half, co.c1_half.conjugate()):
        if abs(z - pole) < _POLE_GUARD:
            raise ValueError(f"z = {z} is too close to the stage pole {pole}")
    x_arr = np.asarray(x, dtype=complex)
    den = 12.0 + 6.0 * z + z * z
    den_h = 48.0 + 12.0 * z + z * z
    r_full = (12.0 - 6.0 * z + z * z) / den
    p1 = 12.0 / den
    p2 = (6.0 + z) / den
    p3 = 2.0 * (4.0 + z) / den
    r_half = (48.0 - 12.0 * z + z * z) / den_h
    p1_h = 24.0 / den_h
    p2_h = 2.0 * (12.0 + z) / den_h
    a = r_half + p1_h * x_arr
    b = r_half + p1_h * x_arr + p2_h * x_arr * (a - 1.0)
    c = r_full + p1 * x_arr + 2.0 * p2 * x_arr * (b - 1.0)
    r = (r_full + p1 * x_arr + p2 * x_arr * (-3.0 + 2.0 * a + 2.0 * b - c)
         + p3 * x_arr * (1.0 - a - b + c))
    if x_arr.ndim == 0:
        return complex(r)
    return r


@dataclass(eq=False)
class StepperWorkspace:
    """The per-mode stage multipliers for one (system, k) pair.

    With g = 1 / (k lambda - c1) and g_half = 1 / (k lambda - c1_half) on each
    transform mode, every field is 2 Re(g w) for the constant w of the same
    name in :class:`ImexCoefficients`: the half-step constants with g_half,
    the full-step ones with g, and the weights of F (all but ``w1`` and
    ``w1_half``) times k.
    """

    sys: SemiDiscreteKse
    k: float
    w1_half: np.ndarray
    omega1_half: np.ndarray
    omega2_half: np.ndarray
    w1: np.ndarray
    w11: np.ndarray
    w21: np.ndarray
    w31: np.ndarray


def prepare(sys: SemiDiscreteKse, k: float) -> StepperWorkspace:
    """The stage multipliers of (kL - c1) and (kL - c1_half), once per time loop."""
    if not (np.isfinite(k) and k > 0):
        raise ValueError("time step must be positive")
    co = coefficients()
    kl = k * sys.linear_symbol
    g_half = 1.0 / (kl - co.c1_half)
    g = 1.0 / (kl - co.c1)
    return StepperWorkspace(
        sys=sys, k=k,
        w1_half=2.0 * (co.w1_half * g_half).real,
        omega1_half=2.0 * (k * co.omega1_half * g_half).real,
        omega2_half=2.0 * (k * co.omega2_half * g_half).real,
        w1=2.0 * (co.w1 * g).real,
        w11=2.0 * (k * co.w11 * g).real,
        w21=2.0 * (k * co.w21 * g).real,
        w31=2.0 * (k * co.w31 * g).real,
    )


def _check_finite(u: np.ndarray, label: str):
    if not np.isfinite(u).all():
        finite = u[np.isfinite(u)]
        peak = float(np.abs(finite).max()) if finite.size else math.inf
        raise InstabilityError(f"non-finite values in stage {label}", max_abs=peak)


def step(ws: StepperWorkspace, u_n: np.ndarray, t_n: float) -> np.ndarray:
    """Advance one step of size k from (t_n, u_n).

    Each stage adds to u_n the inverse transform of the stage multipliers
    times the transforms of u_n and of the earlier F's.  F is evaluated at
    t_n, t_n + k/2, t_n + k/2 and t_n + k, which is where Dirichlet wall data
    enters: its transformed term is evaluated once per distinct time.
    """
    sys, k = ws.sys, ws.k
    u_n = sys.check_state(u_n)
    wall_n, wall_half, wall_next = map(sys.transformed_wall_term, (t_n, t_n + k / 2, t_n + k))
    # overflow in a diverging run is caught by the finite checks below
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat = sys.forward(u_n)
        f_n = sys.stage_rhs(u_n, wall_n)

        r_a = ws.w1_half * u_hat + ws.omega1_half * f_n
        a_n = u_n + sys.inverse(r_a)
        _check_finite(a_n, "a")
        f_a = sys.stage_rhs(a_n, wall_half)

        b_n = u_n + sys.inverse(r_a + ws.omega2_half * (f_a - f_n))
        _check_finite(b_n, "b")
        f_b = sys.stage_rhs(b_n, wall_half)

        r_c = ws.w1 * u_hat + ws.w11 * f_n
        c_n = u_n + sys.inverse(r_c + 2.0 * ws.w21 * (f_b - f_n))
        _check_finite(c_n, "c")
        f_c = sys.stage_rhs(c_n, wall_next)

        u_next = u_n + sys.inverse(r_c + ws.w21 * (2.0 * (f_a + f_b) - 3.0 * f_n - f_c)
                                   + ws.w31 * (f_n - f_a - f_b + f_c))
    _check_finite(u_next, "u")
    return u_next


def integrate(
    sys: SemiDiscreteKse,
    u0: np.ndarray,
    k: float,
    t_final: float,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
    workspace: Optional[StepperWorkspace] = None,
) -> np.ndarray:
    """Run step() over M = t_final / k steps with a single prepared workspace.

    ``t_final`` must be an integer multiple of ``k``.  The observer, when
    given, receives (t_j, u_j) for j = 0..M.
    """
    if workspace is None:
        workspace = prepare(sys, k)  # validates k before it divides t_final
    if workspace.sys is not sys or workspace.k != k:
        raise ValueError("workspace was prepared for a different system or step size")
    if not (np.isfinite(t_final) and t_final >= 0):
        raise ValueError("final time must be nonnegative")
    steps_float = t_final / k
    n_steps = int(round(steps_float))
    if abs(steps_float - n_steps) > 1e-9 * max(1.0, abs(steps_float)):
        raise ValueError(f"final time {t_final} is not an integer multiple of k = {k}")
    u = sys.check_state(np.array(u0, dtype=float, copy=True))
    if observer is not None:
        observer(0.0, u)
    for j in range(n_steps):
        t = j * k
        try:
            u = step(workspace, u, t)
        except InstabilityError as err:
            err.step_index = j
            err.time = t
            raise
        if observer is not None:
            observer((j + 1) * k, u)
    return u
