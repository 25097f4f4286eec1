"""Fourth-order implicit-explicit Runge-Kutta time stepper.

The linear part is propagated through the (2,2)-Pade rational
``R(z) = (12 - 6z + z^2) / (12 + 6z + z^2)`` of exp(-z) and its half-step
analogue ``(48 - 12z + z^2) / (48 + 12z + z^2)``.  L is held as real
eigenvalues on the modes of a real transform (``rfft`` periodic, DST-I
Dirichlet), so every stage is a per-mode division by one of those two
quadratic denominators at z = k lambda (:func:`stage_functions`).  This is
the paper's partial-fraction stage, one backward-Euler-type solve with
kL - c, on the transform modes; its pole and residue constants are pinned in
criterion 6 of ``tests/test_acceptance.py``.  No N x N matrix is formed: a
step costs nine real transforms, of u_n and, per stage, of the transport and
the stage's inverse.
"""

from __future__ import annotations

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


def stage_functions(z):
    """The seven stage rationals at z: (R_half, P1_half, P2_half, R, P1, P2, P3).

    The half-step ones share the denominator 48 + 12z + z^2, the full-step
    ones 12 + 6z + z^2; every coefficient is a small integer, so each is
    exact in binary.  ``z`` may be an array.
    """
    den_h = 48.0 + 12.0 * z + z * z
    den = 12.0 + 6.0 * z + z * z
    return ((48.0 - 12.0 * z + z * z) / den_h, 24.0 / den_h, 2.0 * (12.0 + z) / den_h,
            (12.0 - 6.0 * z + z * z) / den, 12.0 / den, (6.0 + z) / den, 2.0 * (4.0 + z) / den)


# the roots of 12 + 6z + z^2 and 48 + 12z + z^2, the stage poles
_POLES = (complex(-3.0, math.sqrt(3.0)), complex(-3.0, -math.sqrt(3.0)),
          complex(-6.0, 2.0 * math.sqrt(3.0)), complex(-6.0, -2.0 * math.sqrt(3.0)))


def scalar_amplification(x, y):
    """One-step growth factor of the scheme on u' = -c u + gamma u.

    ``x = gamma k`` scales the explicitly treated term and ``y = -c k`` the
    implicit one, so the update is evaluated at z = k c = -y.  The result is
    an exact degree-4 polynomial in x with y-dependent coefficients; ``x``
    may be an array.
    """
    z = -complex(y)
    for pole in _POLES:
        if abs(z - pole) < 1e-8:
            raise ValueError(f"z = {z} is too close to the stage pole {pole}")
    x_arr = np.asarray(x, dtype=complex)
    r_half, p1_h, p2_h, r_full, p1, p2, p3 = stage_functions(z)
    a = r_half + p1_h * x_arr
    b = r_half + p1_h * x_arr + p2_h * x_arr * (a - 1.0)
    c = r_full + p1 * x_arr + 2.0 * p2 * x_arr * (b - 1.0)
    r = (r_full + p1 * x_arr + p2 * x_arr * (-3.0 + 2.0 * a + 2.0 * b - c)
         + p3 * x_arr * (1.0 - a - b + c))
    return complex(r) if x_arr.ndim == 0 else r


@dataclass(eq=False)
class StepperWorkspace:
    """The per-mode stage multipliers for one (system, k) pair.

    With the stage functions of :func:`stage_functions` at z = k lambda on
    each transform mode: ``w1_half = R_half - 1``, ``omega1_half = k P1_half``,
    ``omega2_half = k P2_half``, ``w1 = R - 1``, ``w11 = k P1``,
    ``w21 = k P2`` and ``w31 = k P3``.
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
    """The stage multipliers at z = k lambda, once per time loop."""
    if not (np.isfinite(k) and k > 0):
        raise ValueError("time step must be positive")
    r_half, p1_half, p2_half, r, p1, p2, p3 = stage_functions(k * sys.linear_symbol)
    return StepperWorkspace(sys=sys, k=k, w1_half=r_half - 1.0, omega1_half=k * p1_half,
                            omega2_half=k * p2_half, w1=r - 1.0, w11=k * p1, w21=k * p2,
                            w31=k * p3)


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


def whole_steps(duration: float, k: float) -> Optional[int]:
    """The integer n with duration = n k to within 1e-9 n, or None if there is none."""
    ratio = duration / k
    if math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio)):
        return int(round(ratio))
    return None


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
    n_steps = whole_steps(t_final, k)
    if n_steps is None:
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
