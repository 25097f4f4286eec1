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
step costs eight real transforms, per stage one of the transport and one of
the stage's inverse, plus one to start a run.  :func:`integrate` carries the
transform of the state from step to step, adding the update's modes to it,
as Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005) do; :func:`step`
transforms its own u_n.  The stage sequence is written once, run on the
modes and by :func:`amplification_polynomial` on polynomials in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .system import SemiDiscreteKse


class InstabilityError(RuntimeError):
    """A step gave non-finite values; ``max_abs`` is max|u_n| of the state
    that entered it, and :func:`integrate` sets its ``step_index`` and ``time``."""

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


def _multipliers(z, k):
    """The eight stage weights of :class:`StepperWorkspace` at z for step k."""
    r_half, p1_half, p2_half, r, p1, p2, p3 = stage_functions(z)
    kp2, kp3 = k * p2, k * p3
    two_kp2 = 2.0 * kp2
    return (r_half - 1.0, k * p1_half, k * p2_half,
            r - 1.0, k * p1 - two_kp2, two_kp2, kp3 - kp2, two_kp2 - kp3)


def _stages(m, u, u_hat, rhs, inverse):
    """(u_{n+1}, its transform) of one IMEX-RK4 step from u and its transform ``u_hat``.

    ``m`` holds the eight weights of :class:`StepperWorkspace`,
    ``rhs(i, v)`` is the transform of F at the value v of stage i (0 at u_n,
    1-3 at a, b, c) and ``inverse`` maps modes back to values.  The update's
    modes d are added to ``u_hat`` as they are, so the returned transform is
    u_hat + d, not the transform of u_{n+1}; the two differ by roundoff.
    """
    w1_half, omega1_half, omega2_half, w1, w_n, w_b, w_nc, w_ab = m
    f_n = rhs(0, u)
    r = w1_half * u_hat + omega1_half * f_n  # the linear part of stages a and b
    f_a = rhs(1, u + inverse(r))
    f_b = rhs(2, u + inverse(r + omega2_half * (f_a - f_n)))
    s = w1 * u_hat + w_n * f_n  # shared by c and u_{n+1}
    f_c = rhs(3, u + inverse(s + w_b * f_b))
    d = s + w_nc * (f_n + f_c) + w_ab * (f_a + f_b)
    return u + inverse(d), u_hat + d


def scalar_amplification(x, y):
    """``amplification_polynomial(y)(x)``, kept for ``perfbench/tests/test_perfbench.py:228``."""
    return amplification_polynomial(y)(x)


def amplification_polynomial(y) -> Polynomial:
    """r(x, y), a quartic in x: :func:`step`'s stages on one mode, z = -y, k = 1, F(v) = x v, u_n = 1."""
    z = -complex(y)
    if any(abs(z - pole) < 1e-8 for pole in _POLES):
        raise ValueError(f"z = {z} is too close to a stage pole")
    return _stages(_multipliers(z, 1.0), 1.0, 1.0,
                   lambda _i, v: Polynomial([0, 1]) * v, lambda v: v)[0]


@dataclass(eq=False)
class StepperWorkspace:
    """The per-mode stage weights for one (system, k) pair.

    With the stage functions of :func:`stage_functions` at z = k lambda on
    each transform mode, ``multipliers`` holds eight weights, in order:
    R_half - 1, k P1_half, k P2_half (stages a and b); R - 1 and
    k (P1 - 2 P2), the weights of u_n and F(u_n) in stage c and the update;
    2 k P2, that of F(b) in stage c; k (P3 - P2) on F(u_n) + F(c) and
    k (2 P2 - P3) on F(a) + F(b) in the update.  The last four are the
    update's P1, P2, P3 terms pre-combined, each still a partial fraction at
    the full-step pole.  The same rule at z = -y and k = 1 gives the one-mode
    weights of the amplification factor :func:`amplification_polynomial`.
    """

    sys: SemiDiscreteKse
    k: float
    multipliers: tuple


def prepare(sys: SemiDiscreteKse, k: float) -> StepperWorkspace:
    """The stage weights at z = k lambda, once per time loop; max|z| may not
    exceed 1e150, since z * z in the stage denominators overflows near 1.3e154."""
    if not (np.isfinite(k) and k > 0):
        raise ValueError("time step must be positive")
    z_max = k * float(np.abs(sys.linear_symbol).max())
    if z_max > 1e150:
        raise ValueError(f"k = {k} gives max|k lambda| = {z_max:.3g}, which exceeds 1e150")
    return StepperWorkspace(sys=sys, k=k, multipliers=_multipliers(k * sys.linear_symbol, k))


def _advance(ws: StepperWorkspace, u_n: np.ndarray, u_hat: np.ndarray, t_n: float):
    """(u_{n+1}, its carried transform) from a checked u_n, its transform and a finite t_n.

    F is evaluated at t_n, t_n + k/2, t_n + k/2 and t_n + k, which is where
    Dirichlet wall data enters: its transformed term is evaluated once per
    distinct time.
    """
    sys, k = ws.sys, ws.k
    walls = tuple(map(sys.transformed_wall_term, (t_n, t_n + k / 2, t_n + k)))
    # stages a and b share t_n + k/2; a non-finite stage value makes its F
    # non-finite, and every later stage and the update add that F in, so
    # overflow in a diverging run is caught by the one check of u_{n+1}
    with np.errstate(over="ignore", invalid="ignore"):
        u_next, u_hat_next = _stages(ws.multipliers, u_n, u_hat,
                                     lambda i, v: sys.stage_rhs(v, walls[(i + 1) // 2]),
                                     sys.inverse)
    if not np.isfinite(u_next).all():
        raise InstabilityError("non-finite values in u_{n+1}", max_abs=float(np.abs(u_n).max()))
    return u_next, u_hat_next


def step(ws: StepperWorkspace, u_n: np.ndarray, t_n: float) -> np.ndarray:
    """Advance one step of size k from (t_n, u_n).

    Each stage adds to u_n the inverse transform of the stage weights times
    the transforms of u_n and of the earlier F's.  A lone step transforms
    u_n itself, nine transforms in all; :func:`integrate` carries the
    transform instead.
    """
    sys = ws.sys
    u_n = sys.check_state(u_n)
    if not math.isfinite(t_n):
        raise ValueError(f"time t_n = {t_n} must be finite")
    return _advance(ws, u_n, sys.forward(u_n), t_n)[0]


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
    """Advance u0 by M = t_final / k steps with a single prepared workspace.

    u0 is transformed once; after that each step hands its transform on, so
    it costs eight transforms against a lone :func:`step`'s nine.
    ``t_final`` must be an integer multiple of ``k``.  The observer, when
    given, receives (t_j, u_j) for j = 0..M and must not modify u_j, whose
    transform the run carries on.
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
    u_hat = sys.forward(u)
    for j in range(n_steps):
        t = j * k
        try:
            u, u_hat = _advance(workspace, u, u_hat, t)
        except InstabilityError as err:
            err.step_index, err.time = j, t
            raise
        if observer is not None:
            observer((j + 1) * k, u)
    return u
