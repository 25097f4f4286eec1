"""ETDRK4 on the system's transform modes: an independent time integrator.

Cox & Matthews' exponential time differencing RK4 (JCP 176, 2002) with the
coefficients of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005): means
over M contour points around each k L_j, real part kept.  L is diagonal on
the modes, so the scheme needs only ``linear_symbol``, the transform pair and
``stage_rhs``, and serves every boundary kind, wall data included.
"""

import numpy as np


def etdrk4(sys_, u0, k, n_steps, contour_points=64):
    """u after ``n_steps`` ETDRK4 steps of size k from u0 at t = 0."""
    lk = -k * sys_.linear_symbol  # u_t = L u + F with L = -linear_symbol
    e, e_half = np.exp(lk), np.exp(lk / 2)
    r = np.exp(1j * np.pi * (np.arange(1, contour_points + 1) - 0.5) / contour_points)
    z = lk[:, None] + r[None, :]
    ez = np.exp(z)

    def mean(values):
        return k * np.real(values.mean(axis=1))

    q = mean((np.exp(z / 2) - 1) / z)
    f1 = mean((-4 - z + ez * (4 - 3 * z + z * z)) / z**3)
    f2 = mean((2 + z + ez * (z - 2)) / z**3)
    f3 = mean((-4 - 3 * z - z * z + ez * (4 - z)) / z**3)

    def nonlinear(v, t):
        return sys_.stage_rhs(sys_.inverse(v), sys_.transformed_wall_term(t))

    v = sys_.forward(np.asarray(u0, dtype=float))
    for j in range(n_steps):
        t = j * k
        n_v = nonlinear(v, t)
        a = e_half * v + q * n_v
        n_a = nonlinear(a, t + k / 2)
        b = e_half * v + q * n_a
        n_b = nonlinear(b, t + k / 2)
        c = e_half * a + q * (2 * n_b - n_v)
        n_c = nonlinear(c, t + k)
        v = e * v + f1 * n_v + 2 * f2 * (n_a + n_b) + f3 * n_c
    return sys_.inverse(v)
