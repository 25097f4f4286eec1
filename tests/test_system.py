import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import build_first_derivative, build_second_derivative, dense_operators
from imexks import compact_fd
from imexks.compact_fd import BoundaryScheme, Grid
from imexks.problems import example1_exact, example1_wall_data
from imexks.system import KseParameters, assemble


def periodic_system(alpha=1.0, beta=1.0, n=64, length=32 * np.pi):
    grid = Grid(0.0, length, n, BoundaryScheme.PERIODIC)
    return assemble(KseParameters(alpha, beta), grid)


def wave_system(n=26):
    grid = Grid(-50.0, 50.0, n, BoundaryScheme.DIRICHLET)
    return assemble(KseParameters(-1.0, 1.0), grid, boundary_values=example1_wall_data)


def reduced_system(n=41, alpha=1.0, beta=1.1):
    grid = Grid(-1.0, 1.0, n, BoundaryScheme.DIRICHLET)
    return assemble(KseParameters(alpha, beta), grid)


def apply_symbol(symbol, u):
    """Apply a periodic operator given by its rfft-frequency symbol."""
    return np.fft.irfft(symbol * np.fft.rfft(u), n=len(u))


def dense_linear(sys_):
    return dense_operators(sys_.params, sys_.grid)[0]


def apply_linear(sys_, u):
    """L u through the system's transform and symbol."""
    return sys_.inverse(sys_.linear_symbol * sys_.forward(u))


def test_parameters_must_be_nonzero():
    with pytest.raises(ValueError):
        KseParameters(0.0, 1.0)
    with pytest.raises(ValueError):
        KseParameters(1.0, 0.0)


def test_periodic_rejects_boundary_values():
    grid = Grid(0.0, 2 * np.pi, 32, BoundaryScheme.PERIODIC)
    with pytest.raises(ValueError):
        assemble(KseParameters(1.0, 1.0), grid, boundary_values=lambda x, t: 0.0)


def test_periodic_constant_and_mean_annihilation():
    sys_ = periodic_system(alpha=-1.0, beta=1.0)
    symbol = sys_.linear_symbol
    scale = np.abs(symbol).max()
    ones = np.ones(sys_.state_size)
    assert np.abs(apply_symbol(symbol, ones)).max() <= 1e-10 * scale
    # ones @ L = 0 in Fourier space: the zero-frequency eigenvalue vanishes
    assert abs(symbol[0]) <= 1e-10 * scale


def test_periodic_symbol_matches_fourier_modes():
    n = 64
    sys_ = periodic_system(alpha=1.0, beta=1.0, n=n)
    dense = dense_linear(sys_)
    h = sys_.grid.h
    for q in (1, 3, 7, 20):
        theta = 2 * np.pi * q / n
        lam2 = (12.0 / h**2) * (2 * np.cos(theta) - 2.0) / (10.0 + 2 * np.cos(theta))
        v = np.exp(1j * theta * np.arange(n))
        predicted = sys_.linear_symbol[q] * v
        assert np.abs(dense @ v - predicted).max() <= 1e-9 * max(1.0, abs(lam2) ** 2)


@pytest.mark.parametrize("n", [63, 64, 256])
def test_periodic_operators_are_fourier_symbols(n):
    sys_ = periodic_system(alpha=-1.0, beta=1.0, n=n)
    assert sys_.linear_symbol.shape == sys_.d1_symbol.shape == (n // 2 + 1,)
    dense = dense_linear(sys_)
    eig = np.fft.fft(dense[:, 0])[: n // 2 + 1]
    assert np.abs(eig - sys_.linear_symbol).max() <= 1e-13 * np.abs(sys_.linear_symbol).max()


def test_dirichlet_assembly_is_alpha_d2_plus_beta_d4():
    grid = Grid(-1.0, 1.0, 21, BoundaryScheme.DIRICHLET)
    sys_ = assemble(KseParameters(2.0, 0.5), grid, boundary_values=lambda x, t: np.zeros((4, 2)))
    d2 = build_second_derivative(grid)
    u = np.random.default_rng(21).standard_normal(19)
    expected = (2.0 * d2 + 0.5 * (d2 @ d2)) @ u
    assert np.abs(apply_linear(sys_, u) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n", [7, 41, 200, 1601])
def test_dst_symbols_match_the_dense_interior_operators(n):
    # D2, L = alpha D2 + beta D2^2 and D1 (skew difference, then A^-1 on the
    # DST-I modes) against the dense builds, applied to one random vector
    grid = Grid(-1.0, 1.0, n, BoundaryScheme.DIRICHLET)
    sys_ = assemble(KseParameters(-1.3, 0.7), grid)
    linear, d1 = dense_operators(sys_.params, grid)
    d2 = build_second_derivative(grid)
    u = np.random.default_rng(n).standard_normal(n - 2)
    pairs = (
        (sys_.inverse(compact_fd.second_derivative_symbol(grid) * sys_.forward(u)), d2 @ u),
        (apply_linear(sys_, u), linear @ u),
        (sys_.inverse(sys_.d1_symbol * sys_.forward(compact_fd.skew_difference(u))), d1 @ u),
    )
    for applied, expected in pairs:
        assert np.abs(applied - expected).max() <= 1e-13 * np.abs(expected).max()


def test_zero_wall_data_keeps_the_interior_tridiagonal_operators():
    # the truncated interior relations, built here independently: the
    # operators of problems 3 and 4 do not depend on any wall treatment
    grid = Grid(-1.0, 1.0, 21, BoundaryScheme.DIRICHLET)
    m, h = 19, grid.h

    def interior(lhs, rhs, scale):
        band = [np.diag(np.full(m - abs(d), float(c)), d) for d, c in zip((-1, 0, 1), lhs)]
        rhs_band = [np.diag(np.full(m - abs(d), float(c)), d) for d, c in zip((-1, 0, 1), rhs)]
        factors = scipy.linalg.lu_factor(sum(band))
        return scipy.linalg.lu_solve(factors, sum(rhs_band) * scale)

    d1 = interior((1, 4, 1), (-1, 0, 1), 3.0 / h)
    d2 = interior((1, 10, 1), (1, -2, 1), 12.0 / h**2)
    sys_ = assemble(KseParameters(2.0, 0.5), grid)
    assert sys_.boundary_values is None and sys_.wall_matrix is None
    u = np.random.default_rng(22).standard_normal(m)
    for applied, expected in ((sys_.nonlinear_rhs(u, 0.0), -0.5 * d1 @ (u * u)),
                              (apply_linear(sys_, u), (2.0 * d2 + 0.5 * (d2 @ d2)) @ u)):
        assert np.abs(applied - expected).max() <= 1e-13 * np.abs(expected).max()


def test_parameter_linearity():
    grid = Grid(0.0, 2 * np.pi, 32, BoundaryScheme.PERIODIC)
    l_a = assemble(KseParameters(1.0, 2.0), grid).linear_symbol
    l_b = assemble(KseParameters(-0.5, 3.0), grid).linear_symbol
    l_sum = assemble(KseParameters(0.5, 5.0), grid).linear_symbol
    assert np.abs(l_a + l_b - l_sum).max() <= 1e-12 * np.abs(l_sum).max()


def test_nonlinear_rhs_annihilates_constants():
    sys_ = periodic_system()
    out = sys_.nonlinear_rhs(np.full(sys_.state_size, 3.7), 0.0)
    assert np.abs(out).max() <= 1e-10


def test_nonlinear_rhs_has_zero_mean():
    sys_ = periodic_system()
    rng = np.random.default_rng(1)
    u = rng.standard_normal(sys_.state_size)
    assert abs(sys_.nonlinear_rhs(u, 0.0).sum()) <= 1e-10 * np.abs(u).max() ** 2


def test_nonlinear_rhs_matches_analytic_form():
    errs = []
    for n in (64, 128):
        grid = Grid(0.0, 2 * np.pi, n, BoundaryScheme.PERIODIC)
        sys_ = assemble(KseParameters(1.0, 1.0), grid)
        x = grid.nodes()
        # -1/2 d/dx sin^2 = -1/2 sin(2x)
        errs.append(np.abs(sys_.nonlinear_rhs(np.sin(x), 0.0) + 0.5 * np.sin(2 * x)).max())
    assert 3.7 <= np.log2(errs[0] / errs[1]) <= 4.3


@pytest.mark.parametrize("n", [63, 64, 256])
def test_fft_nonlinear_rhs_matches_dense(n):
    sys_ = periodic_system(n=n)
    d1 = build_first_derivative(sys_.grid)
    u = np.random.default_rng(n).standard_normal(n)
    dense = -0.5 * (d1 @ (u * u))
    assert np.abs(sys_.nonlinear_rhs(u, 0.0) - dense).max() <= 1e-13 * np.abs(dense).max()


def test_nonlinear_rhs_length_check():
    sys_ = periodic_system()
    with pytest.raises(ValueError):
        sys_.nonlinear_rhs(np.ones(sys_.state_size + 1), 0.0)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-8.0, 8.0, allow_nan=False), seed=st.integers(0, 1000))
def test_nonlinear_rhs_is_quadratic(c, seed):
    sys_ = periodic_system(n=32)
    u = np.random.default_rng(seed).standard_normal(32)
    lhs = sys_.nonlinear_rhs(c * u, 0.0)
    rhs = c**2 * sys_.nonlinear_rhs(u, 0.0)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_vector_field_conserves_mean():
    sys_ = periodic_system(n=48)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(48)
    rate = -apply_symbol(sys_.linear_symbol, u) + sys_.nonlinear_rhs(u, 0.0)
    assert abs(rate.sum()) <= 1e-9 * max(1.0, np.abs(u).max()) * np.abs(dense_linear(sys_)).max()


# -------------------------------------------------------- boundary handling


def assert_reduced(sys_):
    assert sys_.state_size == 39
    assert np.array_equal(sys_.active_nodes(), sys_.grid.nodes()[1:-1])
    assert sys_.linear_symbol.shape == sys_.d1_symbol.shape == (39,)
    full = sys_.full_state(np.ones(39), 0.5)
    assert full.shape == (41,) and np.all(full[1:-1] == 1.0)
    return full


def test_homogeneous_system_is_reduced():
    full = assert_reduced(reduced_system(n=41))
    assert full[0] == 0.0 and full[-1] == 0.0


def test_system_with_wall_data_is_reduced():
    assert_reduced(wave_system(n=41))


def test_homogeneous_initial_state_vanishes_at_walls():
    sys_ = reduced_system(n=41)
    u0 = sys_.initial_state(lambda x: -np.sin(np.pi * x))
    full = sys_.full_state(u0, 0.0)
    assert full[0] == 0.0 and full[-1] == 0.0


def test_injected_initial_state_carries_boundary_data():
    sys_ = wave_system()
    u0 = sys_.initial_state(lambda x: example1_exact(x, 0.0))
    x = sys_.grid.nodes()
    assert np.array_equal(u0, example1_exact(x[1:-1], 0.0))
    full = sys_.full_state(u0, 0.0)
    assert full[0] == pytest.approx(example1_exact(x[0], 0.0), rel=1e-15)
    assert full[-1] == pytest.approx(example1_exact(x[-1], 0.0), rel=1e-15)


def test_full_state_fills_the_walls_from_the_data():
    sys_ = wave_system()
    u0 = sys_.initial_state(lambda x: example1_exact(x, 0.0))
    x = sys_.grid.nodes()
    for t in (0.0, 1.5):
        full = sys_.full_state(u0, t)
        assert full[0] == pytest.approx(example1_exact(x[0], t), rel=1e-15)
        assert full[-1] == pytest.approx(example1_exact(x[-1], t), rel=1e-15)
        assert np.array_equal(full[1:-1], u0)


def _smooth_case(n):
    """u = 2 + sin(x) + cos(x / 2) on [-3, 4]: nonzero at both walls, with its
    exact wall data, and the KS terms alpha u_xx + beta u_xxxx and -u u_x."""
    alpha, beta = -1.3, 0.7

    def derivatives(x):
        x = np.asarray(x, dtype=float)
        return np.array([2.0 + np.sin(x) + np.cos(x / 2), np.cos(x) - np.sin(x / 2) / 2,
                         -np.sin(x) - np.cos(x / 2) / 4, np.sin(x) + np.cos(x / 2) / 16])

    def wall_data(x, t):
        return derivatives(x)

    grid = Grid(-3.0, 4.0, n, BoundaryScheme.DIRICHLET)
    u, u_x, u_xx, u_xxxx = derivatives(grid.interior_nodes())
    return grid, wall_data, u, alpha * u_xx + beta * u_xxxx, -u * u_x, (alpha, beta)


def _lifted_errors(n):
    """|lifted L u - (alpha u_xx + beta u_xxxx)| and |lifted F(u) + u u_x| per node."""
    grid, wall_data, u, linear_exact, transport_exact, (alpha, beta) = _smooth_case(n)
    # -L u + F(u) is affine in (alpha, beta) with the transport part fixed:
    # two parameter sets separate the lifted L u from the lifted F(u)
    rates = []
    for scale in (1.0, 2.0):
        sys_ = assemble(KseParameters(scale * alpha, scale * beta), grid, wall_data)
        rates.append(sys_.nonlinear_rhs(u, 0.0) - apply_linear(sys_, u))
    return (grid.interior_nodes(), np.abs(rates[0] - rates[1] - linear_exact),
            np.abs(2.0 * rates[0] - rates[1] - transport_exact))


def test_lifted_transport_is_fourth_order_at_every_interior_node():
    _, _, coarse = _lifted_errors(81)
    _, _, fine = _lifted_errors(161)
    # the node next to each wall, then every node
    for pick in (0, -1, slice(None)):
        assert np.log2(np.max(coarse[pick]) / np.max(fine[pick])) >= 3.5, pick


def test_lifted_linear_operator_orders():
    # D2 applied to D2 u: the error of D2 u carries an O(h^4) layer that
    # shrinks tenfold per node from each wall (the root -5 + sqrt(24) of the
    # implicit stencil), and the outer D2 turns it into O(h^2) at the nodes
    # next to the walls.  Zero wall data has the same layer wherever u^(6)
    # does not vanish at the wall.  A node a fixed distance inside is fourth
    # order.
    x_coarse, coarse, _ = _lifted_errors(81)
    x_fine, fine, _ = _lifted_errors(161)
    inside = [(x >= -2.0) & (x <= 3.0) for x in (x_coarse, x_fine)]
    assert np.log2(coarse[inside[0]].max() / fine[inside[1]].max()) >= 3.5
    for wall_node in (0, -1):
        assert np.log2(coarse[wall_node] / fine[wall_node]) >= 1.8
    assert fine.max() < 1e-5


def test_wall_term_is_affine_in_the_wall_data():
    grid, wall_data, u, *_ = _smooth_case(21)
    sys_ = assemble(KseParameters(1.0, 1.0), grid, wall_data)
    plain = assemble(KseParameters(1.0, 1.0), grid)
    assert sys_.wall_matrix.shape == (19, 12)
    assert np.array_equal(sys_.nonlinear_rhs(u, 0.0),
                          plain.nonlinear_rhs(u, 0.0) + sys_.wall_term(0.0))
