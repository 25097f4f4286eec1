import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexks.compact_fd import BoundaryScheme, Grid, build_first_derivative, build_second_derivative
from imexks.problems import example1_exact
from imexks.system import KseParameters, assemble, dense_operators


def periodic_system(alpha=1.0, beta=1.0, n=64, length=32 * np.pi):
    grid = Grid(0.0, length, n, BoundaryScheme.PERIODIC)
    return assemble(KseParameters(alpha, beta), grid)


def injected_system(n=26):
    grid = Grid(-50.0, 50.0, n, BoundaryScheme.DIRICHLET)
    return assemble(KseParameters(-1.0, 1.0), grid, boundary_values=example1_exact)


def reduced_system(n=41, alpha=1.0, beta=1.1):
    grid = Grid(-1.0, 1.0, n, BoundaryScheme.DIRICHLET)
    return assemble(KseParameters(alpha, beta), grid)


def apply_symbol(symbol, u):
    """Apply a periodic operator given by its rfft-frequency symbol."""
    return np.fft.irfft(symbol * np.fft.rfft(u), n=len(u))


def dense_linear(sys_):
    return dense_operators(sys_.params, sys_.grid, sys_.homogeneous)[0]


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
    assert sys_.linear_matrix is None and sys_.d1_matrix is None
    assert sys_.linear_symbol.shape == sys_.d1_symbol.shape == (n // 2 + 1,)
    dense = dense_linear(sys_)
    eig = np.fft.fft(dense[:, 0])[: n // 2 + 1]
    assert np.abs(eig - sys_.linear_symbol).max() <= 1e-13 * np.abs(sys_.linear_symbol).max()


def test_dirichlet_assembly_is_alpha_d2_plus_beta_d4():
    grid = Grid(-1.0, 1.0, 21, BoundaryScheme.DIRICHLET)
    sys_ = assemble(KseParameters(2.0, 0.5), grid, boundary_values=lambda x, t: 0.0)
    d2 = build_second_derivative(grid)
    expected = 2.0 * d2 + 0.5 * (d2 @ d2)
    assert np.array_equal(sys_.linear_matrix, expected)


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


def test_apply_boundary_sets_exact_band_values():
    sys_ = injected_system()
    x = sys_.grid.nodes()
    u = np.zeros(sys_.state_size)
    out = sys_.apply_boundary(u, 1.5)
    for i in (0, 1, -2, -1):
        assert out[i] == pytest.approx(example1_exact(x[i], 1.5), rel=1e-15)
    assert np.all(out[2:-2] == 0.0)


def test_apply_boundary_is_idempotent():
    sys_ = injected_system()
    rng = np.random.default_rng(2)
    u = rng.standard_normal(sys_.state_size)
    once = sys_.apply_boundary(u, 0.3)
    assert np.array_equal(sys_.apply_boundary(once, 0.3), once)


def test_apply_boundary_rejected_for_periodic():
    sys_ = periodic_system()
    with pytest.raises(ValueError):
        sys_.apply_boundary(np.zeros(sys_.state_size), 0.0)


def test_homogeneous_system_is_reduced():
    sys_ = reduced_system(n=41)
    assert sys_.homogeneous
    assert sys_.state_size == 39
    assert len(sys_.active_nodes()) == 39
    full = sys_.full_state(np.ones(39))
    assert full.shape == (41,)
    assert full[0] == 0.0 and full[-1] == 0.0


def test_homogeneous_initial_state_vanishes_at_walls():
    sys_ = reduced_system(n=41)
    u0 = sys_.initial_state(lambda x: -np.sin(np.pi * x))
    full = sys_.full_state(u0)
    assert full[0] == 0.0 and full[-1] == 0.0


def test_injected_initial_state_carries_boundary_data():
    sys_ = injected_system()
    u0 = sys_.initial_state(lambda x: example1_exact(x, 0.0))
    x = sys_.grid.nodes()
    assert u0[0] == pytest.approx(example1_exact(x[0], 0.0), rel=1e-15)
    assert u0[-1] == pytest.approx(example1_exact(x[-1], 0.0), rel=1e-15)
