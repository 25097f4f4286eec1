import numpy as np
import pytest

from dense_reference import build_first_derivative, build_second_derivative, dense_walls
from imexks import linalg
from imexks.compact_fd import (
    BoundaryScheme,
    Grid,
    first_derivative_symbol,
    first_derivative_walls,
    second_derivative_symbol,
    second_derivative_walls,
    transforms,
)


def periodic_grid(n, a=0.0, b=2 * np.pi):
    return Grid(a, b, n, BoundaryScheme.PERIODIC)


def dirichlet_grid(n, a=0.0, b=1.0):
    return Grid(a, b, n, BoundaryScheme.DIRICHLET)


def d2_squared(grid):
    """The fourth derivative as the system assembles it: D2 applied twice."""
    d2 = build_second_derivative(grid)
    return d2 @ d2


def wall_part(grid, walls, wall_data):
    """The wall coupling, given on the DST-I modes, applied to the wall data at the nodes."""
    return transforms(grid)[1](walls @ wall_data)


def lifted_d1(grid, u, u_x):
    """D1 on a Dirichlet grid with the walls' u and u' fed in: u' at the interior."""
    return build_first_derivative(grid) @ u[1:-1] + wall_part(
        grid, first_derivative_walls(grid), (u[0], u[-1], u_x[0], u_x[-1]))


def lifted_d2(grid, u, u_xx):
    """D2 on a Dirichlet grid with the walls' u and u'' fed in."""
    return build_second_derivative(grid) @ u[1:-1] + wall_part(
        grid, second_derivative_walls(grid), (u[0], u[-1], u_xx[0], u_xx[-1]))


def lifted_d4(grid, u, zeros):
    """D2 applied to D2 u on a Dirichlet grid, for a u with zero u'' and u''''
    at the walls (constants and linears), so that D2 u is zero there too."""
    return lifted_d2(grid, np.r_[0.0, lifted_d2(grid, u, zeros), 0.0], zeros)


LIFTED = {build_first_derivative: lifted_d1, build_second_derivative: lifted_d2,
          d2_squared: lifted_d4}


# ---------------------------------------------------------------- grids


def test_grid_spacing_conventions():
    assert periodic_grid(32).h == pytest.approx(2 * np.pi / 32)
    assert dirichlet_grid(11).h == pytest.approx(0.1)
    assert dirichlet_grid(41, -1.0, 1.0).h == pytest.approx(0.05)
    assert len(dirichlet_grid(41, -1.0, 1.0).nodes()) == 41


def test_grid_rejects_bad_domain():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 16, BoundaryScheme.PERIODIC)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 2, BoundaryScheme.DIRICHLET)
    with pytest.raises(ValueError, match="must be an integer"):
        Grid(0.0, 1.0, 10.5, BoundaryScheme.PERIODIC)
    assert Grid(0.0, 1.0, np.int64(10), BoundaryScheme.PERIODIC).h == 0.1
    with pytest.raises(ValueError, match="must be a BoundaryScheme"):
        Grid(0.0, 1.0, 10, "periodic")


def test_minimum_sizes_enforced():
    with pytest.raises(ValueError):
        build_first_derivative(Grid(0.0, 1.0, 5, BoundaryScheme.DIRICHLET))
    with pytest.raises(ValueError):
        build_second_derivative(Grid(0.0, 1.0, 6, BoundaryScheme.DIRICHLET))
    with pytest.raises(ValueError):
        build_second_derivative(Grid(0.0, 1.0, 6, BoundaryScheme.PERIODIC))


# ------------------------------------------------- constant annihilation


@pytest.mark.parametrize("scheme", [BoundaryScheme.PERIODIC, BoundaryScheme.DIRICHLET])
@pytest.mark.parametrize("builder", [build_first_derivative, build_second_derivative,
                                     d2_squared])
def test_constants_are_annihilated(scheme, builder):
    grid = Grid(0.0, 1.0, 24, scheme)
    op = builder(grid)
    ones = np.ones(24)
    if scheme is BoundaryScheme.PERIODIC:
        out = op @ ones
    else:
        # the walls' u = 1 and zero derivatives enter through the wall couplings
        out = LIFTED[builder](grid, ones, np.zeros(24))
    assert np.abs(out).max() <= 1e-11 * np.abs(op).max()


def test_periodic_column_sums_vanish():
    grid = periodic_grid(32)
    for op in (build_first_derivative(grid), build_second_derivative(grid)):
        scale = np.abs(op).max()
        assert np.abs(op.sum(axis=0)).max() <= 1e-11 * scale


def test_dirichlet_linear_exactness_first_derivative():
    grid = dirichlet_grid(11)
    x = grid.nodes()
    assert np.abs(lifted_d1(grid, x, np.ones(11)) - 1.0).max() <= 1e-12


def test_dirichlet_quadratic_exactness_second_derivative():
    grid = dirichlet_grid(13)
    x = grid.nodes()
    assert np.abs(lifted_d2(grid, x**2, np.full(13, 2.0)) - 2.0).max() <= 1e-10


def test_fourth_derivative_annihilates_linears():
    grid = dirichlet_grid(13)
    d4 = lifted_d4(grid, grid.nodes(), np.zeros(13))
    assert np.abs(d4).max() <= 1e-11 * np.abs(d2_squared(grid)).max()


# ----------------------------------------------------- circulant structure


def test_periodic_operators_are_circulant():
    grid = periodic_grid(16)
    for m in (build_first_derivative(grid), build_second_derivative(grid), d2_squared(grid)):
        for shift in range(1, 16):
            assert np.abs(np.roll(np.roll(m, shift, 0), shift, 1) - m).max() <= 1e-11


def test_periodic_symmetry_types():
    grid = periodic_grid(16)
    d1 = build_first_derivative(grid)
    d2 = build_second_derivative(grid)
    assert np.abs(d1 + d1.T).max() <= 1e-12 * np.abs(d1).max()
    assert np.abs(d2 - d2.T).max() <= 1e-12 * np.abs(d2).max()


# ------------------------------------------------------- Fourier symbols


@pytest.mark.parametrize("n", [63, 64, 256])
@pytest.mark.parametrize("builder,symbol", [(build_first_derivative, first_derivative_symbol),
                                            (build_second_derivative, second_derivative_symbol)])
def test_symbol_matches_dense_circulant(n, builder, symbol):
    grid = periodic_grid(n, 0.0, 32 * np.pi)
    dense = builder(grid)
    s = symbol(grid)
    assert s.shape == (n // 2 + 1,)
    # eigenvalues of a circulant: the DFT of its first column
    eig = np.fft.fft(dense[:, 0])[: n // 2 + 1]
    assert np.abs(eig - s).max() <= 1e-13 * np.abs(s).max()
    u = np.random.default_rng(n).standard_normal(n)
    applied = np.fft.irfft(s * np.fft.rfft(u), n=n)
    assert np.abs(applied - dense @ u).max() <= 1e-13 * np.abs(dense @ u).max()


def test_symbols_on_dirichlet_grids_use_the_dst_angles():
    grid = dirichlet_grid(16)
    theta = np.pi * np.arange(1, 15) / 15
    c = 2.0 * np.cos(theta)
    assert first_derivative_symbol(grid) == pytest.approx(
        (3.0 / grid.h) * 2j * np.sin(theta) / (4.0 + c), rel=1e-14)
    assert second_derivative_symbol(grid) == pytest.approx(
        (12.0 / grid.h**2) * (c - 2.0) / (10.0 + c), rel=1e-14)


@pytest.mark.parametrize("m", [1, 2, 5, 64, 198, 199])
def test_dst1_is_the_sine_sum_and_idst1_inverts_it(m):
    # the Dirichlet transform pair on m interior nodes
    dst1, idst1, _ = transforms(dirichlet_grid(m + 2))
    x = np.random.default_rng(m).standard_normal(m)
    sines = np.sin(np.pi * np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) / (m + 1))
    assert np.abs(dst1(x) - sines @ x).max() <= 1e-13 * np.abs(sines @ x).max()
    assert np.abs(idst1(dst1(x)) - x).max() <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("n", [7, 8, 41, 200])
def test_wall_couplings_are_the_dst1_of_the_dense_columns(n):
    grid = dirichlet_grid(n)
    dst1 = transforms(grid)[0]
    for walls, dense in zip((first_derivative_walls(grid), second_derivative_walls(grid)),
                            dense_walls(grid)):
        expected = np.column_stack([dst1(column) for column in dense.T])
        assert np.abs(walls - expected).max() <= 1e-14 * np.abs(expected).max()


# ------------------------------------------------------ convergence orders


def _refinement_order(builder, testfun, dtestfun, sizes=(32, 64)):
    errs = []
    for n in sizes:
        grid = periodic_grid(n)
        x = grid.nodes()
        op = builder(grid)
        errs.append(np.abs(op @ testfun(x) - dtestfun(x)).max())
    return np.log2(errs[0] / errs[1])


def test_first_derivative_is_fourth_order():
    order = _refinement_order(build_first_derivative, np.sin, np.cos)
    assert 3.7 <= order <= 4.3


def test_second_derivative_is_fourth_order():
    order = _refinement_order(build_second_derivative, np.sin, lambda x: -np.sin(x))
    assert 3.7 <= order <= 4.3


def test_fourth_derivative_is_fourth_order():
    order = _refinement_order(d2_squared, np.sin, np.sin)
    assert 3.7 <= order <= 4.3


# ------------------------------------------------------ assembly equivalence


def _raw_periodic_second(n, h):
    idx = np.arange(n)
    lhs = np.zeros((n, n))
    rhs = np.zeros((n, n))
    lhs[idx, idx] = 10.0
    lhs[idx, (idx - 1) % n] = 1.0
    lhs[idx, (idx + 1) % n] = 1.0
    rhs[idx, idx] = -2.0
    rhs[idx, (idx - 1) % n] = 1.0
    rhs[idx, (idx + 1) % n] = 1.0
    return lhs, rhs * 12.0 / h**2


def test_fourth_derivative_matches_solve_route():
    grid = periodic_grid(24)
    lhs, rhs = _raw_periodic_second(24, grid.h)
    fact = linalg.lu_factor(lhs)
    via_solves = linalg.lu_solve(fact, rhs @ linalg.lu_solve(fact, rhs))
    d4 = d2_squared(grid)
    assert np.abs(d4 - via_solves).max() <= 1e-9 * np.abs(d4).max()


def test_product_of_materialized_factors_matches_solves():
    grid = periodic_grid(16)
    lhs, rhs = _raw_periodic_second(16, grid.h)
    fact = linalg.lu_factor(lhs)
    d2 = linalg.lu_solve(fact, rhs)
    product = d2 @ d2
    via_solves = linalg.lu_solve(fact, rhs @ linalg.lu_solve(fact, rhs))
    assert np.abs(product - via_solves).max() <= 1e-10 * np.abs(product).max()


# -------------------------------------------------------- Dirichlet operators


def test_interior_operators_require_dirichlet():
    # the wall couplings that complete the interior operators exist only on
    # grids with walls
    with pytest.raises(ValueError):
        first_derivative_walls(periodic_grid(16))
    with pytest.raises(ValueError):
        second_derivative_walls(periodic_grid(16))


def test_dirichlet_operators_are_interior_tridiagonal_relations():
    grid = dirichlet_grid(12)
    m, h = 10, grid.h
    lhs = 10.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
    rhs = (12.0 / h**2) * (-2.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1))
    d2 = build_second_derivative(grid)
    assert d2.shape == (m, m) and second_derivative_walls(grid).shape == (m, 4)
    assert np.abs(lhs @ d2 - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_interior_operator_shapes_and_accuracy():
    grid = dirichlet_grid(41, -1.0, 1.0)
    d1 = build_first_derivative(grid)
    d2 = build_second_derivative(grid)
    assert d1.shape == (39, 39)
    x = grid.nodes()[1:-1]
    # the truncated relations assume u, u' = 0 (D1) and u, u'' = 0 (D2) at the
    # walls; sin^2(pi x) satisfies the first pair, sin(pi x) the second
    u1 = np.sin(np.pi * x) ** 2
    assert np.abs(d1 @ u1 - np.pi * np.sin(2 * np.pi * x)).max() <= 2e-4
    u2 = np.sin(np.pi * x)
    assert np.abs(d2 @ u2 + np.pi**2 * np.sin(np.pi * x)).max() <= 2e-3


def test_interior_second_derivative_convergence():
    errs = []
    for n in (33, 65):
        grid = dirichlet_grid(n, -1.0, 1.0)
        x = grid.nodes()[1:-1]
        d2 = build_second_derivative(grid)
        errs.append(np.abs(d2 @ np.sin(np.pi * x) + np.pi**2 * np.sin(np.pi * x)).max())
    assert 3.7 <= np.log2(errs[0] / errs[1]) <= 4.3


def test_operators_are_read_only():
    op = build_first_derivative(periodic_grid(16))
    with pytest.raises(ValueError):
        op[0, 0] = 1.0
