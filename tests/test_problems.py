import json
import math
from pathlib import Path

import numpy as np
import pytest

from imexks.compact_fd import BoundaryScheme
from imexks.problems import (
    EXAMPLE1_MU,
    SWEEP_BETAS_PROBLEM4,
    TABLE_BETA_PROBLEM4,
    example1_exact,
    example1_wall_data,
    make_problem,
)
from imexks.stepper import integrate


def test_wave_center_value():
    assert example1_exact(-25.0, 0.0) == pytest.approx(EXAMPLE1_MU, abs=1e-14)


def test_far_field_limit():
    # tanh -> 1 gives mu + (15 - 45) / 19^(3/2)
    limit = 5.0 - 30.0 / 19.0**1.5
    assert example1_exact(1e6, 0.0) == pytest.approx(limit, abs=1e-12)
    assert limit == pytest.approx(4.63776, abs=5e-6)


def test_traveling_wave_property():
    x, t, dt = 3.7, 1.2, 0.9
    assert example1_exact(x, t) == pytest.approx(
        example1_exact(x - EXAMPLE1_MU * dt, t - dt), abs=1e-14)


def test_exact_solution_satisfies_pde():
    """Finite-difference residual of u_t + u u_x - u_xx + u_xxxx at random points.

    Order-four central stencils keep both truncation (the wave moves at speed
    five, so low-order time differences are the weak spot) and roundoff below
    the 1e-6 budget.
    """
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-40.0, 40.0, 100)
    ts = rng.uniform(0.0, 10.0, 100)
    d = 0.03
    worst = 0.0
    for x, t in zip(xs, ts):
        u = example1_exact(x, t)
        tt = example1_exact(x, t + d * np.arange(-2, 3))
        u_t = (tt[0] - 8 * tt[1] + 8 * tt[3] - tt[4]) / (12 * d)
        s = example1_exact(x + d * np.arange(-3, 4), t)
        u_x = (s[1] - 8 * s[2] + 8 * s[4] - s[5]) / (12 * d)
        u_xx = (-s[1] + 16 * s[2] - 30 * s[3] + 16 * s[4] - s[5]) / (12 * d**2)
        u_xxxx = (-s[0] / 6 + 2 * s[1] - 13 * s[2] / 2 + 28 * s[3] / 3
                  - 13 * s[4] / 2 + 2 * s[5] - s[6] / 6) / d**4
        worst = max(worst, abs(u_t + u * u_x - u_xx + u_xxxx))
    assert worst <= 1e-6


def test_problem1_spec():
    spec = make_problem(1)
    assert spec.domain == (-50.0, 50.0)
    assert spec.params.alpha == -1.0 and spec.params.beta == 1.0
    assert spec.scheme is BoundaryScheme.DIRICHLET
    assert spec.exact_solution is not None
    assert spec.boundary_values is example1_wall_data
    walls = np.array([-50.0, 50.0])
    assert spec.boundary_values(walls, 0.5)[0] == pytest.approx(example1_exact(walls, 0.5),
                                                                rel=1e-15)


def test_wall_data_derivatives():
    # u_x and u_xx against central differences; u_xxxx through the PDE, which
    # for the traveling wave (u_t = -mu u_x) reads
    # -mu u_x + u u_x - u_xx + u_xxxx = 0
    rng = np.random.default_rng(7)
    x, t, d = rng.uniform(-60.0, 60.0, 50), rng.uniform(0.0, 12.0, 50), 1e-3
    u, u_x, u_xx, u_xxxx = example1_wall_data(x, t)
    assert np.abs(u - example1_exact(x, t)).max() <= 1e-14
    s = [example1_exact(x + j * d, t) for j in (-2, -1, 1, 2)]
    assert np.abs(u_x - (s[0] - 8 * s[1] + 8 * s[2] - s[3]) / (12 * d)).max() <= 1e-11
    assert np.abs(u_xx - (s[1] - 2 * u + s[2]) / d**2).max() <= 1e-7
    assert np.abs(-EXAMPLE1_MU * u_x + u * u_x - u_xx + u_xxxx).max() <= 1e-13
    assert np.abs(u_xxxx).max() > 1e-4


def test_problem2_spec():
    spec = make_problem(2)
    assert spec.scheme is BoundaryScheme.PERIODIC
    assert spec.domain == (0.0, 32.0 * math.pi)
    assert spec.initial_condition(0.0) == pytest.approx(1.0)
    # 32 pi periodic initial data
    assert spec.initial_condition(0.0) == pytest.approx(
        spec.initial_condition(32.0 * math.pi), abs=1e-14)


def test_problem3_spec():
    spec = make_problem(3)
    assert spec.initial_condition(0.0) == pytest.approx(1.0)
    # exp(-900) underflows to an exact 0.0
    assert spec.initial_condition(np.array([-30.0, 30.0])).tolist() == [0.0, 0.0]
    assert spec.boundary_values is None  # zero wall data: no wall term


def test_problem4_spec_and_grid():
    spec = make_problem(4)
    assert spec.params.beta == 1.1
    assert abs(spec.initial_condition(-1.0)) <= 1e-15
    assert abs(spec.initial_condition(1.0)) <= 1e-15
    grid = spec.grid(41)
    assert grid.h == pytest.approx(0.05)
    assert TABLE_BETA_PROBLEM4 == pytest.approx(1.1 / math.pi**2)
    # the acceptance gate sweeps the betas that configs/beta_sweep_*.json run
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("beta_sweep_*.json"))
    assert [json.loads(path.read_text())["beta"] for path in configs] == list(SWEEP_BETAS_PROBLEM4)


def test_problem4_beta_override():
    spec = make_problem(4, beta=TABLE_BETA_PROBLEM4)
    assert spec.params.beta == pytest.approx(1.1 / math.pi**2)


def test_beta_override_restricted_to_problem4():
    with pytest.raises(ValueError):
        make_problem(2, beta=0.5)


def test_unknown_problem_id():
    with pytest.raises(ValueError):
        make_problem(5)


def test_build_system_scheme_selection():
    assert make_problem(2).build_system(32).state_size == 32
    for problem_id, n in ((1, 26), (3, 31), (4, 41)):
        sys_ = make_problem(problem_id).build_system(n)
        assert sys_.state_size == n - 2
        assert (sys_.wall_matrix is None) == (problem_id != 1)


@pytest.mark.parametrize("problem_id", [1, 3])
def test_dirichlet_grids_below_seven_points_are_rejected(problem_id):
    spec = make_problem(problem_id)
    for n_points in range(3, 7):
        with pytest.raises(ValueError, match="needs at least 7 points"):
            spec.build_system(n_points)
    sys_ = spec.build_system(7)
    assert np.isfinite(integrate(sys_, spec.initial_state(sys_), 0.01, 0.1)).all()


def test_initial_state_respects_boundaries():
    spec = make_problem(4)
    sys_ = spec.build_system(41)
    u0 = spec.initial_state(sys_)
    full = sys_.full_state(u0, 0.0)
    assert full[0] == 0.0 and full[-1] == 0.0
    spec1 = make_problem(1)
    sys1 = spec1.build_system(26)
    full = sys1.full_state(spec1.initial_state(sys1), 0.0)
    assert full[0] == pytest.approx(example1_exact(-50.0, 0.0), rel=1e-15)
    assert full[1] == example1_exact(-46.0, 0.0)
