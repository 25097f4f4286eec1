import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_operators, step_dense_reference
from etdrk4 import etdrk4
from imexks import problems, stepper
from imexks.compact_fd import BoundaryScheme, Grid
from imexks.stepper import (
    InstabilityError,
    integrate,
    prepare,
    scalar_amplification,
    step,
)
from imexks.system import KseParameters, assemble

SQ3 = math.sqrt(3.0)


def _identity(v):
    return np.asarray(v, dtype=float)


class ScalarSystem:
    """1-d linear test system u' = -lam u (+ optional explicit r u); its one
    mode is the state itself, so the transform pair is the identity."""

    forward = inverse = check_state = staticmethod(_identity)

    def __init__(self, lam, r_coeff=0.0):
        self.linear_symbol = np.array([float(lam)])
        self.r_coeff = float(r_coeff)
        self.state_size = 1

    def transformed_wall_term(self, t):
        return None

    def stage_rhs(self, u, wall_hat):
        return self.r_coeff * u


def r22(z):
    return (12.0 - 6.0 * z + z * z) / (12.0 + 6.0 * z + z * z)


# the names of the workspace's seven stage multipliers, in order
MULTIPLIERS = ("w1_half", "omega1_half", "omega2_half", "w1", "w11", "w21", "w31")


def named(ws):
    return dict(zip(MULTIPLIERS, ws.multipliers))


# ------------------------------------------------------- stage functions

# the paper's partial-fraction constants in closed form: the upper stage poles
# and the residue weights of the stage rationals there
POLE, POLE_HALF = complex(-3.0, SQ3), complex(-6.0, 2.0 * SQ3)
RESIDUES = {
    "w1": complex(-6.0, -6.0 * SQ3), "w11": complex(0.0, -2.0 * SQ3),
    "w21": complex(0.5, -SQ3 / 2.0), "w31": complex(1.0, -1.0 / SQ3),
    "w1_half": complex(-12.0, -12.0 * SQ3), "omega1_half": complex(0.0, -2.0 * SQ3),
    "omega2_half": complex(1.0, -SQ3),
}


def test_poles_are_roots_of_stage_denominators():
    # the guarded poles are where the stage functions blow up: P1 of the
    # full step at +-POLE, P1_half at +-POLE_HALF (sampled 1e-7 away)
    for pole, index in ((POLE, 4), (POLE.conjugate(), 4), (POLE_HALF, 1),
                        (POLE_HALF.conjugate(), 1)):
        assert abs(stepper.stage_functions(pole + 1e-7)[index]) > 1e6
        with pytest.raises(ValueError):
            scalar_amplification(0.5, -pole)


def test_partial_fraction_identities_on_real_axis():
    # for real z = k lam each multiplier is 2 Re(w / (z - c)) of the paper's
    # residue w and pole c, times k for the weights of F
    k = 0.5
    z = np.linspace(0.0, 30.0, 200)
    ws = named(prepare(types.SimpleNamespace(linear_symbol=z / k), k))
    for name, w in RESIDUES.items():
        pole = POLE_HALF if name.endswith("half") else POLE
        scale = 1.0 if name in ("w1", "w1_half") else k
        assert np.abs(ws[name] - 2.0 * scale * (w / (z - pole)).real).max() <= 1e-12, name


def test_mean_conservation_identity():
    # -w1 / c1 is imaginary, so 2 Re(w1 / (0 - c1)) = R(0) - 1 vanishes: the
    # zero mode (lam = 0) passes the linear stages unchanged
    ws = named(prepare(ScalarSystem(0.0), 0.25))
    assert ws["w1"][0] == 0.0 and ws["w1_half"][0] == 0.0


# ---------------------------------------------------------------- prepare


def test_prepare_scalar_pole_shift():
    # each multiplier, 2 Re(w / (z - c)) with the pole c shifted by z = k lam,
    # is its rational stage function at z
    k, lam = 0.5, 2.0
    z = k * lam
    den, den_h = 12.0 + 6.0 * z + z * z, 48.0 + 12.0 * z + z * z
    ws = named(prepare(ScalarSystem(lam), k))
    expected = {
        "w1": r22(z) - 1.0, "w11": 12.0 * k / den, "w21": k * (6.0 + z) / den,
        "w31": 2.0 * k * (4.0 + z) / den, "w1_half": (48.0 - 12.0 * z + z * z) / den_h - 1.0,
        "omega1_half": 24.0 * k / den_h, "omega2_half": 2.0 * k * (12.0 + z) / den_h,
    }
    for name, value in expected.items():
        assert ws[name][0] == pytest.approx(value, rel=1e-14), name


def test_prepare_factorization_residual():
    # on both boundary kinds, u + (the w1 multipliers applied through the
    # system's transform) is the Pade rational num/den of the dense kL
    for problem_id, n_points, k in ((2, 64, 0.125), (3, 51, 0.01)):
        sys_ = problems.make_problem(problem_id).build_system(n_points)
        ws = named(prepare(sys_, k))
        z = k * dense_operators(sys_.params, sys_.grid)[0]
        eye = np.eye(sys_.state_size)
        b = np.random.default_rng(5).standard_normal(sys_.state_size)
        for multiplier, num, den in (
                (ws["w1"], 12.0 * eye - 6.0 * z + z @ z, 12.0 * eye + 6.0 * z + z @ z),
                (ws["w1_half"], 48.0 * eye - 12.0 * z + z @ z, 48.0 * eye + 12.0 * z + z @ z)):
            x = b + sys_.inverse(multiplier * sys_.forward(b))
            assert np.abs(den @ x - num @ b).max() <= 1e-10 * np.abs(num @ b).max(), problem_id


def held_arrays(ws, sys_):
    """The arrays the workspace and the system hold, with those in the
    workspace's multiplier tuple and captured in the system's closures."""
    fields = [v for obj in (ws, sys_) for v in vars(obj).values()] + list(ws.multipliers)
    captured = [cell.cell_contents for v in fields
                for cell in getattr(v, "__closure__", None) or ()]
    return [v for v in fields + captured if isinstance(v, np.ndarray)]


def test_periodic_prepare_holds_only_order_n_arrays():
    n = 4096
    sys_ = problems.make_problem(2).build_system(n)
    ws = prepare(sys_, 0.25)
    arrays = held_arrays(ws, sys_)
    assert len(arrays) == 2 + 7  # the L and transport symbols, the seven stage multipliers
    assert all(a.ndim == 1 and a.size <= n for a in arrays)


def test_dirichlet_prepare_holds_only_order_n_arrays():
    # problem 1 at h = 1/16: besides the N x 12 wall matrix, only vectors
    n = 1601
    sys_ = problems.make_problem(1).build_system(n)
    ws = prepare(sys_, 0.0625 / 160)
    arrays = held_arrays(ws, sys_)
    # the L symbol, the phases of the forward, inverse and transport
    # transforms, the seven stage multipliers and the wall matrix
    assert len(arrays) == 1 + 3 + 7 + 1
    assert sys_.wall_matrix.shape == (n - 2, 12)
    assert all(a.ndim == 1 and a.size <= n for a in arrays if a is not sys_.wall_matrix)


def test_prepare_rebuilds_for_new_step():
    sys_ = ScalarSystem(1.0)
    ws1 = prepare(sys_, 0.2)
    ws2 = prepare(sys_, 0.1)
    assert ws1.k != ws2.k
    assert not np.array_equal(named(ws1)["w1"], named(ws2)["w1"])


def test_prepare_rejects_bad_step():
    with pytest.raises(ValueError):
        prepare(ScalarSystem(1.0), 0.0)


# ------------------------------------------------------------------- step


@pytest.mark.parametrize("lam,k", [(2.0, 0.1), (5.0, 0.3), (-0.4, 0.05)])
def test_linear_step_reproduces_pade_ratio(lam, k):
    sys_ = ScalarSystem(lam)
    ws = prepare(sys_, k)
    u1 = step(ws, np.array([1.0]), 0.0)
    assert u1[0] == pytest.approx(r22(k * lam), rel=1e-13)


def test_zero_is_a_fixed_point():
    grid = Grid(0.0, 32 * np.pi, 32, BoundaryScheme.PERIODIC)
    sys_ = assemble(KseParameters(1.0, 1.0), grid)
    ws = prepare(sys_, 0.25)
    assert np.array_equal(step(ws, np.zeros(32), 0.0), np.zeros(32))


def test_periodic_step_conserves_mean():
    spec = problems.make_problem(2)
    sys_ = spec.build_system(64)
    u = spec.initial_state(sys_)
    ws = prepare(sys_, 0.25)
    u1 = step(ws, u, 0.0)
    assert abs(u1.mean() - u.mean()) <= 1e-12


def test_mean_conserved_over_hundred_steps():
    spec = problems.make_problem(2)
    sys_ = spec.build_system(128)
    u = spec.initial_state(sys_)
    mean0 = u.mean()
    ws = prepare(sys_, 0.25)
    for j in range(100):
        u = step(ws, u, j * 0.25)
    assert abs(u.mean() - mean0) <= 1e-9


# ------------------------------------------------------------- dense oracle


def test_dense_reference_scalar_reduces_to_pade():
    # one Fourier mode at tiny amplitude: L acts as its eigenvalue and the
    # quadratic term sinks far below the tolerance
    n, q, k = 12, 3, 0.02
    grid = Grid(0.0, 2 * np.pi, n, BoundaryScheme.PERIODIC)
    sys_ = assemble(KseParameters(1.0, 1.0), grid)
    theta = 2 * np.pi * q / n
    lam2 = (12.0 / grid.h**2) * (2 * np.cos(theta) - 2.0) / (10.0 + 2 * np.cos(theta))
    u0 = 1e-14 * np.cos(theta * np.arange(n))
    u1 = step_dense_reference(sys_, u0, 0.0, k)
    assert u1 == pytest.approx(r22(k * (lam2 + lam2**2)) * u0, rel=1e-13, abs=1e-13 * 1e-14)


def test_step_matches_dense_reference_periodic():
    spec = problems.make_problem(2)
    sys_ = spec.build_system(64)
    u0 = spec.initial_state(sys_)
    ws = prepare(sys_, 0.125)
    u_pf = step(ws, u0, 0.0)
    u_dense = step_dense_reference(sys_, u0, 0.0, 0.125)
    assert np.abs(u_pf - u_dense).max() <= 1e-9 * np.abs(u_pf).max()


def test_step_matches_dense_reference_dirichlet():
    spec = problems.make_problem(3)
    sys_ = spec.build_system(51)
    u0 = spec.initial_state(sys_)
    ws = prepare(sys_, 0.01)
    u_pf = step(ws, u0, 0.0)
    u_dense = step_dense_reference(sys_, u0, 0.0, 0.01)
    assert np.abs(u_pf - u_dense).max() <= 1e-9 * max(np.abs(u_pf).max(), 1e-30)


def test_step_matches_dense_reference_injected():
    # problem 1: the wall data enter F as the wall term on both paths; a
    # first step on a coarse grid, then a step at t = 3 on the h = 0.5 grid
    spec = problems.make_problem(1)
    for n, k, t_n in ((26, 0.025, 0.0), (201, 0.01, 3.0)):
        sys_ = spec.build_system(n)
        u0 = spec.exact_solution(sys_.active_nodes(), t_n)
        u_pf = step(prepare(sys_, k), u0, t_n)
        u_dense = step_dense_reference(sys_, u0, t_n, k)
        assert np.abs(u_pf - u_dense).max() <= 1e-9 * np.abs(u_pf).max(), n


@settings(max_examples=25, deadline=None)
@given(n_points=st.integers(7, 160), walls=st.booleans(), k=st.sampled_from([0.005, 0.02, 0.1]),
       t_n=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_step_matches_dense_reference_on_drawn_dirichlet_grids(n_points, walls, k, t_n, seed):
    # problem 1 carries wall data, problem 3 has zero wall data; the state is
    # the exact wave (or zero) plus a random perturbation of unit size
    spec = problems.make_problem(1 if walls else 3)
    sys_ = spec.build_system(n_points)
    x = sys_.active_nodes()
    u0 = np.random.default_rng(seed).standard_normal(x.size)
    if walls:
        u0 += spec.exact_solution(x, t_n)
    u_pf = step(prepare(sys_, k), u0, t_n)
    u_dense = step_dense_reference(sys_, u0, t_n, k)
    assert np.abs(u_pf - u_dense).max() <= 1e-9 * np.abs(u_dense).max()


def test_dense_reference_tracks_matrix_exponential_for_linear_part():
    # tiny amplitude makes the quadratic term negligible against the k^5 bound
    grid = Grid(0.0, 2 * np.pi, 12, BoundaryScheme.PERIODIC)
    sys_ = assemble(KseParameters(1.0, 1.0), grid)
    linear, _ = dense_operators(sys_.params, grid)
    rng = np.random.default_rng(0)
    u0 = 1e-9 * rng.standard_normal(12)
    for k in (2e-3, 1e-3):
        expm = scipy.linalg.expm(-k * linear)
        u_ref = step_dense_reference(sys_, u0, 0.0, k)
        z_norm = np.linalg.norm(k * linear, np.inf)
        assert np.abs(u_ref - expm @ u0).max() <= z_norm**5 * np.abs(u0).max()


def test_dense_reference_size_guard():
    grid = Grid(0.0, 32 * np.pi, 600, BoundaryScheme.PERIODIC)
    sys_ = assemble(KseParameters(1.0, 1.0), grid)
    with pytest.raises(ValueError):
        step_dense_reference(sys_, np.zeros(600), 0.0, 0.1)


# ------------------------------------------------------ periodic symmetries


def _periodic_workspace(n, k):
    grid = Grid(0.0, 32 * np.pi, n, BoundaryScheme.PERIODIC)
    return prepare(assemble(KseParameters(1.0, 1.0), grid), k)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=20, deadline=None)
@given(half=st.integers(4, 64), k=st.sampled_from([0.05, 0.125, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_one_node_shift_commutes_with_step(parity, half, k, seed):
    n = 2 * half + parity
    u = np.random.default_rng(seed).standard_normal(n)
    ws = _periodic_workspace(n, k)
    expected = np.roll(step(ws, u, 0.0), 1)
    shifted = step(ws, np.roll(u, 1), 0.0)
    assert np.abs(shifted - expected).max() <= 1e-12 * np.abs(expected).max()


def _reflection_case(case, half, k):
    """Workspace and mirror index of u(x) -> -u(-x) for one input of the test."""
    if case in (0, 1):
        # periodic grid x_i = i h of parity ``case``: u_i goes to -u_{(-i) mod n}
        n = 2 * half + case
        return _periodic_workspace(n, k), (-np.arange(n)) % n
    # homogeneous Dirichlet on a symmetric domain: the interior reverses.
    # Problem 4 runs at its table beta and 1/50 of the step, the range of its
    # table; at k = 0.25 the conditioning of its stiff shifted matrices alone
    # lifts the roundoff of the dense solves to ~5e-12
    spec, n, k = {
        "dirichlet-p3": (problems.make_problem(3), 101, k),
        "dirichlet-p4": (problems.make_problem(4, beta=problems.TABLE_BETA_PROBLEM4), 41, k / 50),
    }[case]
    sys_ = spec.build_system(n)
    return prepare(sys_, k), np.arange(sys_.state_size)[::-1]


@pytest.mark.parametrize("case", [0, 1, "dirichlet-p3", "dirichlet-p4"])
@settings(max_examples=20, deadline=None)
@given(half=st.integers(4, 64), k=st.sampled_from([0.05, 0.125, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_reflection_commutes_with_step(case, half, k, seed):
    # u(x) -> -u(-x) maps KS solutions to solutions
    ws, mirror = _reflection_case(case, half, k)
    u = np.random.default_rng(seed).standard_normal(ws.sys.state_size)
    expected = -step(ws, u, 0.0)[mirror]
    reflected = step(ws, -u[mirror], 0.0)
    assert np.abs(reflected - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("problem_id,beta,k,t_final,sizes", [
    (2, None, 0.05, 5.0, (64, 128, 256, 512)),
    (4, problems.TABLE_BETA_PROBLEM4, 1e-3, 0.5, (11, 21, 41, 81)),
], ids=["periodic", "homogeneous-dirichlet"])
def test_spatial_self_convergence_is_fourth_order(problem_id, beta, k, t_final, sizes):
    # every node of a grid is every other node of the next one.  Halving k
    # moves the final states by <= 4e-9, far below the differences measured
    spec = problems.make_problem(problem_id, beta=beta)
    finals = []
    for n in sizes:
        sys_ = spec.build_system(n)
        u = integrate(sys_, spec.initial_state(sys_), k, t_final)
        finals.append(sys_.full_state(u, t_final))
    diffs = [np.abs(coarse - fine[::2]).max() for coarse, fine in zip(finals, finals[1:])]
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert np.all((orders >= 3.5) & (orders <= 4.6)), orders


def _problem1_error(n_points, k, t_final):
    spec = problems.make_problem(1)
    sys_ = spec.build_system(n_points)
    u = integrate(sys_, spec.initial_state(sys_), k, t_final)
    assert np.all(np.isfinite(u))
    return np.abs(u - spec.exact_solution(sys_.active_nodes(), t_final)).max()


@pytest.mark.parametrize("n_points,k,t_final", [(401, 0.01, 2.0), (801, 0.001, 0.5)])
def test_problem1_converges_on_fine_grids(n_points, k, t_final):
    # h = 0.25 and h = 0.125, below the table-1 grids: a wall treatment that
    # is unstable under refinement blows up here within a few steps
    assert _problem1_error(n_points, k, t_final) <= 1e-6


def test_problem1_space_time_order_below_the_table_grids():
    # the table-1 ladder (k = h/160) continued from h = 0.5 to h = 0.0625
    errors = [_problem1_error(int(round(100.0 / h)) + 1, h / 160, 2.0)
              for h in (0.5, 0.25, 0.125, 0.0625)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(3.6 <= order <= 4.4 for order in orders), orders


def test_problem2_runs_at_two_to_the_sixteen():
    spec = problems.make_problem(2)
    sys_ = spec.build_system(2**16)
    ws = prepare(sys_, 0.25)
    u = spec.initial_state(sys_)
    for j in range(3):
        u = step(ws, u, j * 0.25)
    assert u.shape == (2**16,) and np.all(np.isfinite(u))


# --------------------------------------------------------------- integrate


def test_integrate_zero_steps_returns_initial_state():
    sys_ = ScalarSystem(1.0)
    u0 = np.array([0.7])
    assert np.array_equal(integrate(sys_, u0, 0.1, 0.0), u0)


def test_integrate_rejects_non_integer_step_count():
    sys_ = ScalarSystem(1.0)
    with pytest.raises(ValueError):
        integrate(sys_, np.array([1.0]), 0.3, 1.0)
    with pytest.raises(ValueError, match="not an integer multiple"):
        integrate(sys_, np.array([1.0]), 0.1, 1e308)  # t_final / k overflows to inf


@pytest.mark.parametrize("t_final", [-1.0, math.inf, math.nan])
def test_integrate_rejects_a_bad_final_time(t_final):
    with pytest.raises(ValueError, match="final time must be nonnegative"):
        integrate(ScalarSystem(1.0), np.array([1.0]), 0.1, t_final)


def test_integrate_rejects_mismatched_workspace():
    sys_ = ScalarSystem(1.0)
    ws = prepare(sys_, 0.1)
    with pytest.raises(ValueError):
        integrate(sys_, np.array([1.0]), 0.05, 1.0, workspace=ws)


@pytest.mark.parametrize("k", [0.0, -0.25, math.nan, math.inf])
def test_integrate_rejects_bad_step_before_counting_steps(k):
    with pytest.raises(ValueError, match="time step must be positive"):
        integrate(ScalarSystem(1.0), np.array([1.0]), k, 1.0)


@pytest.mark.parametrize("problem_id, n_points", [(2, 32), (1, 26)])
def test_states_that_are_not_one_dimensional_are_rejected(problem_id, n_points):
    spec = problems.make_problem(problem_id)
    sys_ = spec.build_system(n_points)
    u = spec.initial_state(sys_)
    ws = prepare(sys_, 0.25)
    for bad in (np.stack((u, u), axis=1), u[None, :], u[:-1], np.float64(1.0)):
        for call in (lambda: integrate(sys_, bad, 0.25, 0.5), lambda: step(ws, bad, 0.0),
                     lambda: sys_.full_state(bad, 0.0)):
            with pytest.raises(ValueError, match="state has shape"):
                call()


@pytest.mark.parametrize("problem_id, n_points", [(2, 64), (1, 26), (3, 41)])
def test_a_step_costs_nine_transforms_and_three_wall_evaluations(monkeypatch, problem_id,
                                                                  n_points):
    # guards the per-step work: one transform of u_n, one forward and one
    # inverse per stage, and the wall data once per distinct stage time
    counts = {"fft": 0, "walls": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft, "fft"))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft, "fft"))
    spec = problems.make_problem(problem_id)
    walls = None if spec.boundary_values is None else counted(spec.boundary_values, "walls")
    sys_ = assemble(spec.params, spec.grid(n_points), walls)
    u0 = spec.initial_state(sys_)
    ws = prepare(sys_, 0.125)
    counts.update(fft=0, walls=0)
    integrate(sys_, u0, 0.125, 1.0, workspace=ws)
    assert counts == {"fft": 9 * 8, "walls": 0 if walls is None else 3 * 8}


def test_integrate_observer_sees_every_step():
    sys_ = ScalarSystem(1.0)
    seen = []
    integrate(sys_, np.array([1.0]), 0.25, 1.0, observer=lambda t, u: seen.append(t))
    assert seen == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_integrate_matches_repeated_linear_ratio():
    sys_ = ScalarSystem(4.0)
    u = integrate(sys_, np.array([1.0]), 0.1, 1.0)
    assert u[0] == pytest.approx(r22(0.4) ** 10, rel=1e-12)


def test_non_finite_state_raises_instability():
    sys_ = ScalarSystem(1.0)
    ws = prepare(sys_, 0.1)
    with pytest.raises(InstabilityError):
        step(ws, np.array([np.inf]), 0.0)


@pytest.mark.parametrize("problem_id, n_points", [(2, 32), (1, 26), (3, 21)])
@pytest.mark.parametrize("bad_call", [1, 2, 3, 4])
def test_a_non_finite_f_in_any_stage_is_caught(problem_id, n_points, bad_call):
    # step checks only u_{n+1}: a NaN in the F of u_n, a, b or c (the 1st to
    # 4th transport call) must reach it
    spec = problems.make_problem(problem_id)
    sys_ = spec.build_system(n_points)
    calls = []

    def transport(v):
        calls.append(v)
        f = sys_.transport(v)
        return np.full_like(f, np.nan) if len(calls) == bad_call else f

    u_n = spec.initial_state(sys_)
    with pytest.raises(InstabilityError) as err:
        step(prepare(dataclasses.replace(sys_, transport=transport), 0.1), u_n, 0.0)
    assert err.value.max_abs == np.abs(u_n).max()


@pytest.mark.parametrize("n_points,k,step_index", [(32, 2.0, 8), (256, 4.0, 5)])
def test_genuine_blowup_is_reported_with_step_index(n_points, k, step_index):
    spec = problems.make_problem(2)
    sys_ = spec.build_system(n_points)
    u0 = spec.initial_state(sys_)
    with pytest.raises(InstabilityError, match=r"non-finite values in u_\{n\+1\}$") as err:
        integrate(sys_, u0, k, 80.0)
    assert err.value.step_index == step_index
    assert err.value.time == step_index * k


@pytest.mark.parametrize("t_n", [math.nan, math.inf])
@pytest.mark.parametrize("problem_id, n_points", [(1, 26), (2, 32)])
def test_step_rejects_a_non_finite_time(problem_id, n_points, t_n):
    spec = problems.make_problem(problem_id)
    sys_ = spec.build_system(n_points)
    with pytest.raises(ValueError, match="time"):
        step(prepare(sys_, 0.1), spec.initial_state(sys_), t_n)


def test_example3_self_difference_matches_expected_scale():
    spec = problems.make_problem(3)
    sys_ = spec.build_system(101)
    u0 = spec.initial_state(sys_)
    u_16 = integrate(sys_, u0, 0.01 / 16, 1.0)
    u_8 = integrate(sys_, u0, 0.01 / 8, 1.0)
    e_k = np.abs(u_16 - u_8).max()
    assert e_k == pytest.approx(8.613e-12, rel=0.5)


def test_example3_is_fourth_order_in_time_past_the_stiff_start():
    # from t = 0 the initial stiff transient lowers the orders of this ladder
    # to 4.21, 3.26, 2.92, 3.25 (the Pade factor has R(inf) = 1, so it does not
    # damp stiff modes).  From u(0.2), reached with a small step, they are 3.69,
    # 3.85, 3.93, 3.94
    spec = problems.make_problem(3)
    sys_ = spec.build_system(201)
    u_start = integrate(sys_, spec.initial_state(sys_), 1e-4, 0.2)
    finals = [integrate(sys_, u_start, 0.2 / 2**j, 1.8) for j in range(6)]  # to T = 2
    e_k = [np.abs(fine - coarse).max() for coarse, fine in zip(finals, finals[1:])]
    orders = np.log2(np.array(e_k[:-1]) / np.array(e_k[1:]))
    assert np.all(orders >= 3.5), orders


# ---------------------------------------------------- ETDRK4 as an oracle


@pytest.mark.parametrize("problem_id,beta,n_points,k,t_final,bound", [
    (1, None, 201, 0.003125, 2.0, 1e-11),
    (3, None, 101, 0.000625, 1.0, 1e-11),
    (4, problems.TABLE_BETA_PROBLEM4, 41, 0.000625, 1.0, 1e-11),
    (2, None, 256, 0.0078125, 10.0, 1e-9),
])
def test_imex_and_etdrk4_reach_the_same_semi_discrete_solution(problem_id, beta, n_points, k,
                                                               t_final, bound):
    # self-differences cannot see convergence to a wrong limit; an exponential
    # integrator on the same modes, wall data included, can
    spec = problems.make_problem(problem_id, beta=beta)
    sys_ = spec.build_system(n_points)
    u0 = spec.initial_state(sys_)
    imex = integrate(sys_, u0, k, t_final)
    assert np.abs(imex - etdrk4(sys_, u0, k, round(t_final / k))).max() <= bound


def test_imex_rk4_beats_etdrk4_at_table3s_finest_steps():
    # table 3's ladder against an IMEX reference at k = 0.0078125: ETDRK4 is
    # the more accurate at k = 0.25, the paper's scheme at 0.0625 and 0.03125
    spec = problems.make_problem(2)
    sys_ = spec.build_system(256)
    u0 = spec.initial_state(sys_)
    reference = integrate(sys_, u0, 0.0078125, 10.0)
    errors = {k: (np.abs(integrate(sys_, u0, k, 10.0) - reference).max(),
                  np.abs(etdrk4(sys_, u0, k, round(10.0 / k)) - reference).max())
              for k in (0.25, 0.125, 0.0625, 0.03125)}
    assert errors[0.25][1] < errors[0.25][0]
    assert errors[0.0625][0] < errors[0.0625][1] and errors[0.03125][0] < errors[0.03125][1]


# ---------------------------------------------------------- scalar analysis


def test_amplification_pole_guard():
    with pytest.raises(ValueError):
        scalar_amplification(0.5, complex(3.0, -SQ3))  # z = -y hits the full-step pole


def test_a_stability_of_linear_propagator():
    rng = np.random.default_rng(7)
    z = rng.uniform(0, 50, 500) + 1j * rng.uniform(-50, 50, 500)
    assert np.abs(r22(z)).max() <= 1.0


def test_pade_defect_is_order_five():
    # below |z| ~ 1e-2 the defect z^5/720 sinks under double roundoff, so the
    # ratio is sampled where it is measurable
    ratios = []
    for z in (1e-2, 3e-2, 1e-1):
        ratios.append(abs(r22(z) - math.exp(-z)) / z**5)
    assert max(ratios) / min(ratios) < 1.5  # stabilizes near the z^5 coefficient
    assert ratios[-1] == pytest.approx(1.0 / 720.0, rel=0.2)
