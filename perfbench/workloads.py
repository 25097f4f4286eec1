"""The benchmark's workloads: what one pass runs, how it is timed from the
outside, and how its outputs are checked at the acceptance-gate tolerances.

Every pass calls the library through its public API only (``make_problem``,
``build_system``, ``initial_state``, ``prepare``, ``integrate`` with an
observer, ``cli.config_from_dict`` and ``cli.run``), so the same code runs with
and without the trace wrappers of :mod:`layers`.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from imexks import cli, problems, stepper
from imexks.stepper import InstabilityError

clock = time.perf_counter

# Bound before any trace wrapper is installed, so that the benchmark's own
# accuracy checks never count as library calls.
EXACT_PROBLEM1 = problems.example1_exact


@dataclass
class PassResult:
    """Timings, operation outcomes and accuracy figures of one pass."""

    wall_s: float
    loop_s: float
    steps: int = 0
    step_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    accuracy: Dict[str, float] = field(default_factory=dict)


@dataclass
class Run:
    """One operation: ``prepare`` plus ``integrate`` with a timestamping observer."""

    prepare_s: float
    stamps: List[float]
    final: Optional[np.ndarray]
    captured: Dict[int, np.ndarray]
    error: Optional[str] = None

    @property
    def loop_s(self) -> float:
        return self.stamps[-1] - self.stamps[0] if len(self.stamps) > 1 else 0.0

    @property
    def step_s(self) -> List[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def integrate_run(sys_, u0, k: float, t_final: float, capture=()) -> Run:
    """Prepare and integrate one (system, k); keeps copies of the states at ``capture`` steps."""
    t0 = clock()
    ws = stepper.prepare(sys_, k)
    prepare_s = clock() - t0
    stamps: List[float] = []
    captured: Dict[int, np.ndarray] = {}
    wanted = set(capture)

    def observer(_t, u):
        stamps.append(clock())
        if len(stamps) - 1 in wanted:
            captured[len(stamps) - 1] = np.array(u, copy=True)

    try:
        final = stepper.integrate(sys_, u0, k, t_final, observer=observer, workspace=ws)
    except InstabilityError as err:
        return Run(prepare_s, stamps, None, captured, f"InstabilityError at step {err.step_index}")
    if not np.all(np.isfinite(final)):
        return Run(prepare_s, stamps, final, captured, "non-finite final state")
    return Run(prepare_s, stamps, final, captured)


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _order(e_coarse: float, e_fine: float) -> float:
    return math.log2(e_coarse / e_fine) if e_coarse > 0 and e_fine > 0 else math.nan


def _in_band(value: float, ref: float, factor: float) -> bool:
    return ref / factor <= value <= ref * factor


# ---------------------------------------------------------------- periodic-n1024

PERIODIC_N = 1024
PERIODIC_KS = (0.25, 0.125)
PERIODIC_T = 4.0
PERTURB_MODES = 3
PERTURB_AMPLITUDE = 1e-3
MEAN_DRIFT_MAX = 1e-9  # criterion 9


class PeriodicN1024:
    """Problem 2 at N=1024: one build, then prepare + integrate at k=0.25 and k=0.125."""

    name = "periodic-n1024"
    solver = True

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.setup_samples: List[float] = []
        spec = problems.make_problem(2)
        x = spec.grid(PERIODIC_N).nodes()
        length = spec.domain[1] - spec.domain[0]
        rng = np.random.default_rng(seed % 2**63)  # any integer seed, negative too
        coeff = rng.uniform(-PERTURB_AMPLITUDE, PERTURB_AMPLITUDE, size=(PERTURB_MODES, 2))
        phase = 2.0 * np.pi * np.arange(1, PERTURB_MODES + 1)[:, None] * x[None, :] / length
        # whole low Fourier modes: the perturbation has zero mean on the grid
        self.perturbation = (coeff[:, :1] * np.cos(phase) + coeff[:, 1:] * np.sin(phase)).sum(axis=0)

    def warm_up(self):
        spec = problems.make_problem(2)
        sys_ = spec.build_system(32)
        integrate_run(sys_, spec.initial_state(sys_), 0.25, 1.0)

    def run_pass(self, mark: Callable[[], None]) -> PassResult:
        t0 = clock()
        spec = problems.make_problem(2)
        sys_ = spec.build_system(PERIODIC_N)
        u0 = spec.initial_state(sys_) + self.perturbation
        setup = clock() - t0
        runs = []
        for k in PERIODIC_KS:
            mark()
            runs.append(integrate_run(sys_, u0, k, PERIODIC_T))
        wall = clock() - t0

        self.setup_samples.append(setup + sum(r.prepare_s for r in runs))
        result = PassResult(wall_s=wall, loop_s=sum(r.loop_s for r in runs),
                            steps=sum(len(r.stamps) - 1 for r in runs),
                            step_s=[s for r in runs for s in r.step_s], attempted=len(runs))
        mean0 = float(np.mean(u0))
        for k, run in zip(PERIODIC_KS, runs):
            if run.error:
                result.failures.append(f"k={k}: {run.error}")
                continue
            drift = abs(float(np.mean(run.final)) - mean0)
            if not drift <= MEAN_DRIFT_MAX:
                result.failures.append(f"k={k}: mean drift {drift:.3e} > {MEAN_DRIFT_MAX:g}")
        if all(r.final is not None for r in runs):
            result.accuracy["e_k"] = _max_abs_diff(runs[1].final, runs[0].final)
        return result


# ---------------------------------------------------------------- paper-tables

@dataclass(frozen=True)
class Ladder:
    """One configs/tableN.json run list with the gate's checks on it.

    ``error`` is ``exact`` (max-norm error against the closed form), ``self``
    (E_k against the previous run, which is the 2k reference for the first
    listed k) or ``gre`` (global relative errors at ``gre_times``).
    ``refs[i]`` is the gate's reference error of run i, accepted within a
    factor ``band`` either way; ``orders`` = (low, high, first run) bands the
    observed orders from that run on.
    """

    name: str
    problem: int
    beta: Optional[float]
    runs: Tuple[Tuple[int, float], ...]
    t_final: float
    error: str
    refs: Tuple[Optional[float], ...] = ()
    band: float = 3.0
    orders: Optional[Tuple[float, float, int]] = None
    gre_times: Tuple[float, ...] = ()
    gre_ceiling: Tuple[float, ...] = ()


# The (problem, N, k, T) lists are those of configs/table1.json-table5.json,
# including the converge-time reference run at 2k; the tolerances are those of
# tests/test_acceptance.py criteria 1-5.  They are copied here so that a later
# change to the configs does not silently change the workload.
LADDERS = (
    Ladder("table1", 1, None, ((26, 0.025), (51, 0.0125), (101, 0.00625), (201, 0.003125)), 2.0,
           "exact", refs=(6.157e-03, 3.775e-04, 2.396e-05, 1.461e-06), orders=(3.6, 4.4, 0)),
    Ladder("table2", 1, None, ((200, 0.01),), 12.0, "gre",
           refs=(7.624e-08, 8.092e-08, 8.589e-08, 3.188e-07), band=10.0,
           gre_times=(6.0, 8.0, 10.0, 12.0),
           gre_ceiling=(1.625e-07, 1.940e-07, 2.229e-07, 5.314e-07)),  # published SBSC values
    Ladder("table3", 2, None, tuple((256, k) for k in (0.5, 0.25, 0.125, 0.0625, 0.03125)), 10.0,
           "self", refs=(None, None, 6.291e-05, 3.922e-06, 2.442e-07), orders=(3.6, 4.4, 2)),
    Ladder("table4", 3, None,
           tuple((101, k) for k in (0.01, 0.005, 0.0025, 0.00125, 0.000625)), 1.0,
           "self", orders=(3.5, 4.4, 1)),
    Ladder("table5", 4, 0.11145330086135769,
           tuple((41, k) for k in (0.005, 0.0025, 0.00125, 0.000625, 0.0003125)), 1.0,
           "self", orders=(3.5, 4.5, 1)),
)


def _gre(exact, numeric) -> float:
    return float(np.sum(np.abs(exact - numeric)) / np.sum(np.abs(exact)))


def check_ladder(ladder: Ladder, runs: List[Run], active_nodes: List[np.ndarray]):
    """Failures (one line per failed run) and the ladder's errors and observed orders."""
    failed: Dict[int, str] = {i: r.error for i, r in enumerate(runs) if r.error}
    errors: List[Optional[float]] = [None] * len(runs)
    for i, run in enumerate(runs):
        if i in failed:
            continue
        if ladder.error == "exact":
            exact = EXACT_PROBLEM1(active_nodes[i], ladder.t_final)
            errors[i] = _max_abs_diff(exact, run.final)
        elif ladder.error == "self" and i > 0:
            if runs[i - 1].error:
                failed[i] = "the run it is compared with failed"
                continue
            errors[i] = _max_abs_diff(run.final, runs[i - 1].final)
        elif ladder.error == "gre":
            for t_val, ref, ceiling in zip(ladder.gre_times, ladder.refs, ladder.gre_ceiling):
                step = round(t_val / ladder.runs[i][1])
                gre = _gre(EXACT_PROBLEM1(active_nodes[i], t_val), run.captured[step])
                if not (_in_band(gre, ref, ladder.band) and gre < ceiling):
                    failed[i] = f"GRE {gre:.3e} at t={t_val:g} outside [{ref / ladder.band:.3e}, " \
                                f"{ref * ladder.band:.3e}] or above {ceiling:.3e}"
    for i, ref in enumerate(ladder.refs if ladder.error != "gre" else ()):
        if ref is not None and errors[i] is not None and not _in_band(errors[i], ref, ladder.band):
            failed.setdefault(i, f"error {errors[i]:.3e} outside x{ladder.band:g} of {ref:.3e}")
    orders = [_order(a, b) for a, b in zip(errors, errors[1:]) if a is not None and b is not None]
    if ladder.orders is not None:
        low, high, first = ladder.orders
        for i in range(first + 1, len(runs)):
            if errors[i - 1] is None or errors[i] is None:
                failed.setdefault(i, "no observed order (a run it depends on failed)")
                continue
            order = _order(errors[i - 1], errors[i])
            if not low <= order <= high:
                failed.setdefault(i, f"observed order {order:.4f} outside [{low}, {high}]")
    lines = [f"{ladder.name} N={ladder.runs[i][0]} k={ladder.runs[i][1]:g}: {why}"
             for i, why in sorted(failed.items())]
    return lines, errors, orders


class PaperTables:
    """Every run of configs/table1-5.json through the public API, a fresh system per run."""

    name = "paper-tables"
    solver = True

    def __init__(self, seed: int, root: Path, out_dir: Path):
        del seed, root, out_dir  # the paper's own inputs; nothing to generate
        self.setup_samples: List[float] = []

    def warm_up(self):
        spec = problems.make_problem(1)
        sys_ = spec.build_system(26)
        integrate_run(sys_, spec.initial_state(sys_), 0.025, 0.25)

    def run_pass(self, mark: Callable[[], None]) -> PassResult:
        t_pass = clock()
        setup = 0.0
        outcomes = []
        for ladder in LADDERS:
            spec = problems.make_problem(ladder.problem, beta=ladder.beta)
            runs, nodes = [], []
            for n_points, k in ladder.runs:
                mark()
                t0 = clock()
                sys_ = spec.build_system(n_points)
                u0 = spec.initial_state(sys_)
                setup += clock() - t0
                capture = [round(t / k) for t in ladder.gre_times]
                runs.append(integrate_run(sys_, u0, k, ladder.t_final, capture))
                nodes.append(sys_.active_nodes())
                setup += runs[-1].prepare_s
            outcomes.append((ladder, runs, nodes))
        wall = clock() - t_pass

        self.setup_samples.append(setup)
        all_runs = [r for _, runs, _ in outcomes for r in runs]
        result = PassResult(wall_s=wall, loop_s=sum(r.loop_s for r in all_runs),
                            steps=sum(len(r.stamps) - 1 for r in all_runs),
                            step_s=[s for r in all_runs for s in r.step_s],
                            attempted=len(all_runs))
        order_pool = []
        for ladder, runs, nodes in outcomes:
            lines, errors, orders = check_ladder(ladder, runs, nodes)
            result.failures.extend(lines)
            if ladder.name == "table1" and errors[-1] is not None:
                result.accuracy["max_norm_err"] = errors[-1]
            if ladder.name in ("table1", "table3"):
                order_pool.extend(orders)
        if order_pool:
            result.accuracy["order_min"] = min(order_pool)
        return result


# ---------------------------------------------------------------- stability-scan

# configs/stability_imag_y.json, copied for the same reason as LADDERS.
STABILITY_CONFIG = {
    "mode": "stability",
    "y": ["-5i", "5i", "-20i", "20i"],
    "window": [-15.0, 12.0, -16.0, 16.0],
    "resolution": 512,
}
# |r| <= 1 area of each scan at the commit that defined this benchmark.
STABILITY_AREAS = {"-5i": 19.141470812382096, "5i": 19.141470812382096,
                   "-20i": 278.8599614738009, "20i": 278.8599614738009}
BOUNDARY_RESIDUAL_MAX = 1e-3
STARTUP_SAMPLES_PER_SIDE = 2  # before and after each pass's scan


def amplification(x, y: complex):
    """|r(x, y)| of the IMEX-RK4 scheme, evaluated here independently of the library.

    One step on u' = -c u + gamma u from u = 1 with x = gamma k explicit and
    z = c k = -y implicit, written from the (2,2) Pade stage rationals.
    """
    x = np.asarray(x, dtype=complex)
    z = -complex(y)
    den, den_h = 12.0 + 6.0 * z + z * z, 48.0 + 12.0 * z + z * z
    r_full, r_half = (12.0 - 6.0 * z + z * z) / den, (48.0 - 12.0 * z + z * z) / den_h
    a = r_half + 24.0 * x / den_h
    b = a + 2.0 * (12.0 + z) / den_h * x * (a - 1.0)
    c = r_full + 12.0 * x / den + 2.0 * (6.0 + z) / den * x * (b - 1.0)
    u1 = (r_full + 12.0 * x / den + (6.0 + z) / den * x * (2.0 * a + 2.0 * b - c - 3.0)
          + 2.0 * (4.0 + z) / den * x * (1.0 - a - b + c))
    return np.abs(u1)


def startup_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI from the checkout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import imexks.cli"], env=env, cwd=root, check=True)
    return clock() - t0


class StabilityScan:
    """``cli.run`` on the stability_imag_y config, CSVs written under the checkout."""

    name = "stability-scan"
    solver = False

    def __init__(self, seed: int, root: Path, out_dir: Path):
        del seed  # the paper's own inputs; nothing to generate
        self.root = root
        self.out_dir = out_dir
        # set-up of this workload: starting the CLI in a fresh interpreter,
        # sampled around every pass so that the samples span the whole run
        self.setup_samples: List[float] = []

    def warm_up(self):
        small = dict(STABILITY_CONFIG, y=["-5i"], resolution=16)
        out = Path(tempfile.mkdtemp(prefix="stability-", dir=self.out_dir))
        try:
            cli.run(cli.config_from_dict(small), out)
        finally:
            shutil.rmtree(out)

    def run_pass(self, mark: Callable[[], None]) -> PassResult:
        self._sample_startup()
        out = Path(tempfile.mkdtemp(prefix="stability-", dir=self.out_dir))
        try:
            mark()
            t0 = clock()
            cli.run(cli.config_from_dict(STABILITY_CONFIG), out)
            wall = clock() - t0
            result = PassResult(wall_s=wall, loop_s=wall, attempted=len(STABILITY_CONFIG["y"]))
            check_stability(out, result)
        finally:
            shutil.rmtree(out)
        self._sample_startup()
        return result

    def _sample_startup(self):
        self.setup_samples.extend(startup_seconds(self.root) for _ in range(STARTUP_SAMPLES_PER_SIDE))


def check_stability(out: Path, result: PassResult):
    """Check the field and boundary CSVs that ``cli.run`` wrote for each y."""
    res = STABILITY_CONFIG["resolution"]
    re_min, re_max, im_min, im_max = STABILITY_CONFIG["window"]
    cell = (re_max - re_min) / (res - 1) * (im_max - im_min) / (res - 1)
    worst = 0.0
    for label in STABILITY_CONFIG["y"]:
        y = complex(label.replace("i", "j"))
        found = []
        field = np.loadtxt(out / f"stability_y{label}.csv", delimiter=",", skiprows=1, ndmin=2)
        area = np.count_nonzero(field[:, 2] <= 1.0) * cell if field.shape == (res * res, 3) else math.nan
        if not abs(area - STABILITY_AREAS[label]) <= cell:
            found.append(f"field of shape {field.shape} has |r| <= 1 area {area}, "
                         f"expected {STABILITY_AREAS[label]}")
        pts = np.loadtxt(out / f"boundary_y{label}.csv", delimiter=",", skiprows=1, ndmin=2)
        if pts.shape[0] == 0:
            found.append("no boundary points")
        else:
            resid = float(np.max(np.abs(amplification(pts[:, 1] + 1j * pts[:, 2], y) - 1.0)))
            worst = max(worst, resid)
            if not resid <= BOUNDARY_RESIDUAL_MAX:
                found.append(f"||r|-1| = {resid:.3e} > {BOUNDARY_RESIDUAL_MAX:g}")
        if found:
            result.failures.append(f"y={label}: " + "; ".join(found))
    result.accuracy["bnd_resid_max"] = worst


WORKLOADS = {cls.name: cls for cls in (PeriodicN1024, PaperTables, StabilityScan)}

