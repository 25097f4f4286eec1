"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from imexks import stepper  # noqa: E402


# ---------------------------------------------------------------- self time

def test_self_time_without_children_is_the_duration():
    assert spans.self_time(1.0, 3.5, []) == pytest.approx(2.5)


def test_self_time_subtracts_disjoint_children():
    assert spans.self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    children = [(2.0, 5.0), (4.0, 6.0), (-1.0, 1.0), (9.0, 12.0), (20.0, 30.0)]
    # covered: [0,1] + [2,6] + [9,10] = 6
    assert spans.self_time(0.0, 10.0, children) == pytest.approx(4.0)


def test_totals_time_recursion_once_and_self_time_from_direct_children():
    recorded = [
        ("step", 0.0, 10.0, -1, 1),
        ("solve", 1.0, 4.0, 0, 1),
        ("solve", 2.0, 3.0, 1, 1),  # recursion inside the first solve
        ("rhs", 5.0, 6.0, 0, 1),
        ("solve", 7.0, 9.0, 0, 1),
    ]
    out = spans.totals(recorded)
    assert out["solve"]["calls"] == 2
    assert out["solve"]["seconds"] == pytest.approx(5.0)
    assert out["step"]["self_seconds"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert out["rhs"]["self_seconds"] == pytest.approx(1.0)


# ---------------------------------------------------------------- percentile rule

@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert summary.highest_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert summary.percentile(values, 90.0) == 90
    assert summary.percentile(values, 99.9) == 100
    assert summary.percentile([5.0], 50.0) == 5.0


def test_describe_reports_median_percentile_and_count():
    text = summary.describe([0.001] * 95 + [0.002] * 5, scale=1e3, unit="ms")
    assert text == "median 1 ms, p90 1 ms (n=100)"


# ---------------------------------------------------------------- wrappers

def _toy_package(monkeypatch):
    core = types.ModuleType("toypkg.core")
    user = types.ModuleType("toypkg.user")

    def double(x):
        return 2 * x

    class Thing:
        def grow(self, x):
            return core.double(x) + 1

    core.double, core.Thing = double, Thing
    user.double = double  # a second binding, as ``from .core import double`` makes
    for name, module in (("toypkg", types.ModuleType("toypkg")), ("toypkg.core", core),
                         ("toypkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user, double, Thing


def test_install_records_spans_and_restores_every_binding(monkeypatch):
    core, user, double, Thing = _toy_package(monkeypatch)
    grow = vars(Thing)["grow"]
    tracer = spans.Tracer()
    targets = [("core.double", double, None), ("core.grow", (Thing, "grow"), None)]
    with spans.install(tracer, targets, "toypkg"):
        assert core.double is not double and user.double is core.double
        tracer.next_operation()
        assert Thing().grow(3) == 7
    assert core.double is double and user.double is double and vars(Thing)["grow"] is grow
    (n0, _, _, p0, op0), (n1, _, _, p1, op1) = tracer.spans
    assert (n0, p0, op0) == ("core.grow", -1, 1)
    assert (n1, p1, op1) == ("core.double", 0, 1)


def test_install_restores_after_an_exception(monkeypatch):
    core, user, double, _ = _toy_package(monkeypatch)
    with pytest.raises(RuntimeError):
        with spans.install(spans.Tracer(), [("core.double", double, None)], "toypkg"):
            raise RuntimeError("boom")
    assert core.double is double and user.double is double


def test_span_closes_when_the_call_raises(monkeypatch):
    core, _, double, _ = _toy_package(monkeypatch)
    tracer = spans.Tracer()
    with spans.install(tracer, [("core.double", double, None)], "toypkg"):
        with pytest.raises(TypeError):
            core.double()
        assert core.double(1) == 2
    assert [s[0] for s in tracer.spans] == ["core.double", "core.double"]
    assert all(s[3] == -1 for s in tracer.spans)


def test_library_bindings_are_restored():
    def snapshot():
        out = {}
        for name, module in sys.modules.items():
            if name == "imexks" or name.startswith("imexks."):
                for attr, value in vars(module).items():
                    out[(name, attr)] = value
                    if isinstance(value, type):
                        out.update({(name, attr, k): v for k, v in vars(value).items()})
        return out

    before = snapshot()
    tracer = spans.Tracer()
    with spans.install(tracer, layers.targets(), layers.PACKAGE):
        assert stepper.step is not before[("imexks.stepper", "step")]
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_target_is_found_in_the_library():
    found = {name for name, _, _ in layers.targets()}
    assert found == {name for name, _, _ in layers._TARGETS}
    assert len(layers.targets()) == sum(len(places) for _, places, _ in layers._TARGETS)


# ---------------------------------------------------------------- per-layer counters

def test_array_bytes_counts_each_base_array_once():
    big = np.zeros(100)
    holder = types.SimpleNamespace(a=big, view=big[10:20], nested={"again": [big]},
                                   other=np.ones(3, dtype=np.int32))
    assert layers.array_bytes(holder) == 800 + 12


def test_workspace_bytes_of_a_prepared_workspace():
    from imexks import problems
    spec = problems.make_problem(2)
    sys_ = spec.build_system(16)
    ws = stepper.prepare(sys_, 0.25)
    n = sys_.state_size
    # two complex factors and two complex matrices, the real L and D1
    assert layers.array_bytes(ws) >= 4 * 16 * n * n + 2 * 8 * n * n


def test_traced_run_fills_the_solver_metrics():
    from imexks import problems
    tracer = spans.Tracer()
    with spans.install(tracer, layers.targets(), layers.PACKAGE):
        spec = problems.make_problem(1)
        sys_ = spec.build_system(26)
        workloads.integrate_run(sys_, spec.initial_state(sys_), 0.025, 0.05)
    m = layers.metrics(tracer)
    assert m["stepper.step_calls"] == 2
    assert m["linalg.lu_solve_calls"] == 2 * 4 + 2  # stage solves + operator builds
    assert m["system.constrain_stage_calls"] == 8
    assert m["problems.exact_solution_calls"] >= 8 * 4
    assert 0 < m["stepper.step_self_s"] < m["stepper.step_s"]
    assert m["linalg.solve_bytes"] > 0 and m["analysis.stability_scan_s"] == 0


# ---------------------------------------------------------------- checks and declared metrics

def _run(final):
    return workloads.Run(prepare_s=0.0, stamps=[0.0, 1.0], final=np.array(final), captured={})


def test_ladder_checks_attribute_failures_to_the_finer_run():
    ladder = workloads.Ladder("t", 3, None, ((11, 0.4), (11, 0.2), (11, 0.1), (11, 0.05)), 1.0,
                              "self", orders=(3.5, 4.5, 1))
    # E_k = 1, 1/16, 1/256: orders 4 and 4
    good = [_run([0.0]), _run([1.0]), _run([1.0 + 1 / 16]), _run([1.0 + 1 / 16 + 1 / 256])]
    lines, errors, orders = workloads.check_ladder(ladder, good, [None] * 4)
    assert lines == [] and orders == pytest.approx([4.0, 4.0])
    bad = good[:3] + [_run([1.0 + 1 / 16 + 1 / 32])]  # order 1 on the last run
    lines, _, _ = workloads.check_ladder(ladder, bad, [None] * 4)
    assert len(lines) == 1 and lines[0].startswith("t N=11 k=0.05: observed order 1.0000")
    broken = good[:1] + [workloads.Run(0.0, [0.0], None, {}, "InstabilityError at step 3")] + good[2:]
    lines, _, _ = workloads.check_ladder(ladder, broken, [None] * 4)
    assert [line.split(":")[0] for line in lines] == ["t N=11 k=0.2", "t N=11 k=0.1", "t N=11 k=0.05"]


def test_stability_check_counts_each_bad_scan(tmp_path):
    for label in workloads.STABILITY_CONFIG["y"]:
        (tmp_path / f"stability_y{label}.csv").write_text("re_x,im_x,abs_r\n0,0,0.5\n")
        (tmp_path / f"boundary_y{label}.csv").write_text("polyline,re_x,im_x\n0,5,0\n")
    result = workloads.PassResult(wall_s=1.0, loop_s=1.0)
    workloads.check_stability(tmp_path, result)
    assert len(result.failures) == len(workloads.STABILITY_CONFIG["y"])
    assert all("field of shape (1, 3)" in line and "||r|-1|" in line for line in result.failures)


def test_benchmark_amplification_matches_the_library():
    rng = np.random.default_rng(7)
    x = rng.uniform(-15, 12, 50) + 1j * rng.uniform(-16, 16, 50)
    for y in (-5j, 20j, -2.0):
        assert np.allclose(workloads.amplification(x, y),
                           np.abs(stepper.scalar_amplification(x, y)), rtol=1e-12, atol=1e-12)


def test_workload_inputs_match_the_shipped_configs():
    def config(name):
        return json.loads((ROOT / "configs" / f"{name}.json").read_text())

    assert workloads.STABILITY_CONFIG == config("stability_imag_y")
    for ladder in workloads.LADDERS:
        if ladder.name == "table2":
            cfg = config(ladder.name)
            assert ladder.runs == ((cfg["N"], cfg["k"]),) and ladder.t_final == max(cfg["times"])
            assert ladder.gre_times == tuple(cfg["times"])
            continue
        cfg = config(ladder.name)
        ks = [k for _, k in ladder.runs]
        assert ladder.t_final == cfg["T"] and ladder.beta == cfg.get("beta")
        if cfg["mode"] == "converge-time":
            assert ks == [2 * cfg["k"][0]] + cfg["k"]
            assert all(n == cfg["N"] for n, _ in ladder.runs)
        else:
            assert ks == cfg["k"]
            assert [n for n, _ in ladder.runs] == [int(round(100.0 / h)) + 1 for h in cfg["h"]]


def test_benchmark_json_declares_the_reported_metrics():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
