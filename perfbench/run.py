"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload periodic-n1024 --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/`` with
BLAS and OpenMP pinned to one thread before numpy loads.  Passes of the
workload repeat until ``--seconds`` have elapsed (at least one pass), and every
pass is checked at the acceptance-gate tolerances.

With ``--trace 0`` the passes run untraced and the last line carries the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate;
the last line carries the per-layer metrics and the tracing overhead, and the
spans of the last traced pass are written to ``.perfbench-out/``.  The lines
before the last are the human-readable report.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("loop_s", "s"), ("peak_rss_mb", "MB"))


def import_library():
    """Import imexks from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import imexks
    except ImportError as err:
        raise SystemExit(f"error: cannot import imexks from {src}: {err}") from err
    if Path(imexks.__file__).resolve().parent != (src / "imexks").resolve():
        raise SystemExit(f"error: imexks was imported from {imexks.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), **{var: os.environ[var] for var in THREAD_VARS}}


def _noop():
    pass


def run_untraced(workload, seconds: float):
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass(_noop))

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    n = len(passes)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(workload.setup_samples),
        "loop_s": statistics.median(p.loop_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    accuracy = {}
    for key in ("max_norm_err", "order_min", "e_k", "bnd_resid_max"):
        got = [p.accuracy[key] for p in passes if key in p.accuracy]
        accuracy[key] = statistics.median(got) if got else None
    steps_per_s = (statistics.median(p.steps / p.loop_s for p in passes)
                   if workload.solver else None)

    setup_what = ("build_system + initial_state + prepare per pass" if workload.solver
                  else "fresh interpreter importing imexks.cli")
    walls = sorted(p.wall_s for p in passes)
    print(summary.line("wall_s", values["wall_s"], "s",
                       f"median of {n} passes, range {walls[0]:.4f}-{walls[-1]:.4f}"))
    print(summary.line("setup_s", values["setup_s"], "s",
                       f"median of {len(workload.setup_samples)}: {setup_what}"))
    print(summary.line("loop_s", values["loop_s"], "s", f"median of {n} passes"))
    print(summary.line("steps_per_s", steps_per_s, "1/s",
                       f"median of {n} passes, from observer timestamps" if workload.solver else ""))
    print(summary.line("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of this process"))
    print(summary.line("failed_frac", failed / attempted, "frac",
                       f"{failed} of {attempted} operations"))
    for key, value in accuracy.items():
        print(summary.line(key, value, "1"))
    step_s = [s for p in passes for s in p.step_s]
    if step_s:
        print(summary.line("step_ms", summary.describe(step_s, 1e3, "ms"), ""))
    for p in passes:
        for why in p.failures:
            print(f"FAILED {why}")
    return attempted, failed, values


def run_traced(workload, seconds: float, layers):
    untraced, traced, samples = [], [], []
    deadline = time.perf_counter() + seconds
    tracer = None
    while not traced or time.perf_counter() < deadline:
        untraced.append(workload.run_pass(_noop))
        tracer = spans.Tracer()
        with spans.install(tracer, layers.targets(), layers.PACKAGE):
            traced.append(workload.run_pass(tracer.next_operation))
        samples.append(layers.metrics(tracer))

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values = {name: statistics.median(s[name] for s in samples)
              for name, _ in layers.PER_LAYER if name != "trace_overhead_frac"}
    # each traced pass against the untraced pass just before it, so that the
    # host's drift between distant passes cancels
    values["trace_overhead_frac"] = statistics.median(
        t.wall_s / u.wall_s - 1.0 for u, t in zip(untraced, traced))
    for name, unit in layers.PER_LAYER:
        note = f"median of {len(traced)} adjacent pass pairs" if name == "trace_overhead_frac" else ""
        print(summary.line(name, values[name], unit, note))
    print(f"# per-layer values: median of {len(traced)} traced passes; "
          f"B = bytes computed from array sizes; solve share of step "
          f"{layers.solve_share_of_step(tracer):.4f}")
    path = OUT_DIR / f"spans-{workload.name}.csv"
    spans.write_csv(tracer.spans, path)
    print(f"# {len(tracer.spans)} spans of the last traced pass written to {path.relative_to(ROOT)}")
    print(summary.line("failed_frac", failed / attempted, "frac",
                       f"{failed} of {attempted} operations"))
    for p in passes:
        for why in p.failures:
            print(f"FAILED {why}")
    return attempted, failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    # imported only now: they import numpy and imexks
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# env {json.dumps(environment())}")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT_DIR)
    workload.warm_up()
    if args.trace:
        attempted, failed, values = run_traced(workload, args.seconds, layers)
        units = dict(layers.PER_LAYER)
    else:
        attempted, failed, values = run_untraced(workload, args.seconds)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
