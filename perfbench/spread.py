"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads paper-tables stability-scan --seeds 1-10
    python3 perfbench/spread.py --seeds 1 --report   # every workload's full report, once

Every run is untraced, so the metrics are the end-to-end ones that the
bounds of BENCHMARK.json apply to.  The spread is the distance between the
first and third quartiles of the per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median.  Each run
is a separate process, one at a time; the result lines are appended to
``--out`` as JSON, one per run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--report", action="store_true", help="print each run's full report")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-out" / "spread.jsonl")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}

    args.out.parent.mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            if args.report:
                print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            results.append(result)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed operations")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            text = f"  {name:32s} median {med:.6g}"
            if len(values) >= 2 and med:
                text += f"  spread {spread(values):.4f}"
                if bounds.get(name) is not None:
                    text += f" (bound {bounds[name]})"
            print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
