"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workload cli-all ...] [--out FILE]

For every workload, runs ``run.py --trace 0`` once per seed (2024 + i) and
prints, per end-to-end metric, the median of the runs, their quartiles and
the spread (q3 - q1) / median that the metric's bound in BENCHMARK.json must
cover.  ``--out`` writes the same figures, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=2024)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    summary = {
        "date": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.splitlines()[-1])
            ok = ok and done.returncode == 0 and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = summary["workloads"][workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[name] = {
                "median": median, "q1": q1, "q3": q3, "n": len(vals),
                "spread": (q3 - q1) / median, "bound": bounds[name], "values": vals,
            }
            print(f"{workload:20s} {name:12s} median {median:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
                  f"n {len(vals)} spread {rows[name]['spread']:.3f} bound {bounds[name]}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
