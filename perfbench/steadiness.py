"""Run the benchmark repeatedly and report each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs `perfbench/run.py` for run_seconds of BENCHMARK.json once per seed,
one run at a time, for every workload.  For every end-to-end metric it
prints the median, the first and third quartiles (run.quartiles, which
follows statistics.quantiles with n=4) and the spread
(q3 - q1) / median, and writes all values to .perfbench_out/steadiness.json.
A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json; the bounds there were set from these figures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> dict:
    q = run.quartiles(values)
    return {"median": q["median"], "q1": q["q1"], "q3": q["q3"],
            "spread": (q["q3"] - q["q1"]) / q["median"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {}
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {name: {**spread(v), "values": v} for name, v in values.items()}
        for name, row in report[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or row["spread"] < bound / 3 else "  above bound/3"
            print(f"{workload:8} {name:12} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                  f"spread {row['spread']:.3f} bound {bound}{flag}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as fh:
        json.dump({"seconds": seconds, "runs": args.runs, "first_seed": args.first_seed,
                   "workloads": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
