"""Benchmark entry point.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds the workload's seeded op list, then
runs passes over it, each in its own seeded order, until --seconds have
elapsed.  Each pass is one fresh
interpreter (perfbench/child.py) that drives `torustc.cli.main(argv)` in
process, one op at a time, and checks every op's output.  Passes run one
after another, so at most one child exists at a time.

--trace 0 reports the end-to-end metrics:
  setup_s      median set-up time: spawn to `import torustc.cli` done
  wall_s       median time per pass to run the whole op list
  op_p50_ms    median over ops of each op's median latency across passes
  op_p90_ms    90th percentile of the same per-op latencies
  peak_rss_mb  median peak resident set size of a pass's process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/tracing.py, medians over the traced passes, plus
trace.overhead_frac = traced wall_s / untraced wall_s - 1.

Host speed on a shared machine drifts by tens of percent over minutes, so
every pass also times a fixed reference slice of interpreter work before
each op (outside the op's timed interval).  Each op's time is scaled to
the nominal host speed REF_NOMINAL_S by the reference times of the ops
around it (see scaled_latencies); per-layer times get their pass's
overall scale.  Unscaled pass times and the slowdown are in the run
record.  Set-up is not scaled: spawning and importing did not track the
reference.  perfbench/README.md records an A/B check that the scale does
not divide out deliberate slowdowns of torustc.

The second-to-last stdout line is a run record (interpreter, cores, seed,
op count, shared-work share, sample counts, failures); the last is the
result object.  Any failed op makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

HASH_SEED = "0"
MIN_SETUP_SAMPLES = 11
RUN_BUDGET_S = 170.0  # the whole run must end within 180 s
# Typical time of child.reference_work() on the host the bounds were tuned
# on (2-core x86-64 VM, CPython 3.11.7).  Reported times are scaled to it.
REF_NOMINAL_S = 0.8e-3
REF_WINDOW = 5


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) as statistics.quantiles gives it with its
    default method, the convention of the steadiness report too."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def quartiles(values) -> dict:
    return {"q1": percentile(values, 25), "median": percentile(values, 50),
            "q3": percentile(values, 75), "n": len(values)}


def scaled_latencies(result: dict, order: list[int]) -> list[float]:
    """A pass's op latencies scaled to nominal host speed, each by the mean
    reference time of the ops run within REF_WINDOW of it, and listed in
    op-list order (the pass ran op order[k] k-th)."""
    lat, ref = result["latencies_s"], result["reference_s"]
    out = [0.0] * len(lat)
    for k, i in enumerate(order):
        window = ref[max(0, k - REF_WINDOW):k + REF_WINDOW + 1]
        out[i] = lat[k] * REF_NOMINAL_S / statistics.fmean(window)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["TC_BRUTE_CAP"] = str(workloads.BRUTE_CAP)
    # An installed package starts from compiled bytecode; the untimed first
    # spawn writes it, so set-up never includes compiling torustc.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class PassRunner:
    """Spawns one child per pass and collects set-up times."""

    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline
        self.setup_s: list[float] = []

    def run(self, job: dict | None, count_setup: bool = True) -> dict | None:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self.env, cwd=ROOT, bufsize=0,
        )
        try:
            ready = proc.stdout.readline()
            ready_at = time.perf_counter()
            if ready != b"ready\n":
                raise RuntimeError(f"child did not start: {ready!r}")
            if count_setup:
                self.setup_s.append(ready_at - started)
            timeout = max(1.0, self.deadline - time.perf_counter())
            out, _ = proc.communicate(json.dumps(job).encode(), timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with code {proc.returncode}")
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torustc CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "torustc", "cli.py")):
        print(f"error: no torustc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    begun = time.perf_counter()
    runner = PassRunner(deadline=begun + RUN_BUDGET_S)
    ops = workloads.build_ops(args.workload, args.seed)
    runner.run(None, count_setup=False)  # fills bytecode caches; not timed

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)

    # Every pass runs the ops in its own seeded order, so an op's median
    # latency does not depend on which ops happen to run just before it.
    order_rng = random.Random(args.seed)
    passes = {False: [], True: []}
    stop_at = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes[False]) > len(passes[True])
        order = order_rng.sample(range(len(ops)), len(ops))
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{len(passes[True])}.json.gz") if traced else None
        job = {"ops": [ops[i] for i in order], "trace": traced, "spans_path": spans_path}
        result = runner.run(job)
        result["scaled_s"] = scaled_latencies(result, order)
        passes[traced].append(result)
        done = passes[False] and (passes[True] or not args.trace)
        if done and time.perf_counter() >= stop_at:
            break
    while len(runner.setup_s) < MIN_SETUP_SAMPLES:
        runner.run(None)

    every = passes[False] + passes[True]
    attempted = len(ops) * len(every)
    failures = [f for p in every for f in p["failures"]]
    walls = {k: [sum(p["scaled_s"]) for p in v] for k, v in passes.items()}
    raw_walls = [sum(p["latencies_s"]) for p in passes[False]]
    # One latency per op: its median over the untraced passes, which drops
    # contention bursts that hit only some passes.
    op_ms = [statistics.median(lat) * 1e3 for lat in zip(*(p["scaled_s"] for p in passes[False]))]
    rss_mb = [p["maxrss_kb"] / 1024.0 for p in passes[False]]

    if args.trace:
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead_frac":
                value = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            else:
                value = statistics.median(
                    p["layers"][name] * w / sum(p["latencies_s"]) if unit == "ms"
                    else p["layers"][name] for p, w in zip(passes[True], walls[True]))
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(runner.setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "op_p50_ms": {"value": percentile(op_ms, 50), "unit": "ms"},
            "op_p90_ms": {"value": percentile(op_ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": HASH_SEED,
        "tc_brute_cap": workloads.BRUTE_CAP,
        "ops_per_pass": len(ops),
        "shared_work": workloads.shared_work_share(args.workload, ops),
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
        "setup_samples": len(runner.setup_s),
        "latency_samples": len(op_ms) * len(passes[False]),
        "failed_ops_frac": len(failures) / attempted,
        "slowdown": quartiles([r / w for r, w in zip(raw_walls, walls[False])]),
        "wall_s": quartiles(walls[False]),
        "raw_wall_s": quartiles(raw_walls),
        "setup_s": quartiles(runner.setup_s),
        "run_s": time.perf_counter() - begun,
        "failures": failures[:5],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
