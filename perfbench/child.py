"""One benchmark pass in a fresh interpreter.

The parent times set-up from spawning this process to the `ready` line,
which is written right after `import torustc.cli`; that is why the
harness's own imports wait inside main().  The parent then sends one job
as JSON on stdin: {"ops": [...], "trace": bool, "spans_path": str|null}.
An empty job ends a set-up-only spawn.  Ops run one at a time through
`torustc.cli.main(argv)` (a closed loop with one client); each op's
output is checked outside its timed interval.  Before each op, also
outside it, the collector is run, so one op's garbage is not collected on
the next op's clock (a fresh CLI process would not carry it), and the
reference slice is timed to sample host speed.  The reference runs once
untimed first, and with the collector off, so that the size of the heap
torustc keeps does not reach its time.  The result is one JSON line on
stdout.
"""

import sys

import torustc.cli
from fractions import Fraction  # already loaded by torustc.cli


def reference_work():
    """A fixed slice of interpreter work of the kinds torustc does: dict
    updates keyed by bit sets, popcounts and Fraction arithmetic."""
    terms = {}
    acc = 0
    for i in range(1, 1200):
        key = (i * 2654435761) & 0xFFFF
        acc += (key ^ (key >> 3)).bit_count()
        terms[key] = terms.get(key, 0) + acc
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(i, i + 1) * Fraction(1, 3)
    return acc, len(terms), total


def main() -> int:
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import contextlib
    import gc
    import io
    import json
    import resource
    import traceback
    from time import perf_counter

    import tracing
    import workloads

    job = json.loads(sys.stdin.read() or "null")
    if not job:
        return 0

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies, failures, reference = [], [], []
    for i, argv in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i
        gc.collect()
        gc.disable()
        reference_work()  # warm-up: refills caches the collection evicted
        start = perf_counter()
        reference_work()
        reference.append(perf_counter() - start)
        gc.enable()
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = torustc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing op is a failed op; keep the pass going
                code, crash = None, traceback.format_exc()
        latencies.append(perf_counter() - start)
        problem = crash or workloads.check(argv, code, out.getvalue())
        if problem:
            failures.append({"op": i, "argv": argv, "problem": problem,
                             "stderr": err.getvalue()[-500:]})

    result = {
        "latencies_s": latencies,
        "reference_s": reference,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        if job.get("spans_path"):
            tracer.write(job["spans_path"], job["ops"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
