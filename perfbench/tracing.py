"""Per-layer spans and counters, wrapped around torustc from outside.

`install` rebinds public functions in every torustc module that holds
them (a function imported by name, such as `cli.compute_bounds` or
`verify.plan_product`, is a separate binding) and wraps methods on their
class.  Each call records a span (name, start, end, parent span, op); the
spans stay in memory until the pass ends.  `layer_metrics` turns spans and
counters into the `<module>.<function>.<stat>` metrics named in PER_LAYER.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# (metric, unit, better) for every per-layer metric a traced run reports.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("bounds.compute_bounds.calls", "count", "lower"),
    ("bounds.compute_bounds.self_ms", "ms", "lower"),
    ("algebra.lower_bound_certificate.calls", "count", "lower"),
    ("algebra.lower_bound_certificate.ms", "ms", "lower"),
    ("algebra.tensor_mul.calls", "count", "lower"),
    ("algebra.tensor_mul.ms", "ms", "lower"),
    ("algebra.tensor_mul.pairs", "count", "lower"),
    ("algebra.tensor_mul.terms_out", "count", "lower"),
    ("algebra.tensor_mul.yield", "frac", "higher"),
    ("algebra.tensor_mul.zero_frac", "frac", "lower"),
    ("algebra.tensor_mul.peak_terms", "count", "lower"),
    ("algebra.zdcl_degree_one.ms", "ms", "lower"),
    ("algebra.zdcl_brute_force.ms", "ms", "lower"),
    ("skeleton.sample.calls", "count", "lower"),
    ("skeleton.sample.ms", "ms", "lower"),
    ("skeleton.membership.calls", "count", "lower"),
    ("skeleton.membership.ms", "ms", "lower"),
    ("planner.plan.calls", "count", "lower"),
    ("planner.plan.ms", "ms", "lower"),
    ("planner.evaluate.calls", "count", "lower"),
    ("planner.evaluate.ms", "ms", "lower"),
    ("planner.exact_zero_counts.calls", "count", "lower"),
    ("planner.exact_zero_counts.ms", "ms", "lower"),
    ("planner.exact_zero_counts.grid_points", "count", "lower"),
    ("planner.phase_boundaries.calls", "count", "lower"),
    ("verify.run_simulation.self_ms", "ms", "lower"),
    ("verify.continuity_ratio.calls", "count", "lower"),
    ("verify.continuity_ratio.ms", "ms", "lower"),
    ("verify.probe_yield", "frac", "higher"),
    ("verify.path_deviation.ms", "ms", "lower"),
    ("verify.perturb_query.ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class Tracer:
    """Spans and counters of one pass.  A span is (name, start, end, parent,
    op): parent is the index of the enclosing span or -1, op the index of
    the CLI op it belongs to, in the order the pass ran its ops."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """fn with a span around each call; note(counts, args, result) runs
        after the span closes, so counting is charged to the caller."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if note is not None:
                note(counts, args, result)
            return result

        return traced

    def write(self, path: str, ops: list) -> None:
        """Write the spans as gzipped JSON; a span's op indexes `ops`, the
        argv lists in the order the pass ran them."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "ops": ops,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _note_tensor_mul(counts, args, result):
    left, right = args
    counts["tensor_mul.pairs"] += len(left) * (1 if isinstance(right, int) else len(right))
    size = len(result)
    counts["tensor_mul.terms_out"] += size
    if size == 0:
        counts["tensor_mul.zero"] += 1
    if size > counts["tensor_mul.peak_terms"]:
        counts["tensor_mul.peak_terms"] = size


def _note_grid(counts, args, result):
    counts["exact_zero_counts.grid_points"] += len(result)


def _note_probe(counts, args, result):
    if result is not None:
        counts["continuity_ratio.returned"] += 1


def install(tracer: Tracer) -> list:
    """Wrap torustc's layer boundaries; call once, after importing torustc.cli.

    Returns (owner, attribute, original) for every rebinding made.
    """
    from torustc import algebra, bounds, cli, planner, skeleton, verify

    functions = [
        ("cli.main", cli.main, None),
        ("bounds.compute_bounds", bounds.compute_bounds, None),
        ("algebra.lower_bound_certificate", algebra.lower_bound_certificate, None),
        ("algebra.zdcl_degree_one", algebra.zdcl_degree_one, None),
        ("algebra.zdcl_brute_force", algebra.zdcl_brute_force, None),
        ("skeleton.sample", skeleton.sample, None),
        ("skeleton.membership", skeleton.membership, None),
        ("planner.plan", planner.plan_skeleton, None),
        ("planner.plan", planner.plan_product, None),
        ("verify.run_simulation", verify.run_simulation, None),
        ("verify.continuity_ratio", verify.continuity_ratio, _note_probe),
        ("verify.path_deviation", verify.path_deviation, None),
        ("verify.perturb_query", verify.perturb_query, None),
    ]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "torustc" or name.startswith("torustc."))]
    rebound = []
    for name, fn, note in functions:
        traced = tracer.wrap(name, fn, note)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    rebound.append((module, attr, fn))

    methods = [
        ("algebra.tensor_mul", algebra.TensorElement, "__mul__", _note_tensor_mul),
        ("planner.evaluate", planner.PlannerPath, "evaluate", None),
        ("planner.exact_zero_counts", planner.PlannerPath, "exact_zero_counts", _note_grid),
        ("planner.phase_boundaries", planner.PlannerPath, "phase_boundaries", None),
    ]
    for name, cls, attr, note in methods:
        fn = getattr(cls, attr)
        setattr(cls, attr, tracer.wrap(name, fn, note))
        rebound.append((cls, attr, fn))
    return rebound


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except trace.overhead_frac."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[s[0]] += 1
        total[s[0]] += s[2] - s[1]
        own[s[0]] += self_s
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    mul = "algebra.tensor_mul"
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "ms":
            out[metric] = total[layer] * 1e3
        elif stat == "self_ms":
            out[metric] = own[layer] * 1e3
    out.update({
        f"{mul}.pairs": counts["tensor_mul.pairs"],
        f"{mul}.terms_out": counts["tensor_mul.terms_out"],
        f"{mul}.yield": ratio(counts["tensor_mul.terms_out"], counts["tensor_mul.pairs"]),
        f"{mul}.zero_frac": ratio(counts["tensor_mul.zero"], calls[mul]),
        f"{mul}.peak_terms": counts["tensor_mul.peak_terms"],
        "planner.exact_zero_counts.grid_points": counts["exact_zero_counts.grid_points"],
        "verify.probe_yield": ratio(counts["continuity_ratio.returned"],
                                    calls["verify.continuity_ratio"]),
    })
    return out
