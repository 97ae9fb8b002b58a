"""Command-line interface.

Subcommands:
  tc                  reconciled complexity bounds, one signature or a grid
  verify-lower-bound  expand and check the zero-divisor product certificate
  plan                plan one path and print sampled coordinates as JSON
  simulate            randomized verification of the planner invariants
  search-zdcl         zero-divisor cup-length, exhaustive over generators,
                      optionally brute-force over the full spanning family

Exit status is 0 exactly when every mathematical check performed by the
invocation passes; bad arguments exit 2, failed checks exit 1.  All
coordinate input is exact rational text like 3/4 (floats are rejected).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .algebra import (
    AlgebraSignature,
    CertificateFailure,
    DEFAULT_BRUTE_FORCE_CAP,
    InstanceTooLarge,
    InvalidSignature,
    lower_bound_certificate,
    zdcl_brute_force,
    zdcl_degree_one,
)
from .bounds import BoundMismatch, compute_bounds
from .planner import InvalidEndpoint, PlannerQuery, plan_product, plan_skeleton, sample_times
from .skeleton import SkeletonPoint, Turn
from .verify import run_simulation

CSV_HEADER = "n,r,lower,upper_constructive,upper_dimension,tc"
# plan and simulate refuse finer time grids: time, memory and output grow
# linearly with --steps (a 65,536-step (9,6) plan prints 19 MB, in about
# 0.6 s and 120 MB of RSS on a 2-core x86-64 VM)
MAX_STEPS = 65_536
# simulate refuses more queries or probes, and tc larger grids: each is
# linear in its count (README gives the measured worst cases)
MAX_QUERIES = 1_000
MAX_CONTINUITY_PROBES = 500
MAX_GRID_PAIRS = 5_000
_GRID_RE = re.compile(r"^n=(\d+)\.\.(\d+),r=(\d+)\.\.(\d+|n)$")


def _parse_grid(text: str) -> list[tuple[int, int]]:
    m = _GRID_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"grid must look like n=1..6,r=1..n, got {text!r}")
    n_lo, n_hi = int(m.group(1)), int(m.group(2))
    r_lo = int(m.group(3))
    r_top = None if m.group(4) == "n" else int(m.group(4))
    if r_top is not None and r_top < r_lo:
        raise ValueError(f"grid {text!r} is empty")
    pairs = []
    # rows with n < r_lo are empty and every later row holds a pair, so the
    # loop stops within MAX_GRID_PAIRS + 1 rows
    for n in range(max(n_lo, r_lo), n_hi + 1):
        r_hi = n if r_top is None else min(r_top, n)
        if len(pairs) + r_hi - r_lo + 1 > MAX_GRID_PAIRS:
            raise ValueError(f"--grid must name at most {MAX_GRID_PAIRS} signatures")
        pairs += [(n, r) for r in range(r_lo, r_hi + 1)]
    if not pairs:
        raise ValueError(f"grid {text!r} is empty")
    return pairs


def _parse_point(text: str, product: bool) -> SkeletonPoint:
    # "" is the point with no coordinates, the only point when n = 1
    turns = [Turn.parse(p) for p in text.split(",")] if text else []
    if product:
        if not turns:
            raise ValueError("product points need at least the circle coordinate")
        return SkeletonPoint(tuple(turns[1:]), turns[0])
    return SkeletonPoint(tuple(turns), None)


def cmd_tc(args) -> int:
    if args.json and args.csv:
        raise ValueError("--json and --csv cannot be combined")
    if args.grid:
        if args.n is not None or args.r is not None:
            raise ValueError("give n and r, or --grid, not both")
        pairs = _parse_grid(args.grid)
    elif args.n is not None and args.r is not None:
        pairs = [(args.n, args.r)]
    else:
        raise ValueError("give n and r, or --grid")
    rows = [compute_bounds(n, r) for n, r in pairs]
    if args.csv:
        print(CSV_HEADER)
        for b in rows:
            print(f"{b.n},{b.r},{b.lower},{b.upper_constructive},{b.upper_dimension},{b.tc}")
        return 0
    if args.json:
        print(json.dumps([b.to_jsonable() for b in rows], indent=2))
        return 0
    print(f"{'n':>3} {'r':>3} {'lower':>6} {'constructive':>13} {'dimension':>10} {'tc':>4}")
    flagged = False
    for b in rows:
        mark = " " if b.constructive_tight else "*"
        flagged = flagged or not b.constructive_tight
        print(
            f"{b.n:>3} {b.r:>3} {b.lower:>6} {b.upper_constructive:>12}{mark} "
            f"{b.upper_dimension:>10} {b.tc:>4}"
        )
    if flagged:
        print("* planner domain count exceeds tc; the planner still runs but is not optimal there")
    return 0


def cmd_verify_lower_bound(args) -> int:
    sig = AlgebraSignature(args.n, args.r)
    index_set = None
    if args.set is not None:
        index_set = tuple(int(p) for p in args.set.split(",") if p != "")
    cert = lower_bound_certificate(sig, index_set)
    payload = {
        "n": sig.n,
        "r": sig.r,
        "k": cert.k,
        "index_set": list(cert.index_set),
        "factor_count": cert.factor_count,
        "component_bidegree": list(cert.component_bidegree),
        "component_terms": cert.component_terms,
        "expected_terms": cert.expected_terms,
        "sample_term": cert.sample_term,
        "ok": cert.component_terms == cert.expected_terms,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"signature: n={sig.n} r={sig.r}")
        print(f"zero-divisor factors: {cert.factor_count} (circle generator plus {sorted(cert.index_set)})")
        print(f"checked bidegree {cert.component_bidegree}: {cert.component_terms} terms "
              f"(expected {cert.expected_terms}), sample {cert.sample_term}")
        print(f"certificate: product of {cert.factor_count} zero-divisors is nonzero")
    if cert.component_terms != cert.expected_terms:
        raise CertificateFailure(
            f"component has {cert.component_terms} terms, expected {cert.expected_terms}"
        )
    return 0


def _coord_cells(column) -> list[str]:
    """One coordinate's values as the indented JSON that plan prints for
    them.  A resting coordinate repeats one Turn object, rendered once."""
    cells = []
    last = cell = None
    for value in column:
        if value is not last:
            last = value
            cell = (f"        {json.dumps(str(value))}" if isinstance(value, Turn)
                    else f'        {{\n          "approx": {value!r}\n        }}')
        cells.append(cell)
    return cells


def cmd_plan(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    sig = AlgebraSignature(args.n, args.r)
    start = _parse_point(getattr(args, "from"), args.product)
    end = _parse_point(args.to, args.product)
    query = PlannerQuery(start, end)
    path = plan_product(query, sig) if args.product else plan_skeleton(query, sig)
    times = sample_times(args.steps, path.phase_boundaries())
    columns = path.columns(times)
    if path.mode == "product":
        columns.insert(0, columns.pop())
    domain = path.combined_index if path.mode == "product" else path.domain_index
    head = json.dumps({
        "n": sig.n,
        "r": sig.r,
        "mode": path.mode,
        "domain": domain,
        "agreement": sorted(path.agreement),
    }, indent=2)
    # The text of json.dumps(doc, indent=2) for doc = head plus "samples",
    # written here: the samples are most of the document, and the encoder's
    # pure-Python indenting mode would take most of the op.  str() of a
    # Fraction is digits and a slash, which JSON strings carry unescaped;
    # json renders floats with repr().
    # a path without coordinates (n = 1, no circle) prints "coords": []
    rows = ["[\n" + ",\n".join(cells) + "\n      ]" for cells in zip(*map(_coord_cells, columns))]
    samples = [f'    {{\n      "t": "{t}",\n      "coords": {row}\n    }}'
               for t, row in zip(times, rows or ["[]"] * len(times))]
    print(f'{head[:-2]},\n  "samples": [\n' + ",\n".join(samples) + "\n  ]\n}")
    return 0


def cmd_simulate(args) -> int:
    for flag, value, cap in (("--steps", args.steps, MAX_STEPS),
                             ("--queries", args.queries, MAX_QUERIES),
                             ("--continuity-probes", args.continuity_probes,
                              MAX_CONTINUITY_PROBES)):
        if value > cap:
            raise ValueError(f"{flag} must be at most {cap}, got {value}")
    sig = AlgebraSignature(args.n, args.r)
    report = run_simulation(
        sig,
        mode="product" if args.product else "skeleton",
        queries=args.queries,
        steps=args.steps,
        seed=args.seed,
        denominator_bound=args.denominator_bound,
        continuity_probes=args.continuity_probes,
    )
    print(json.dumps(report.to_jsonable(), indent=2))
    return 0 if report.ok else 1


def cmd_search_zdcl(args) -> int:
    sig = AlgebraSignature(args.n, args.r)
    degree_one = zdcl_degree_one(sig)
    certified = min(sig.n, 2 * sig.r - 1)
    bounds = compute_bounds(args.n, args.r)
    payload = {
        "n": sig.n,
        "r": sig.r,
        "degree_one_length": degree_one,
        "certified_minimum": certified,
        "tc": bounds.tc,
    }
    best_known = degree_one
    if args.brute:
        cap = int(os.environ.get("TC_BRUTE_CAP", DEFAULT_BRUTE_FORCE_CAP))
        report = zdcl_brute_force(sig, cap=cap)
        payload["brute_force_length"] = report.searched_length
        payload["witness"] = list(report.witness)
        best_known = max(best_known, report.searched_length)
    consistent = best_known + 1 == bounds.tc
    payload["cup_length"] = best_known
    payload["conjecture"] = "consistent" if consistent else "inconsistent"
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"signature: n={sig.n} r={sig.r}")
        print(f"longest nonzero product of generator zero-divisors: {degree_one}")
        if args.brute:
            print(f"brute-force over the spanning family: {payload['brute_force_length']} "
                  f"(witness {', '.join(payload['witness']) or 'empty'})")
        print(f"certified minimum: {certified}, tc: {bounds.tc}")
        print(f"cup-length + 1 == tc: {payload['conjecture']}")
    return 0 if consistent else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torustc",
        description="Exact motion-planning complexity bounds on torus skeletons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tc = sub.add_parser("tc", help="reconciled bounds for signatures")
    p_tc.add_argument("n", type=int, nargs="?")
    p_tc.add_argument("r", type=int, nargs="?")
    p_tc.add_argument("--grid", help="signature grid, e.g. n=1..6,r=1..n")
    p_tc.add_argument("--json", action="store_true")
    p_tc.add_argument("--csv", action="store_true")
    p_tc.set_defaults(func=cmd_tc)

    p_v = sub.add_parser("verify-lower-bound", help="check the zero-divisor certificate")
    p_v.add_argument("n", type=int)
    p_v.add_argument("r", type=int)
    p_v.add_argument("--set", help="comma-separated positive generator indices")
    p_v.add_argument("--json", action="store_true")
    p_v.set_defaults(func=cmd_verify_lower_bound)

    p_plan = sub.add_parser("plan", help="plan one path and sample it")
    p_plan.add_argument("n", type=int)
    p_plan.add_argument("r", type=int)
    p_plan.add_argument("--from", required=True, help="start point, comma-separated rationals")
    p_plan.add_argument("--to", required=True, help="end point, comma-separated rationals")
    p_plan.add_argument("--steps", type=int, default=256)
    p_plan.add_argument(
        "--product", action="store_true",
        help="plan in the circle-times-skeleton product; the first coordinate is the circle",
    )
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="randomized planner verification")
    p_sim.add_argument("n", type=int)
    p_sim.add_argument("r", type=int)
    p_sim.add_argument("--queries", type=int, default=100)
    p_sim.add_argument("--steps", type=int, default=256)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--product", action="store_true")
    p_sim.add_argument("--denominator-bound", type=int, default=8)
    p_sim.add_argument("--continuity-probes", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_z = sub.add_parser("search-zdcl", help="zero-divisor cup-length search")
    p_z.add_argument("n", type=int)
    p_z.add_argument("r", type=int)
    p_z.add_argument("--brute", action="store_true",
                     help="also search the full spanning family (env TC_BRUTE_CAP bounds n)")
    p_z.add_argument("--json", action="store_true")
    p_z.set_defaults(func=cmd_search_zdcl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSignature, InvalidEndpoint, InstanceTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificateFailure, BoundMismatch) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
