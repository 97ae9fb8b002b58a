"""Command-line interface.

Subcommands:
  tc                  reconciled complexity bounds, one signature or a grid
  verify-lower-bound  expand and check the zero-divisor product certificate
  plan                plan one path and print sampled coordinates as JSON
  simulate            randomized verification of the planner invariants
  search-zdcl         zero-divisor cup-length along one chain of generator
                      zero-divisors, optionally cross-checked by brute force
                      over the full spanning family

The algebra is generated in degree one, so its zero-divisor cup-length is
the longest nonzero product of distinct generator zero-divisors, and
search-zdcl multiplies them along one chain; --brute must find the same
length over the whole spanning family.

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
from .planner import InvalidEndpoint, PlannerQuery, plan_product, plan_skeleton
from .skeleton import SkeletonPoint, Turn
from .verify import run_simulation

CSV_HEADER = "n,r,lower,upper_constructive,upper_dimension,tc"
# plan and simulate refuse finer time grids: time, memory and output grow
# linearly with --steps (a 65,536-step (9,6) plan with all eight coordinates
# moving prints 22 MB, in about 0.8 s and 128 MB of RSS on a 2-core x86-64
# VM; with --product and the circle moving too, 26 MB, 1 s and 143 MB)
MAX_STEPS = 65_536
# simulate refuses more queries or probes, and tc larger grids: each is
# linear in its count (README gives the measured worst cases)
MAX_QUERIES = 1_000
MAX_CONTINUITY_PROBES = 500
MAX_GRID_PAIRS = 5_000
# simulate refuses a larger --denominator-bound: a run's cost grows with the
# bound's digit count (simulate 38 20 --product --queries 100
# --continuity-probes 38 --steps 4096 takes 0.85 s with a 7-digit bound,
# 1.6 s with a 1,000-digit one and 9.7 s with a 4,000-digit one on a 2-core
# x86-64 VM)
MAX_DENOMINATOR_BOUND = 1_000_000
# a certificate multiplies min(n, 2r-1) zero-divisors whose packed keys are
# 2n bits wide: tc and verify-lower-bound refuse more factors times n,
# summed over the rows of one invocation, before forming any product
MAX_CERTIFICATE_WORK = 20_000_000
# simulate refuses a larger n squared times (queries + continuity probes).
# A query and a probe (one coordinate pair at a time) cost time linear in
# n; the budget dates from quadratic probes and is kept, so every input it
# refused stays refused.  The largest admitted probe, n = 866 with one
# query, takes about 17 ms on a 2-core x86-64 VM
MAX_SIMULATION_WORK = 1_500_000
_GRID_RE = re.compile(r"^n=(\d+)\.\.(\d+),r=(\d+)\.\.(\d+|n)$")


def _integer(text: str) -> int:
    """Every integer the command line takes: n, r, the integer options, the
    --set entries, the --grid bounds and TC_BRUTE_CAP.

    argparse's type=int repeats a rejected argument whole, and int() names
    sys.set_int_max_str_digits() for digits past the interpreter's limit;
    neither message here repeats the argument.  Past the limit it raises
    OverflowError, which argparse lets through to main, so the answer is
    one line without the usage text.
    """
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise OverflowError(f"integer arguments must have at most "
                                f"{sys.get_int_max_str_digits()} digits") from None
        raise argparse.ArgumentTypeError("expected a decimal integer") from None


def _parse_grid(text: str) -> list[tuple[int, int]]:
    m = _GRID_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"grid must look like n=1..6,r=1..n, got {text!r}")
    n_lo, n_hi, r_lo = _integer(m.group(1)), _integer(m.group(2)), _integer(m.group(3))
    r_top = None if m.group(4) == "n" else _integer(m.group(4))
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


def _check_certificate_work(sigs) -> None:
    if sum(min(sig.n, 2 * sig.r - 1) * sig.n for sig in sigs) > MAX_CERTIFICATE_WORK:
        raise InstanceTooLarge(f"certificate work (factors times n, summed over rows) "
                               f"is capped at {MAX_CERTIFICATE_WORK}")


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
    _check_certificate_work([AlgebraSignature(n, r) for n, r in pairs])
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
    _check_certificate_work([sig])
    cert = lower_bound_certificate(sig, args.set)
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
    """One coordinate's values, a column of PlannerPath.samples, as the
    indented JSON that plan prints for them.  A resting coordinate repeats
    one Turn object, rendered once."""
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
        raise ValueError("--steps must be at least 1")
    if args.steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}")
    sig = AlgebraSignature(args.n, args.r)
    start = _parse_point(getattr(args, "from"), args.product)
    end = _parse_point(args.to, args.product)
    query = PlannerQuery(start, end)
    path = plan_product(query, sig) if args.product else plan_skeleton(query, sig)
    times, columns = path.samples(args.steps)
    head = json.dumps({
        "n": sig.n,
        "r": sig.r,
        "mode": path.mode,
        "domain": path.domain,
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
    for flag, cap in (("--steps", MAX_STEPS), ("--queries", MAX_QUERIES),
                      ("--continuity-probes", MAX_CONTINUITY_PROBES),
                      ("--denominator-bound", MAX_DENOMINATOR_BOUND)):
        if getattr(args, flag[2:].replace("-", "_")) > cap:
            raise ValueError(f"{flag} must be at most {cap}")
    sig = AlgebraSignature(args.n, args.r)
    if sig.n ** 2 * (args.queries + args.continuity_probes) > MAX_SIMULATION_WORK:
        raise ValueError(f"n squared times (--queries + --continuity-probes) must be at most "
                         f"{MAX_SIMULATION_WORK}")
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
    cup_length = zdcl_degree_one(sig)
    bounds = compute_bounds(args.n, args.r)
    payload = {
        "n": sig.n,
        "r": sig.r,
        "degree_one_length": cup_length,
        "certified_minimum": bounds.lower - 1,
        "tc": bounds.tc,
    }
    consistent = cup_length + 1 == bounds.tc
    if args.brute:
        try:
            cap = _integer(os.environ.get("TC_BRUTE_CAP", str(DEFAULT_BRUTE_FORCE_CAP)))
        except (argparse.ArgumentTypeError, OverflowError) as exc:
            raise ValueError(f"TC_BRUTE_CAP: {exc}") from None
        report = zdcl_brute_force(sig, cap=cap)
        payload["brute_force_length"] = report.searched_length
        payload["witness"] = list(report.witness)
        consistent = consistent and report.searched_length == cup_length
    payload["cup_length"] = cup_length
    payload["conjecture"] = "consistent" if consistent else "inconsistent"
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"signature: n={sig.n} r={sig.r}")
        print(f"longest nonzero product of generator zero-divisors: {cup_length}")
        if args.brute:
            print(f"brute-force over the spanning family: {payload['brute_force_length']} "
                  f"(witness {', '.join(payload['witness']) or 'empty'})")
        print(f"certified minimum: {payload['certified_minimum']}, tc: {bounds.tc}")
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
    p_tc.add_argument("n", type=_integer, nargs="?")
    p_tc.add_argument("r", type=_integer, nargs="?")
    p_tc.add_argument("--grid", help="signature grid, e.g. n=1..6,r=1..n")
    p_tc.add_argument("--json", action="store_true")
    p_tc.add_argument("--csv", action="store_true")
    p_tc.set_defaults(func=cmd_tc)

    p_v = sub.add_parser("verify-lower-bound", help="check the zero-divisor certificate")
    p_v.add_argument("n", type=_integer)
    p_v.add_argument("r", type=_integer)
    p_v.add_argument("--set", type=lambda text: tuple(_integer(p) for p in text.split(",") if p),
                     help="comma-separated positive generator indices")
    p_v.add_argument("--json", action="store_true")
    p_v.set_defaults(func=cmd_verify_lower_bound)

    p_plan = sub.add_parser("plan", help="plan one path and sample it")
    p_plan.add_argument("n", type=_integer)
    p_plan.add_argument("r", type=_integer)
    p_plan.add_argument("--from", required=True, help="start point, comma-separated rationals")
    p_plan.add_argument("--to", required=True, help="end point, comma-separated rationals")
    p_plan.add_argument("--steps", type=_integer, default=256)
    p_plan.add_argument(
        "--product", action="store_true",
        help="plan in the circle-times-skeleton product; the first coordinate is the circle",
    )
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="randomized planner verification")
    p_sim.add_argument("n", type=_integer)
    p_sim.add_argument("r", type=_integer)
    p_sim.add_argument("--queries", type=_integer, default=100)
    p_sim.add_argument("--steps", type=_integer, default=256)
    p_sim.add_argument("--seed", type=_integer, default=0)
    p_sim.add_argument("--product", action="store_true")
    p_sim.add_argument("--denominator-bound", type=_integer, default=8)
    p_sim.add_argument("--continuity-probes", type=_integer, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_z = sub.add_parser("search-zdcl", help="zero-divisor cup-length search")
    p_z.add_argument("n", type=_integer)
    p_z.add_argument("r", type=_integer)
    p_z.add_argument("--brute", action="store_true",
                     help="also search the full spanning family (env TC_BRUTE_CAP bounds n)")
    p_z.add_argument("--json", action="store_true")
    p_z.set_defaults(func=cmd_search_zdcl)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidSignature, InvalidEndpoint, InstanceTooLarge, ValueError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificateFailure, BoundMismatch) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
