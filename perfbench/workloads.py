"""Seeded CLI operation lists for the benchmark workloads, and their output checks.

Every workload is a fixed set of `torustc` commands; the seed only draws
the values a user would pick freely (simulation seeds, plan endpoints),
and run.py draws each pass's op order from it.  Keeping the set fixed
keeps the cost of a pass nearly equal across seeds, so seed-to-seed
spread measures the machine, not the draw.

  certify  `tc n r --json` over the triangle 1 <= r <= n <= CERTIFY_MAX_N.
           Algebra does the work in a few large tensor products; the
           planner is never touched.  For n >= 2r-1 the certificate is the
           one of (2r-1, r), so memoisation can share work between ops.
  planner  `simulate` over 2 <= r <= n <= PLANNER_MAX_N in both modes, plus
           a minority of `plan` ops with seeded exact endpoints.  Skeleton,
           planner and verify do all the work (Fraction arithmetic, grid
           membership, continuity probes); algebra does none.
  search   `search-zdcl` on a grid, plus `--brute` on its small corner.
           Algebra again, but as thousands of small products, most of them
           zero, pruned in a search.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("certify", "planner", "search")

CERTIFY_MAX_N = 15

PLANNER_MAX_N = 10
SIM_QUERIES = 10
SIM_STEPS = 256
SIM_PROBES = 5
PLAN_OPS = 30
PLAN_DENOMINATOR = 8

# search-zdcl grid: the full triangle up to SEARCH_MAX_N, then a band of
# small r further out.  The brute-force corner stops where single ops
# reach seconds: (6,5) takes about 2 s and (6,6) about 8 s on their own.
SEARCH_MAX_N = 10
SEARCH_BAND_MAX_N = 18
SEARCH_BAND_MAX_R = 3
BRUTE_SIGNATURES = (
    [(n, r) for n in range(1, 9) for r in range(1, min(n, 3) + 1)]
    + [(4, 4), (5, 4), (6, 4), (5, 5)]
)
BRUTE_CAP = 8  # TC_BRUTE_CAP for the child; the largest n in BRUTE_SIGNATURES


def build_ops(workload: str, seed: int) -> list[list[str]]:
    """The workload's argument vectors; the seed draws planner values."""
    if workload == "certify":
        ops = [["tc", str(n), str(r), "--json"]
               for n in range(1, CERTIFY_MAX_N + 1) for r in range(1, n + 1)]
    elif workload == "planner":
        ops = _planner_ops(random.Random(seed))
    elif workload == "search":
        grid = [(n, r) for n in range(1, SEARCH_MAX_N + 1) for r in range(1, n + 1)]
        grid += [(n, r) for n in range(SEARCH_MAX_N + 1, SEARCH_BAND_MAX_N + 1)
                 for r in range(1, SEARCH_BAND_MAX_R + 1)]
        ops = [["search-zdcl", str(n), str(r), "--json"] for n, r in grid]
        ops += [["search-zdcl", str(n), str(r), "--brute", "--json"]
                for n, r in BRUTE_SIGNATURES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _planner_signatures():
    return [(n, r) for n in range(2, PLANNER_MAX_N + 1) for r in range(2, n + 1)]


def _planner_ops(rng: random.Random) -> list[list[str]]:
    ops = []
    for n, r in _planner_signatures():
        for product in (False, True):
            ops.append(
                ["simulate", str(n), str(r)]
                + (["--product"] if product else [])
                + ["--queries", str(SIM_QUERIES), "--steps", str(SIM_STEPS),
                   "--seed", str(rng.randrange(2**31)),
                   "--continuity-probes", str(SIM_PROBES)]
            )
    signatures = _planner_signatures()
    for k in range(PLAN_OPS):
        n, r = rng.choice(signatures)
        product = k % 2 == 1
        start, end = _endpoint(rng, n, r, product), _endpoint(rng, n, r, product)
        ops.append(["plan", str(n), str(r)] + (["--product"] if product else [])
                   + ["--from", ",".join(start), "--to", ",".join(end)])
    return ops


def _endpoint(rng: random.Random, n: int, r: int, product: bool) -> list[str]:
    """Exact coordinates of a skeleton point: at most r-1 base coordinates
    away from the basepoint, the circle coordinate first in product mode."""
    base = [Fraction(0)] * (n - 1)
    for j in rng.sample(range(n - 1), r - 1):
        base[j] = _turn(rng)
    coords = ([_turn(rng)] if product else []) + base
    return [str(c) for c in coords]


def _turn(rng: random.Random) -> Fraction:
    q = rng.randint(1, PLAN_DENOMINATOR)
    return Fraction(rng.randrange(q), q)


def shared_work_share(workload: str, ops: list[list[str]]) -> dict:
    """Share of ops with the property a work-sharing optimisation would use."""
    if workload == "certify":
        prop = "n >= 2r-1 (certificate equals that of (2r-1, r))"
        hits = sum(1 for op in ops if int(op[1]) >= 2 * int(op[2]) - 1)
    elif workload == "planner":
        prop = "product mode"
        hits = sum(1 for op in ops if "--product" in op)
    else:
        prop = "--brute"
        hits = sum(1 for op in ops if "--brute" in op)
    return {"property": prop, "ops": hits, "share": hits / len(ops)}


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check(argv: list[str], code, out: str) -> str | None:
    """Why the output of one CLI op is wrong, or None when it is right.

    Each op is held to a closed form: tc = min(n+1, 2r); a simulation
    reports ok with no violations and a histogram summing to --queries;
    cup-length + 1 = tc; a planned path starts and ends exactly at its
    endpoints.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    command, n, r = argv[0], int(argv[1]), int(argv[2])
    tc = min(n + 1, 2 * r)
    if command == "tc":
        if not (isinstance(doc, list) and len(doc) == 1):
            return "expected a one-row list"
        row = doc[0]
        if (row.get("n"), row.get("r")) != (n, r):
            return f"row is for ({row.get('n')}, {row.get('r')})"
        if row.get("tc") != tc or row.get("lower") != tc:
            return f"tc {row.get('tc')} lower {row.get('lower')}, expected {tc}"
        return None
    if command == "simulate":
        if doc.get("ok") is not True:
            return "simulation reports not ok"
        for key in ("endpoint_violations", "membership_violations", "domain_violations"):
            if doc.get(key) != 0:
                return f"{key} = {doc.get(key)}"
        queries = int(_option(argv, "--queries"))
        histogram = doc.get("domain_histogram") or {}
        if doc.get("queries") != queries or sum(histogram.values()) != queries:
            return f"histogram sums to {sum(histogram.values())}, expected {queries}"
        return None
    if command == "search-zdcl":
        if doc.get("tc") != tc:
            return f"tc {doc.get('tc')}, expected {tc}"
        cup = doc.get("cup_length")
        if not isinstance(cup, int) or cup + 1 != tc:
            return f"cup_length {cup} + 1 != tc {tc}"
        if "--brute" in argv and "brute_force_length" not in doc:
            return "brute-force length missing"
        return None
    if command == "plan":
        samples = doc.get("samples") or []
        if not samples:
            return "no samples"
        start = _option(argv, "--from").split(",")
        end = _option(argv, "--to").split(",")
        first, last = samples[0], samples[-1]
        if first.get("t") != "0" or first.get("coords") != start:
            return f"first sample {first} is not the start {start}"
        if last.get("t") != "1" or last.get("coords") != end:
            return f"last sample {last} is not the end {end}"
        return None
    return f"no check for command {command!r}"
