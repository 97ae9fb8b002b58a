"""Randomized verification of the planner invariants.

run_simulation drives the planner over seeded random queries and checks,
for every query: exact endpoint interpolation, a valid domain index that
matches the endpoint agreement, and skeleton membership (at least n-r
coordinates exactly at the basepoint) for every t in [0, 1], not at
sampled times only.  Each coordinate's basepoint count is constant between
two phase boundaries, so the path's boundary sweep, one slot per boundary
and one per open piece, proves membership over the whole interval; the
grid counter checks every grid time as well.  Both are spot-checked
against pointwise evaluation, the sweep at the time of its least count and
the grid at a random grid time, so neither fast path can drift from the
reference semantics unnoticed.  Every violation is counted, and the first
FAILURE_CAP are recorded with their queries.

Continuity is probed by perturbing a query within its domain by at most
eps per coordinate (DEFAULT_EPS in a simulation) and measuring how far the
two paths drift apart.  A shift that would land a coordinate exactly on the
basepoint is halved, so supports never change.  The probe corpus is
controlled: nonzero coordinates of ordinary base queries stay at least 1/8
of a turn from the basepoint (where the schedule's local stretch is
moderate), and dedicated wrap probes carry one coordinate across the
basepoint, the case where naive arithmetic on [0, 1) would tear.
Perturbations never change the agreement set, the support sets, or the
circle rule, so both paths come from one continuity domain and their
distance must scale linearly with eps.  That distance is the supremum over
every t in [0, 1], not a sample: each coordinate moves linearly between
phase boundaries, so it is found at the boundaries unless a difference
passes a half turn (path_deviation).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .planner import (
    PlannerPath,
    PlannerQuery,
    classify,
    plan_product,
    plan_skeleton,
    sample_times,
)
from .skeleton import SkeletonPoint, Turn, random_turn, sample

DEFAULT_EPS = Fraction(1, 1000)
FAILURE_CAP = 5  # violations recorded with their queries in one report
_WRAP_VALUE = Fraction(2047, 2048)  # within eps of the basepoint from below


@dataclass
class SimulationReport:
    """Aggregate outcome of one randomized planner verification run."""

    n: int
    r: int
    mode: str
    queries: int
    steps: int
    seed: int
    domain_histogram: dict[int, int] = field(default_factory=dict)
    endpoint_violations: int = 0
    membership_violations: int = 0
    domain_violations: int = 0
    continuity_probes: int = 0
    max_continuity_ratio: float | None = None
    wall_time_s: float = 0.0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.endpoint_violations == 0
            and self.membership_violations == 0
            and self.domain_violations == 0
        )

    def to_jsonable(self) -> dict:
        out = asdict(self)
        out["domain_histogram"] = {str(k): v for k, v in sorted(self.domain_histogram.items())}
        out["wall_time_s"] = round(self.wall_time_s, 3)
        out["ok"] = self.ok
        out["failures"] = out.pop("failures")
        return out


def _flag(report: SimulationReport, kind: str, query: PlannerQuery, detail: str):
    """Count one violation of the given kind; record it while under the cap."""
    counter = f"{kind}_violations"
    setattr(report, counter, getattr(report, counter) + 1)
    if len(report.failures) < FAILURE_CAP:
        report.failures.append({"kind": kind, "detail": detail, "query": query.to_jsonable()})


def _endpoints_exact(path: PlannerPath, query: PlannerQuery) -> bool:
    for t, want in ((Fraction(0), query.start), (Fraction(1), query.end)):
        got = path.evaluate(t)
        pairs = zip((*got.base, got.circle), (*want.base, want.circle))
        if not all(w is None or (isinstance(g, Turn) and g == w) for g, w in pairs):
            return False
    return True


def run_simulation(
    sig,
    mode: str = "skeleton",
    queries: int = 100,
    steps: int = 256,
    seed: int = 0,
    denominator_bound: int = 8,
    continuity_probes: int = 0,
) -> SimulationReport:
    """Check all planner invariants on seeded random queries.

    Every violation is counted and the first FAILURE_CAP are recorded with
    their queries.  steps is the resolution of the grid checked next to the
    boundary sweep: times k/steps for k = 0..steps.  continuity_probes
    perturbation probes follow the queries, each by at most DEFAULT_EPS per
    coordinate; every fourth one is a wrap probe.
    """
    if mode not in ("skeleton", "product"):
        raise ValueError(f"unknown mode {mode!r}")
    if queries < 1 or steps < 1:
        raise ValueError("queries and steps must be positive")
    if continuity_probes < 0:
        raise ValueError("continuity_probes must not be negative")
    product = mode == "product"
    plan = plan_product if product else plan_skeleton
    rng = random.Random(seed)
    need = sig.n - sig.r
    top_domain = sig.n if product else sig.n - 1
    report = SimulationReport(
        n=sig.n, r=sig.r, mode=mode, queries=queries, steps=steps, seed=seed
    )
    histogram = report.domain_histogram
    started = time.perf_counter()

    for _ in range(queries):
        start = sample(sig, rng, denominator_bound, with_circle=product)
        end = sample(sig, rng, denominator_bound, with_circle=product)
        query = PlannerQuery(start, end)
        path = plan(query, sig)

        domain = path.combined_index if product else path.domain_index
        histogram[domain] = histogram.get(domain, 0) + 1
        agree = frozenset(j for j in range(1, sig.n) if start.base[j - 1] == end.base[j - 1])
        if not (0 <= domain <= top_domain and path.domain_index == len(path.agreement)
                and path.agreement == agree):
            _flag(report, "domain", query, f"domain index {domain}")

        if not _endpoints_exact(path, query):
            _flag(report, "endpoint", query, "path does not interpolate exactly")

        counts = path.exact_zero_counts(steps)
        spot = rng.randrange(steps + 1)
        if path.evaluate(Fraction(spot, steps)).exact_zero_count() != counts[spot]:
            _flag(report, "membership", query,
                  f"grid counter disagrees with evaluation at t={Fraction(spot, steps)}")
        low = min(counts)
        if low < need:
            _flag(report, "membership", query,
                  f"only {low} coordinates at basepoint at "
                  f"t={Fraction(counts.index(low), steps)}, need {need}")
        least, at = path.least_zero_count()
        if path.evaluate(at).exact_zero_count() != least:
            _flag(report, "membership", query,
                  f"boundary sweep disagrees with evaluation at t={at}")
        if least < need:
            _flag(report, "membership", query,
                  f"only {least} coordinates at basepoint at t={at}, need {need}")

    ratios = [continuity_ratio(sig, mode, rng, wrap=p % 4 == 3,
                               denominator_bound=denominator_bound)
              for p in range(continuity_probes)]
    ratios = [ratio for ratio in ratios if ratio is not None]
    report.continuity_probes = len(ratios)
    report.max_continuity_ratio = max(ratios, default=None)
    report.wall_time_s = time.perf_counter() - started
    return report


def _perturbation(rng: random.Random, eps: Fraction) -> Fraction:
    # nonzero rational shift with |delta| <= eps
    # the same draw as rng.choice over the nonzero integers in [-1000, 1000]
    k = rng.randrange(2000)
    k = k - 1000 if k < 1000 else k - 999
    return Fraction(k, 1000) * eps


def _shift(u: Turn, delta: Fraction) -> Turn:
    """u moved by delta, or by delta/2 where delta would land it on the basepoint."""
    moved = u + delta
    return u + delta / 2 if moved.is_zero else moved


def _perturb_point(
    point: SkeletonPoint,
    other: SkeletonPoint,
    rng: random.Random,
    eps: Fraction,
    forced: dict[int, Fraction],
) -> tuple[Turn, ...]:
    """Perturbed base coordinates of one endpoint, support preserved.

    Agreeing coordinates are handled by the caller (both endpoints must be
    shifted identically there); this helper only moves the coordinates where
    the endpoints already differ, keeping zero coordinates exactly zero.  A
    forced shift still draws its perturbation, so the draws do not depend on
    which shifts are forced.
    """
    return tuple(
        u if u == v or u.is_zero else _shift(u, forced.get(j, _perturbation(rng, eps)))
        for j, (u, v) in enumerate(zip(point.base, other.base), start=1)
    )


def perturb_query(
    query: PlannerQuery,
    sig,
    rng: random.Random,
    eps: Fraction = DEFAULT_EPS,
    forced_start: dict[int, Fraction] | None = None,
) -> PlannerQuery | None:
    """A nearby query in the same continuity domain, or None if the query
    has nothing to move.

    Coordinates where the endpoints agree get one shared shift so they keep
    agreeing; coordinates where they differ move independently.  Exact zeros
    never move, so supports are preserved.  The circle pair, when present,
    always moves.  It shares its shift whenever the endpoints are equal or
    antipodal so the circle rule survives; otherwise both ends move freely
    (the shorter-arc rule tolerates eps-sized changes because sampled gaps
    are never within eps of half a turn).
    """
    forced_start = forced_start or {}
    agree = classify(query, sig).indices
    start, end = query.start, query.end
    start_base = list(_perturb_point(start, end, rng, eps, forced_start))
    end_base = list(_perturb_point(end, start, rng, eps, {}))
    for j in agree:
        u = start.base[j - 1]
        if not u.is_zero:
            start_base[j - 1] = end_base[j - 1] = _shift(u, _perturbation(rng, eps))

    if not start.has_circle:
        if (start_base, end_base) == (list(start.base), list(end.base)):
            return None
        start_circle = end_circle = None
    elif start.circle.ccw_gap(end.circle) in (0, Fraction(1, 2)):
        delta = _perturbation(rng, eps)
        start_circle, end_circle = start.circle + delta, end.circle + delta
    else:
        start_circle = start.circle + forced_start.get(0, _perturbation(rng, eps))
        end_circle = end.circle + _perturbation(rng, eps)
    return PlannerQuery(
        SkeletonPoint(tuple(start_base), start_circle),
        SkeletonPoint(tuple(end_base), end_circle),
    )


def _wrap_query(sig, rng: random.Random, mode: str) -> tuple[PlannerQuery, dict[int, Fraction]] | None:
    """A query carrying one coordinate just below a full turn, plus forced
    shifts that push it across the basepoint, or None if there is no
    coordinate to carry (r = 1 without the circle).

    With r >= 2 the carried coordinate is the first of r-1 random base
    labels; in product mode the circle is carried too.
    """
    product = mode == "product"
    if sig.r < 2 and not product:
        return None
    push = Fraction(3, 4) * DEFAULT_EPS
    forced: dict[int, Fraction] = {}
    start_base = [Turn(0)] * (sig.n - 1)
    end_base = [Turn(0)] * (sig.n - 1)
    if sig.r >= 2:
        support = sorted(rng.sample(range(1, sig.n), sig.r - 1))
        for label in support:
            start_base[label - 1] = random_turn(rng, 8)
            end_base[label - 1] = random_turn(rng, 8)
        target = support[0]
        start_base[target - 1] = Turn(_WRAP_VALUE)
        end_base[target - 1] = Turn(Fraction(1, 2))
        forced[target] = push
    start_circle = end_circle = None
    if product:
        start_circle, end_circle = Turn(_WRAP_VALUE), Turn(Fraction(1, 4))
        forced[0] = push
    start = SkeletonPoint(tuple(start_base), start_circle)
    end = SkeletonPoint(tuple(end_base), end_circle)
    return PlannerQuery(start, end), forced


def _passes_half_turn(rule_a, rule_b, tfs: list[float]) -> bool:
    """Whether the lifted difference of two coordinates (their positions,
    not reduced mod 1) passes a half turn between the first and the last of
    the float times, which must include both rules' phase boundaries.  A
    difference that only touches a half turn at one of the times may count
    as passing it; the distance there is 1/2 either way."""
    sa, da, ma, pa = rule_a.start_f, rule_a.delta_f, rule_a.move_start_f, rule_a.span_f
    sb, db, mb, pb = rule_b.start_f, rule_b.delta_f, rule_b.move_start_f, rule_b.span_f
    base = sa - sb - 0.5
    # floor(x - 1/2) steps exactly where x passes a half turn; a constant
    # rule has delta 0, so its progress never matters
    floor = math.floor
    turns = {floor(base + da * min(max((tf - ma) / pa, 0.0), 1.0)
                   - db * min(max((tf - mb) / pb, 0.0), 1.0)) for tf in tfs}
    return len(turns) > 1


def path_deviation(path_a: PlannerPath, path_b: PlannerPath) -> float:
    """Largest circle distance between the two paths over all of [0, 1].

    The paths are compared coordinate by coordinate, at 0, 1 and both
    paths' phase boundaries, from the floats of columns(floats=True).
    Between two consecutive times of that list each coordinate of each path
    rests or travels at constant speed, so the lifted difference of two
    coordinates (the difference of their positions, not reduced mod 1) is
    linear there, and its circle distance peaks at the ends of the piece
    unless it passes a half turn, where the distance is 1/2, the largest it
    can be.  So the result is the largest distance at the listed times, or
    1/2 when some lifted difference passes a half turn.  Two coordinates
    that both rest for the whole path are the same distance apart at every
    time, so that distance is taken once.
    """
    times = sample_times(1, path_a.phase_boundaries(), path_b.phase_boundaries())
    tfs = [t.numerator / t.denominator for t in times]
    worst = 0.0
    for rule_a, rule_b, col_a, col_b in zip(
        path_a.coordinate_rules, path_b.coordinate_rules,
        path_a.columns(times, floats=True), path_b.columns(times, floats=True),
    ):
        if rule_a.constant and rule_b.constant:
            col_a, col_b = (rule_a.start_f,), (rule_b.start_f,)
        elif _passes_half_turn(rule_a, rule_b, tfs):
            return 0.5
        for va, vb in zip(col_a, col_b):
            d = abs(va - vb) % 1.0
            d = min(d, 1.0 - d)
            if d > worst:
                worst = d
    return worst


def continuity_ratio(
    sig,
    mode: str,
    rng: random.Random,
    eps: Fraction = DEFAULT_EPS,
    wrap: bool = False,
    denominator_bound: int = 8,
) -> float | None:
    """Deviation-to-eps ratio for one perturbation probe, or None if the
    drawn query admits no perturbation.

    The base and perturbed query are planned independently; they must land
    in the same continuity domain by construction, which is asserted, and
    the ratio measures the planner's local stretch there.
    """
    product = mode == "product"
    forced: dict[int, Fraction] = {}
    if wrap:
        built = _wrap_query(sig, rng, mode)
        if built is None:
            return None
        query, forced = built
    else:
        start = sample(sig, rng, denominator_bound, with_circle=product)
        end = sample(sig, rng, denominator_bound, with_circle=product)
        query = PlannerQuery(start, end)

    nearby = perturb_query(query, sig, rng, eps=eps, forced_start=forced)
    if nearby is None:
        return None

    plan = plan_product if product else plan_skeleton
    path_a = plan(query, sig)
    path_b = plan(nearby, sig)
    if path_a.agreement != path_b.agreement:
        raise RuntimeError("perturbation changed the agreement set; corpus bug")
    if product and path_a.circle_rule.rule_index != path_b.circle_rule.rule_index:
        raise RuntimeError("perturbation changed the circle rule; corpus bug")
    return path_deviation(path_a, path_b) / float(eps)
