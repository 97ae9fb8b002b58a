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
every t in [0, 1], not a sample, taken one coordinate pair at a time
(path_deviation): each coordinate moves linearly between its own phase
boundaries, so a pair's distance peaks at 0, 1 or one of the pair's at
most four boundaries unless their difference passes a half turn.  A probe
costs time and memory linear in n.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

# the planner's own 0 and 1, so value_at settles a rule's window ending at
# either by identity, without a Fraction comparison
from .planner import (
    _ONE,
    _ZERO,
    PlannerPath,
    PlannerQuery,
    classify,
    plan_product,
    plan_skeleton,
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
        return {
            "n": self.n,
            "r": self.r,
            "mode": self.mode,
            "queries": self.queries,
            "steps": self.steps,
            "seed": self.seed,
            "domain_histogram": {str(k): v for k, v in sorted(self.domain_histogram.items())},
            "endpoint_violations": self.endpoint_violations,
            "membership_violations": self.membership_violations,
            "domain_violations": self.domain_violations,
            "continuity_probes": self.continuity_probes,
            "max_continuity_ratio": self.max_continuity_ratio,
            "wall_time_s": round(self.wall_time_s, 3),
            "ok": self.ok,
            "failures": [dict(f) for f in self.failures],
        }


def _flag(report: SimulationReport, kind: str, query: PlannerQuery, detail: str):
    """Count one violation of the given kind; record it while under the cap."""
    counter = f"{kind}_violations"
    setattr(report, counter, getattr(report, counter) + 1)
    if len(report.failures) < FAILURE_CAP:
        report.failures.append({"kind": kind, "detail": detail, "query": query.to_jsonable()})


def _endpoints_exact(path: PlannerPath, query: PlannerQuery) -> bool:
    for t, want in ((_ZERO, query.start), (_ONE, query.end)):
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

        domain = path.domain
        histogram[domain] = histogram.get(domain, 0) + 1
        agree = frozenset(j for j, (a, b) in enumerate(zip(start.base, end.base), start=1)
                          if a is b or a == b)
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


def _perturbation(rng: random.Random, eps: Fraction) -> tuple[int, int]:
    """Nonzero rational shift p/q with |p/q| <= eps, as a pair of ints."""
    # the same draw as rng.choice over the nonzero integers in [-1000, 1000]
    k = rng.randrange(2000)
    k = k - 1000 if k < 1000 else k - 999
    p, q = eps.as_integer_ratio()
    return k * p, 1000 * q


def _plus(u: Turn, delta: tuple[int, int]) -> Turn:
    p, q = delta
    return Turn.of(u.num * q + p * u.den, u.den * q)


def _shift(u: Turn, delta: tuple[int, int]) -> Turn:
    """u moved by delta, or by delta/2 where delta would land it on the basepoint."""
    moved = _plus(u, delta)
    if moved.is_zero:
        p, q = delta
        return _plus(u, (p, 2 * q))
    return moved


def _perturb_point(
    point: SkeletonPoint,
    other: SkeletonPoint,
    rng: random.Random,
    eps: Fraction,
    forced: dict[int, tuple[int, int]],
) -> tuple[Turn, ...]:
    """Perturbed base coordinates of one endpoint, support preserved.

    Agreeing coordinates are handled by the caller (both endpoints must be
    shifted identically there); this helper only moves the coordinates where
    the endpoints already differ, keeping zero coordinates exactly zero.  A
    forced shift still draws its perturbation, so the draws do not depend on
    which shifts are forced.
    """
    return tuple(
        u if u is v or u == v or u.is_zero else _shift(u, forced.get(j, _perturbation(rng, eps)))
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
    forced = {j: shift.as_integer_ratio() for j, shift in (forced_start or {}).items()}
    agree = classify(query, sig).indices
    start, end = query.start, query.end
    start_base = list(_perturb_point(start, end, rng, eps, forced))
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
        start_circle, end_circle = _plus(start.circle, delta), _plus(end.circle, delta)
    else:
        start_circle = _plus(start.circle, forced.get(0, _perturbation(rng, eps)))
        end_circle = _plus(end.circle, _perturbation(rng, eps))
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
    not reduced mod 1) passes a half turn over the float times, which must
    include 0, 1 and both rules' phase boundaries, in any order.  A
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

    The paths are compared one coordinate pair at a time, at 0, 1 and the
    pair's own phase boundaries (at most 6 times).  Between two consecutive
    times of that list each of the two coordinates rests or travels at
    constant speed, so their lifted difference (the difference of their
    positions, not reduced mod 1) is linear there, and its circle distance
    peaks at the ends of the piece unless it passes a half turn, where the
    distance is 1/2, the largest it can be.  So the result is the largest
    distance at the listed times, or 1/2 when some lifted difference passes
    a half turn.  Time and memory are linear in the number of coordinates.

    A rule is at its start at its own move_start and at its end at its own
    rest_start (value_at settles both ties exactly), so only the other
    rule's boundaries go through value_at.  Both rules rest before the
    pair's first boundary and after its last, so the distances at 0 and 1
    repeat distances taken there.  A pair sharing one rule object never
    drifts apart, and two constant rules keep one distance, which passes no
    half turn.
    """
    worst = 0.0
    for rule_a, rule_b in zip(path_a.coordinate_rules, path_b.coordinate_rules):
        if rule_a is rule_b:
            continue
        if rule_a.constant and rule_b.constant:
            pairs = ((rule_a.start_f, rule_b.start_f),)
        else:
            pairs, tfs = [], [0.0, 1.0]
            if not rule_a.constant:
                pairs += ((rule_a.start_f, _float_at(rule_b, rule_a.move_start)),
                          (rule_a.end_f, _float_at(rule_b, rule_a.rest_start)))
                tfs += (rule_a.move_start_f, rule_a.rest_start_f)
            if not rule_b.constant:
                pairs += ((_float_at(rule_a, rule_b.move_start), rule_b.start_f),
                          (_float_at(rule_a, rule_b.rest_start), rule_b.end_f))
                tfs += (rule_b.move_start_f, rule_b.rest_start_f)
            if _passes_half_turn(rule_a, rule_b, tfs):
                return 0.5
        for va, vb in pairs:
            d = abs(va - vb) % 1.0
            if d > 0.5:
                d = 1.0 - d
            if d > worst:
                worst = d
    return worst


def _float_at(rule, t: Fraction) -> float:
    """float(rule.value_at(t)): a Turn's float is its correctly rounded quotient."""
    value = rule.value_at(t)
    return value if type(value) is float else value.num / value.den


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
