"""Randomized verification of the planner invariants.

run_simulation drives the planner over seeded random queries and checks,
for every query: exact endpoint interpolation (the path's points at t = 0
and t = 1 equal the query's endpoints, Turn for Turn), a domain that
matches the endpoint agreement (plus 1 for exact antipodes on the circle),
and skeleton membership (at least n-r coordinates exactly at the basepoint)
for every t in [0, 1], not at sampled times only.  Each coordinate's
basepoint count is constant between two phase boundaries, so the path's
boundary sweep, one slot per boundary and one per open piece, proves
membership over the whole interval; the grid counter checks every grid
time as well.  Both are spot-checked against pointwise evaluation, the
sweep at the time of its least count and the grid at a random grid time,
so neither fast path can drift from the reference semantics unnoticed.
Every violation is counted, and the first FAILURE_CAP are recorded with
their queries.

Continuity is probed on pairs of queries: a query and a nearby query,
perturbed within its domain by at most eps per coordinate (DEFAULT_EPS in a
simulation) by perturb_query, and the probe measures how far the two paths
drift apart.  A shift that would land a coordinate exactly on the
basepoint is halved, so supports never change.  The probe corpus is
controlled: ordinary queries draw coordinates with denominators at most
the denominator bound D, so nonzero coordinates stay at least 1/D of a
turn from the basepoint (1/8 at the default D = 8, where the schedule's
local stretch is moderate), and dedicated wrap probes carry one
coordinate across the basepoint, the case where naive arithmetic on
[0, 1) would tear, from (125/256) * eps below it in the query to
(67/256) * eps past it in the nearby query (_wrap_probe), so they scale
with eps.  Perturbations never change the agreement set, the support
sets, or the circle rule (for the circle's shorter arc, while
eps < 1/(4 D^2); see perturb_query), so both paths come from one
continuity domain and their distance must scale linearly with eps.
That distance is the exact supremum over every t in [0, 1], not a
sample, taken one coordinate pair at a time in integer arithmetic
(path_deviation): each coordinate moves linearly between its own phase
boundaries, so a pair's distance peaks at one of the pair's at most four
boundaries unless their difference passes a half turn, where it is 1/2.
continuity_ratio divides it by eps exactly and reports the correctly
rounded float of that ratio.  A probe costs time and memory linear in n.

The verifier uses only the planner's public names.  It decides each
query's agreement once, by classify, which the planner never calls (a
path's agreement is read off its constant rules), so the domain check
compares two independent decisions; perturb_query keeps the same set.
Exact antipodes are decided by Turn.ccw_gap, the counterclockwise gap of
Turn.travel, from which the planner's rules take their travel too.
"""

from __future__ import annotations

import functools
import random
import time
from collections import namedtuple
from fractions import Fraction

from .planner import PlannerPath, PlannerQuery, classify, plan_product, plan_skeleton
from .skeleton import BASEPOINT, SkeletonPoint, Turn, random_turn, sample

DEFAULT_EPS = Fraction(1, 1000)
FAILURE_CAP = 5  # violations recorded with their queries in one report


class SimulationReport(namedtuple("_ReportFields", (
        "n r mode queries steps seed domain_histogram endpoint_violations membership_violations "
        "domain_violations continuity_probes max_continuity_ratio wall_time_s failures"))):
    """Aggregate outcome of one randomized planner verification run: the
    domain histogram maps each domain index to its query count, and the
    failures are the first FAILURE_CAP violations, each with its query."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not (self.endpoint_violations or self.membership_violations or self.domain_violations)

    def to_jsonable(self) -> dict:
        """The fields in their order, then ok, then failures."""
        # updating a key keeps its place
        out = self._asdict()
        del out["failures"]
        out.update(domain_histogram={str(k): v for k, v in sorted(self.domain_histogram.items())},
                   wall_time_s=round(self.wall_time_s, 3), ok=self.ok,
                   failures=[dict(f) for f in self.failures])
        return out


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
    histogram = {}
    # in the order of the report's fields
    violations = {"endpoint": 0, "membership": 0, "domain": 0}
    failures = []

    def flag(kind: str, query: PlannerQuery, detail: str):
        """Count one violation of the given kind; record it while under the cap."""
        violations[kind] += 1
        if len(failures) < FAILURE_CAP:
            failures.append({"kind": kind, "detail": detail, "query": query.to_jsonable()})

    started = time.perf_counter()

    for _ in range(queries):
        start = sample(sig, rng, denominator_bound, with_circle=product)
        end = sample(sig, rng, denominator_bound, with_circle=product)
        query = PlannerQuery(start, end)
        path = plan(query, sig)

        domain = path.domain
        histogram[domain] = histogram.get(domain, 0) + 1
        agree = classify(query, sig)
        # the circle adds a domain exactly at antipodes, a half-turn gap
        gap, den = start.circle.ccw_gap(end.circle) if product else (0, 1)
        if not (path.agreement == agree and domain == len(agree) + (2 * gap == den)):
            flag("domain", query, f"domain index {domain}")

        # a float never equals a Turn, so only exact values pass
        if not (path.evaluate(0) == start and path.evaluate(1) == end):
            flag("endpoint", query, "path does not interpolate exactly")

        counts = path.exact_zero_counts(steps)
        spot = rng.randrange(steps + 1)
        if path.evaluate(Fraction(spot, steps)).exact_zero_count() != counts[spot]:
            flag("membership", query,
                 f"grid counter disagrees with evaluation at t={Fraction(spot, steps)}")
        low = min(counts)
        if low < need:
            flag("membership", query,
                 f"only {low} coordinates at basepoint at "
                 f"t={Fraction(counts.index(low), steps)}, need {need}")
        least, at = path.least_zero_count()
        if path.evaluate(at).exact_zero_count() != least:
            flag("membership", query, f"boundary sweep disagrees with evaluation at t={at}")
        if least < need:
            flag("membership", query,
                 f"only {least} coordinates at basepoint at t={at}, need {need}")

    ratios = [continuity_ratio(sig, mode, rng, wrap=p % 4 == 3,
                               denominator_bound=denominator_bound)
              for p in range(continuity_probes)]
    ratios = [ratio for ratio in ratios if ratio is not None]
    return SimulationReport(sig.n, sig.r, mode, queries, steps, seed, histogram,
                            *violations.values(), len(ratios), max(ratios, default=None),
                            time.perf_counter() - started, failures)


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
    if not moved.num:
        p, q = delta
        return _plus(u, (p, 2 * q))
    return moved


def _perturb_point(
    point: SkeletonPoint,
    agree: frozenset[int],
    rng: random.Random,
    eps: Fraction,
) -> list[Turn]:
    """Perturbed base coordinates of one endpoint, support preserved.

    The labels in agree are handled by the caller (both endpoints must be
    shifted identically there); this helper only moves the coordinates where
    the endpoints differ, keeping zero coordinates exactly zero.
    """
    return [u if j in agree or not u.num else _shift(u, _perturbation(rng, eps))
            for j, u in enumerate(point.base, 1)]


def perturb_query(
    query: PlannerQuery,
    sig,
    rng: random.Random,
    eps: Fraction = DEFAULT_EPS,
) -> PlannerQuery | None:
    """A nearby query in the same continuity domain, or None if the query
    has nothing to move: the second query of a continuity probe.

    Coordinates where the endpoints agree get one shared shift so they keep
    agreeing; coordinates where they differ move independently.  Exact zeros
    never move, so supports are preserved.  The circle pair, when present,
    always moves.  It shares its shift whenever the endpoints are equal or
    antipodal so the circle rule survives; otherwise both ends move freely.
    The shorter arc then keeps its direction only while eps < 1/(4 D^2) for
    endpoint denominators at most D: a gap other than 1/2 lies at least
    1/(2 D^2) from it, and two independent shifts move the gap by at most
    2 eps.  That holds at D = 8 and eps = 1/1000, but not at D = 1000, where
    a probe can carry the gap across 1/2 and read about 0.5/eps.
    """
    agree = classify(query, sig)
    start, end = query.start, query.end
    start_base = _perturb_point(start, agree, rng, eps)
    end_base = _perturb_point(end, agree, rng, eps)
    for j in agree:
        u = start.base[j - 1]
        if u.num:
            start_base[j - 1] = end_base[j - 1] = _shift(u, _perturbation(rng, eps))

    start_circle = end_circle = None
    if start.circle is not None:
        gap, den = start.circle.ccw_gap(end.circle)
        delta = _perturbation(rng, eps)
        start_circle = _plus(start.circle, delta)
        end_circle = _plus(end.circle, delta if 2 * gap in (0, den) else _perturbation(rng, eps))
    elif (start_base, end_base) == (list(start.base), list(end.base)):
        return None
    return PlannerQuery(
        SkeletonPoint(tuple(start_base), start_circle),
        SkeletonPoint(tuple(end_base), end_circle),
    )


def _wrap_probe(sig, rng: random.Random, product: bool,
                eps: Fraction = DEFAULT_EPS) -> tuple[PlannerQuery, PlannerQuery] | None:
    """A continuity probe that carries one coordinate across the basepoint:
    a query and its nearby query, or None if there is no coordinate to
    carry (r = 1 without the circle).

    The carried coordinate starts (125/256) * eps below the basepoint
    (2047/2048 at DEFAULT_EPS) in the query and (67/256) * eps past it in
    the nearby query, a push of (3/4) * eps, so it crosses whatever eps is.
    With r >= 2 it is the first of r-1 random base labels; in product mode
    the circle is carried too.  Everything else about the nearby query is
    perturb_query's, whose draws include one for each carried coordinate.
    """
    if sig.r < 2 and not product:
        return None
    wrap, crossed = _wrap_turns(eps)
    start_base, end_base = [BASEPOINT] * (sig.n - 1), [BASEPOINT] * (sig.n - 1)
    target = None
    if sig.r >= 2:
        support = sorted(rng.sample(range(1, sig.n), sig.r - 1))
        for label in support:
            start_base[label - 1] = random_turn(rng, 8)
            end_base[label - 1] = random_turn(rng, 8)
        target = support[0] - 1
        start_base[target] = wrap
        end_base[target] = Turn.of(1, 2)
    circles = (wrap, Turn.of(1, 4)) if product else (None, None)
    query = PlannerQuery(SkeletonPoint(tuple(start_base), circles[0]),
                         SkeletonPoint(tuple(end_base), circles[1]))
    # the carried coordinate moves, so perturb_query never returns None here
    nearby = perturb_query(query, sig, rng, eps)
    base = list(nearby.start.base)
    if target is not None:
        base[target] = crossed
    start = SkeletonPoint(tuple(base), crossed if product else None)
    return query, PlannerQuery(start, nearby.end)


@functools.lru_cache(maxsize=4)
def _wrap_turns(eps: Fraction) -> tuple[Turn, Turn]:
    """The Turns a wrap probe carries a coordinate between: (125/256) * eps
    below the basepoint and (67/256) * eps past it."""
    return Turn(1 - Fraction(125, 256) * eps), Turn(Fraction(67, 256) * eps)


def _lifted(rule, p: int, q: int) -> tuple[int, int]:
    """Position of a rule at time p/q, not reduced mod 1, as an integer
    pair (numerator, positive denominator), from the rule's own ints."""
    start, _, _, _, m_p, m_q, r_p, r_q, d_n, d_d = rule
    s_n, s_d = start.num, start.den
    if not d_n or p * m_q <= m_p * q:
        return s_n, s_d
    if p * r_q >= r_p * q:
        return s_n * d_d + d_n * s_d, s_d * d_d
    w = r_p * m_q - m_p * r_q
    return s_n * q * w * d_d + s_d * d_n * (p * m_q - m_p * q) * r_q, s_d * q * w * d_d


def path_deviation(path_a: PlannerPath, path_b: PlannerPath) -> Fraction:
    """Largest circle distance between two paths of one space over all of
    [0, 1], exactly.

    The paths are compared one coordinate pair at a time, at the pair's
    own phase boundaries: the move_start and rest_start of each rule that
    travels, or one time for two constant rules.  Both rules rest before
    the first of those times and after the last, so times 0 and 1 add
    nothing.  Every position there is an integer pair (_lifted), and so is
    the lifted difference a/b (b > 0) of the two coordinates: the
    difference of their positions, not reduced mod 1.  One divmod of a by b
    gives both answers:

    - floor(D - 1/2) for D = a/b is a // b, less 1 when 2 (a mod b) < b;
    - the circle distance of D is min(a mod b, b - a mod b) / b.

    Proof that this is the supremum.  Between two consecutive times each
    rule rests or travels at constant speed, so D is linear there, and D
    is constant before the first time and after the last.  If
    floor(D - 1/2) takes one value k at every time, D lies in the interval
    [k + 1/2, k + 3/2) at every time, hence on all of [0, 1], since that
    interval is convex.  There the circle distance is |D - (k + 1)|, a
    convex function of a linear one on each piece, so it peaks at the ends
    of the piece, which are listed times.  If floor(D - 1/2) takes two
    values, D meets some k + 1/2 in between, where the distance is 1/2,
    the largest there is, and the result is 1/2.

    A pair sharing one rule object never drifts apart.  Distances are
    compared by cross multiplication, so no float takes part.  Time and
    memory are linear in the number of coordinates.  Two paths of different
    modes or sizes raise ValueError.
    """
    rules_a, rules_b = path_a.coordinate_rules, path_b.coordinate_rules
    if path_a.mode != path_b.mode or len(rules_a) != len(rules_b):
        raise ValueError(f"paths of different spaces: {path_a.mode} with {len(rules_a)} "
                         f"coordinates, {path_b.mode} with {len(rules_b)}")
    worst_n, worst_d = 0, 1
    for rule_a, rule_b in zip(rules_a, rules_b):
        if rule_a is rule_b:
            continue
        times = [pq for rule in (rule_a, rule_b) if not rule.constant
                 for pq in ((rule.m_p, rule.m_q), (rule.r_p, rule.r_q))]
        turn = None
        for p, q in times or ((0, 1),):
            n_a, d_a = _lifted(rule_a, p, q)
            n_b, d_b = _lifted(rule_b, p, q)
            b = d_a * d_b
            whole, rest = divmod(n_a * d_b - n_b * d_a, b)
            # floor(D - 1/2) for the difference D = whole + rest / b
            turn, last = whole - (2 * rest < b), turn
            if last is not None and turn != last:
                return Fraction(1, 2)
            near = min(rest, b - rest)
            if near * worst_d > worst_n * b:
                worst_n, worst_d = near, b
    return Fraction(worst_n, worst_d)


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
    if wrap:
        pair = _wrap_probe(sig, rng, product, eps)
    else:
        query = PlannerQuery(sample(sig, rng, denominator_bound, with_circle=product),
                             sample(sig, rng, denominator_bound, with_circle=product))
        pair = query, perturb_query(query, sig, rng, eps=eps)
    if pair is None or pair[1] is None:
        return None

    plan = plan_product if product else plan_skeleton
    path_a, path_b = (plan(q, sig) for q in pair)
    if path_a.agreement != path_b.agreement:
        raise RuntimeError("perturbation changed the agreement set; corpus bug")
    if path_a.domain != path_b.domain:
        raise RuntimeError("perturbation changed the circle rule; corpus bug")
    # the correctly rounded float of deviation / eps, as one int quotient
    dev_n, dev_d = path_deviation(path_a, path_b).as_integer_ratio()
    eps_n, eps_d = eps.as_integer_ratio()
    return dev_n * eps_d / (dev_d * eps_n)
