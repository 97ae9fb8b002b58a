"""Explicit motion planning on torus skeletons.

Paths run over the time interval [0, 1].  Each base coordinate follows a
three-phase schedule: rest at the start value while the start value is near
the basepoint, travel counterclockwise at constant speed, then rest at the
end value.  The dwell lengths are chosen so that a coordinate sitting at the
basepoint stays there for at least half of the path, which forces at least
n-r coordinates to be exactly at the basepoint at every moment; that is the
membership invariant keeping the whole path on the skeleton.

The planner for the product space adds one free circle coordinate moved
along its shorter arc, with the exact antipode sent counterclockwise.  The
rule applied to a query is indexed by how many coordinates the two endpoints
share, which partitions all queries into n+1 domains of continuity.

Exactness discipline: evaluation at a time inside a resting phase (or at
t = 0, 1) returns exact Turn values; strictly inside a travel phase it
returns floats.  Membership accounting counts only exact basepoint hits, so
float noise can never manufacture a coordinate that looks parked.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .skeleton import SkeletonPoint, Turn, membership

_SQRT2 = math.sqrt(2.0)
_QUARTER = Fraction(1, 4)
_HALF = Fraction(1, 2)
_THREE_QUARTERS = Fraction(3, 4)


class InvalidEndpoint(ValueError):
    """Raised when a query endpoint is not a valid point of the target space."""


def dwell_time(z: Turn):
    """Resting time a coordinate starting at z spends before it may move.

    Exactly 1/2 at the basepoint, exactly 0 when z is at least a quarter
    turn away, and 0.5 * (1 - sqrt(2) * sin(pi * d)) in between, where d is
    the turn distance from z to the basepoint.  The two flat regimes return
    exact Fractions; the transition returns a float clamped into [0, 1/2) so
    that only the basepoint ever dwells for a full half turn of time.
    """
    v = z.value
    if v == 0:
        return _HALF
    if _QUARTER <= v <= _THREE_QUARTERS:
        return Fraction(0)
    d = v if v < _HALF else 1 - v
    raw = 0.5 * (1.0 - _SQRT2 * math.sin(math.pi * float(d)))
    if raw <= 0.0:
        return Fraction(0)
    if raw >= 0.5:
        # float underflow for d absurdly close to 0; keep the invariant strict
        raw = math.nextafter(0.5, 0.0)
    return raw


def ccw_arc(z: Turn, z_prime: Turn, s):
    """Counterclockwise constant-speed travel from z to z_prime at local time s.

    s runs over [0, 1]; the endpoints come back as exact Turns and interior
    times as floats.  The endpoints must differ, so the travel direction is
    well defined.
    """
    if z == z_prime:
        raise ValueError("arc endpoints must differ")
    s = Fraction(s) if not isinstance(s, float) else s
    if not 0 <= s <= 1:
        raise ValueError("local time must lie in [0, 1]")
    if s == 0:
        return z
    if s == 1:
        return z_prime
    gap = z.ccw_gap(z_prime)
    return (float(z.value) + float(s) * float(gap)) % 1.0


@dataclass(frozen=True)
class PlannerQuery:
    """An ordered pair of endpoints in the same space."""

    start: SkeletonPoint
    end: SkeletonPoint

    def __post_init__(self):
        if len(self.start.base) != len(self.end.base):
            raise ValueError("endpoints have different base dimensions")
        if self.start.has_circle != self.end.has_circle:
            raise ValueError("endpoints disagree about the circle factor")

    def to_jsonable(self) -> dict:
        return {"from": self.start.to_jsonable(), "to": self.end.to_jsonable()}


class Agreement(NamedTuple):
    """Base coordinates shared by the two endpoints, and the domain they select."""

    indices: frozenset[int]
    domain_index: int


def classify(query: PlannerQuery, sig) -> Agreement:
    """Agreement set J and domain index i = |J| of a query.

    Exact coordinate equality is decidable because coordinates are rational,
    so every query falls in exactly one domain, 0 <= i <= n-1.
    """
    if len(query.start.base) != sig.n - 1:
        raise ValueError(f"expected {sig.n - 1} base coordinates, got {len(query.start.base)}")
    agree = frozenset(
        j + 1
        for j, (a, b) in enumerate(zip(query.start.base, query.end.base))
        if a == b
    )
    return Agreement(agree, len(agree))


@dataclass(frozen=True)
class CoordinateRule:
    """Schedule of one base coordinate: rest, travel counterclockwise, rest.

    move_start and rest_start are exact Fractions (exact images of the dwell
    times), so phase membership at rational times is decided exactly; the
    *_f fields are float mirrors used only inside the travel phase.
    """

    label: int
    start: Turn
    end: Turn
    constant: bool
    move_start: Fraction
    rest_start: Fraction
    delta: Fraction
    start_f: float
    delta_f: float
    move_start_f: float
    span_f: float

    def value_at(self, t: Fraction):
        if self.constant or t <= self.move_start:
            return self.start
        if t >= self.rest_start:
            return self.end
        s = (float(t) - self.move_start_f) / self.span_f
        return (self.start_f + s * self.delta_f) % 1.0


@dataclass(frozen=True)
class CircleRule:
    """Schedule of the free circle factor: one constant-speed shorter arc.

    rule_index 0 covers pairs that are not antipodal (including equal ones,
    which stay put); rule_index 1 sends exact antipodes half a turn
    counterclockwise.  delta is the signed travel in turns.
    """

    start: Turn
    end: Turn
    rule_index: int
    delta: Fraction
    start_f: float
    delta_f: float

    def value_at(self, t: Fraction):
        if self.delta == 0 or t == 0:
            return self.start
        if t == 1:
            return self.end
        return (self.start_f + float(t) * self.delta_f) % 1.0


@dataclass(frozen=True)
class EvaluatedPoint:
    """Snapshot of a path at one time; values are exact Turns or floats."""

    base: tuple
    circle: object = None

    def exact_zero_count(self) -> int:
        """Base coordinates exactly at the basepoint (floats never count)."""
        return sum(1 for v in self.base if isinstance(v, Turn) and v.is_zero)

    def all_exact(self) -> bool:
        vals = self.base if self.circle is None else (*self.base, self.circle)
        return all(isinstance(v, Turn) for v in vals)


def _check_time(t) -> Fraction:
    if isinstance(t, float):
        raise TypeError("evaluation times must be exact rationals, not floats")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")
    return t


@dataclass(frozen=True)
class PlannerPath:
    """A planned path together with the query data that produced it."""

    sig: object
    query: PlannerQuery
    mode: str
    agreement: frozenset[int]
    domain_index: int
    rules: tuple[CoordinateRule, ...]
    circle_rule: CircleRule | None = None
    combined_index: int | None = None

    def evaluate(self, t) -> EvaluatedPoint:
        """Point of the path at rational time t in [0, 1]."""
        t = _check_time(t)
        base = tuple(rule.value_at(t) for rule in self.rules)
        circ = self.circle_rule.value_at(t) if self.circle_rule is not None else None
        return EvaluatedPoint(base, circ)

    def evaluate_many(self, times, floats: bool = False) -> list:
        """Points of the path at every time of an ascending rational list.

        Equal to [self.evaluate(t) for t in times], Turn for Turn and float
        for float: each rule's phase is found with two exact bisections, as
        in exact_zero_counts, and travel values use value_at's float
        expression on float(t), taken once per time.  With floats=True each
        point is instead the tuple of its values as floats, base coordinates
        then the circle; resting values come from the float mirrors, so no
        Turn is converted per point.
        """
        if any(isinstance(t, float) for t in times):
            raise TypeError("evaluation times must be exact rationals, not floats")
        if times:
            _check_time(times[0])
            _check_time(times[-1])
        m = len(times)
        tfs = [float(t) for t in times]
        columns = []
        for rule in self.rules:
            first = rule.start_f if floats else rule.start
            if rule.constant:
                columns.append([first] * m)
                continue
            last = float(rule.end.value) if floats else rule.end
            hi = bisect_right(times, rule.move_start)
            lo = bisect_left(times, rule.rest_start)
            s0, ms, span, dl = rule.start_f, rule.move_start_f, rule.span_f, rule.delta_f
            travel = [(s0 + ((tf - ms) / span) * dl) % 1.0 for tf in tfs[hi:lo]]
            columns.append([first] * hi + travel + [last] * (m - lo))
        circle = None
        c = self.circle_rule
        if c is not None:
            first = c.start_f if floats else c.start
            if c.delta == 0:
                circle = [first] * m
            else:
                last = float(c.end.value) if floats else c.end
                lo = bisect_right(times, 0)
                hi = bisect_left(times, 1)
                travel = [(c.start_f + tf * c.delta_f) % 1.0 for tf in tfs[lo:hi]]
                circle = [first] * lo + travel + [last] * (m - hi)
        if floats:
            if circle is not None:
                columns.append(circle)
            return list(zip(*columns)) if columns else [()] * m
        base_rows = zip(*columns) if columns else [()] * m
        return [EvaluatedPoint(base, circ)
                for base, circ in zip(base_rows, circle or [None] * m)]

    def phase_boundaries(self) -> tuple[Fraction, ...]:
        """Times where some coordinate switches phase, in ascending order."""
        cuts = set()
        for rule in self.rules:
            if not rule.constant:
                cuts.add(rule.move_start)
                cuts.add(rule.rest_start)
        return tuple(sorted(cuts))

    def exact_zero_counts(self, times) -> list[int]:
        """Exact basepoint counts at each time of an ascending rational list.

        Matches evaluate(t).exact_zero_count() pointwise; computed with two
        bisections per rule so large grids stay cheap.  A coordinate resting
        at the basepoint contributes on a prefix (start side, up to and
        including move_start) or a suffix (end side, from rest_start on).
        """
        m = len(times)
        diff = [0] * (m + 1)
        for rule in self.rules:
            if rule.constant:
                if rule.start.is_zero:
                    diff[0] += 1
                    diff[m] -= 1
                continue
            if rule.start.is_zero:
                hi = bisect_right(times, rule.move_start)
                if hi > 0:
                    diff[0] += 1
                    diff[hi] -= 1
            if rule.end.is_zero:
                lo = bisect_left(times, rule.rest_start)
                if lo < m:
                    diff[lo] += 1
                    diff[m] -= 1
        counts = []
        running = 0
        for k in range(m):
            running += diff[k]
            counts.append(running)
        return counts


def sample_times(steps: int, *extra) -> list[Fraction]:
    """The grid k/steps for k = 0..steps with the extra times inserted, in
    ascending order and each time once.

    Each extra time is placed by bisection: the extra runs (phase
    boundaries) are short next to the grid.
    """
    out = [Fraction(k, steps) for k in range(steps + 1)]
    for run in extra:
        for t in run:
            i = bisect_left(out, t)
            if i == len(out) or out[i] != t:
                out.insert(i, t)
    return out


def _build_rules(start: SkeletonPoint, end: SkeletonPoint) -> tuple[CoordinateRule, ...]:
    rules = []
    for j, (u, v) in enumerate(zip(start.base, end.base), start=1):
        if u == v:
            rules.append(
                CoordinateRule(
                    label=j, start=u, end=v, constant=True,
                    move_start=Fraction(0), rest_start=Fraction(1), delta=Fraction(0),
                    start_f=float(u.value), delta_f=0.0, move_start_f=0.0, span_f=1.0,
                )
            )
            continue
        move_start = Fraction(dwell_time(u))
        rest_start = 1 - Fraction(dwell_time(v))
        span = rest_start - move_start
        if span <= 0:
            # unreachable: dwell is 1/2 only at the basepoint and u != v
            raise RuntimeError(f"scheduling window collapsed for coordinate {j}")
        delta = u.ccw_gap(v)
        rules.append(
            CoordinateRule(
                label=j, start=u, end=v, constant=False,
                move_start=move_start, rest_start=rest_start, delta=delta,
                start_f=float(u.value), delta_f=float(delta),
                move_start_f=float(move_start), span_f=float(span),
            )
        )
    return tuple(rules)


def _require_membership(point: SkeletonPoint, sig, which: str):
    ok, support = membership(point.base, sig)
    if not ok:
        raise InvalidEndpoint(
            f"{which} endpoint has support {sorted(support)} of size "
            f"{len(support)}, but at most {sig.r - 1} coordinates may be "
            f"away from the basepoint"
        )


def plan_skeleton(query: PlannerQuery, sig) -> PlannerPath:
    """Plan a path between two skeleton points (no circle factor).

    The returned path starts and ends exactly at the endpoints, stays on the
    skeleton at every time, and depends continuously on the query within
    each agreement domain.
    """
    if query.start.has_circle:
        raise InvalidEndpoint("skeleton planning expects endpoints without a circle factor")
    _require_membership(query.start, sig, "start")
    _require_membership(query.end, sig, "end")
    agree = classify(query, sig)
    return PlannerPath(
        sig=sig,
        query=query,
        mode="skeleton",
        agreement=agree.indices,
        domain_index=agree.domain_index,
        rules=_build_rules(query.start, query.end),
    )


def _build_circle_rule(z: Turn, z_prime: Turn) -> CircleRule:
    gap = z.ccw_gap(z_prime)
    if gap == _HALF:
        rule_index, delta = 1, _HALF
    elif gap == 0:
        rule_index, delta = 0, Fraction(0)
    elif gap < _HALF:
        rule_index, delta = 0, gap
    else:
        rule_index, delta = 0, gap - 1
    return CircleRule(
        start=z, end=z_prime, rule_index=rule_index, delta=delta,
        start_f=float(z.value), delta_f=float(delta),
    )


def plan_product(query: PlannerQuery, sig) -> PlannerPath:
    """Plan a path in the product of a circle with the skeleton.

    The base coordinates follow the skeleton schedule; the circle factor
    takes its shorter arc, counterclockwise for exact antipodes.  The
    combined domain index is the base agreement count plus the circle rule
    index, giving n+1 domains in total.
    """
    if not query.start.has_circle:
        raise InvalidEndpoint("product planning expects endpoints with a circle factor")
    _require_membership(query.start, sig, "start")
    _require_membership(query.end, sig, "end")
    agree = classify(query, sig)
    circle_rule = _build_circle_rule(query.start.circle, query.end.circle)
    return PlannerPath(
        sig=sig,
        query=query,
        mode="product",
        agreement=agree.indices,
        domain_index=agree.domain_index,
        rules=_build_rules(query.start, query.end),
        circle_rule=circle_rule,
        combined_index=agree.domain_index + circle_rule.rule_index,
    )
