"""Explicit motion planning on torus skeletons.

Paths run over the time interval [0, 1].  Every coordinate follows one
kind of three-phase schedule, a CoordinateRule: rest at the start value,
travel a signed amount at constant speed, then rest at the end value.

Base coordinates (labels 1..n-1) travel counterclockwise, and their dwell
lengths are chosen so that a coordinate sitting at the basepoint stays there
for at least half of the path, which forces at least n-r coordinates to be
exactly at the basepoint at every moment; that is the membership invariant
keeping the whole path on the skeleton.

The planner for the product space adds the free circle factor as label 0,
with the window [0, 1] and a signed delta: it travels its shorter arc, and
exact antipodes go half a turn counterclockwise.  The rule applied to a
query is indexed by how many coordinates the two endpoints share, which
partitions all queries into n+1 domains of continuity.

Exactness discipline: evaluation at a time inside a resting phase (or at
t = 0, 1) returns exact Turn values; strictly inside a travel phase it
returns floats.  Membership accounting counts only exact basepoint hits, so
float noise can never manufacture a coordinate that looks parked.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .skeleton import SkeletonPoint, Turn, membership

_SQRT2 = math.sqrt(2.0)
_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


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
    p, q = z.num, z.den
    if not p:
        return _HALF
    if q <= 4 * p <= 3 * q:
        return _ZERO
    d = p if 2 * p < q else q - p
    raw = 0.5 * (1.0 - _SQRT2 * math.sin(math.pi * (d / q)))
    if raw <= 0.0:
        return _ZERO
    if raw >= 0.5:
        # float underflow for d absurdly close to 0; keep the invariant strict
        raw = math.nextafter(0.5, 0.0)
    return raw


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


class CoordinateRule(namedtuple("_RuleFields", (
        "start end move_start rest_start delta rule_index constant "
        "start_f end_f delta_f move_start_f rest_start_f span_f"))):
    """Schedule of one coordinate: rest at start until move_start, travel
    delta turns at constant speed, rest at end from rest_start on.

    A rule knows nothing of its coordinate, which is its position in
    PlannerPath.coordinate_rules.  Base coordinates take their window from
    the dwell times and delta is the counterclockwise gap.  The free circle
    factor has the window [0, 1] and delta is the signed shorter arc, with
    rule_index 1 for exact antipodes (half a turn counterclockwise) and 0
    otherwise.  Base coordinates keep rule_index 0.

    The fields passed in are exact, so phase membership at rational times
    is decided exactly.  constant and the *_f float mirrors, which the
    travel phase, float evaluation and the phase search read, are derived
    from them here and nowhere else, from their integer numerators and
    denominators: each mirror is the correctly rounded float of its exact
    value.  A rule is an immutable tuple, so one rule may serve many paths;
    copies and _replace go through the constructor, so the mirrors always
    follow the exact fields.
    """

    __slots__ = ()

    def __new__(cls, start: Turn, end: Turn, move_start: Fraction, rest_start: Fraction,
                delta: Fraction, rule_index: int = 0):
        d_p, d_q = delta.as_integer_ratio()
        m_p, m_q = move_start.as_integer_ratio()
        r_p, r_q = rest_start.as_integer_ratio()
        return tuple.__new__(cls, (
            start, end, move_start, rest_start, delta, rule_index, not d_p,
            start.num / start.den, end.num / end.den, d_p / d_q, m_p / m_q, r_p / r_q,
            (r_p * m_q - m_p * r_q) / (r_q * m_q)))

    def __getnewargs__(self):
        return self[:6]

    @classmethod
    def _make(cls, fields):
        return cls(*tuple(fields)[:6])

    def value_at(self, t: Fraction):
        if self.constant:
            return self.start
        # rounding is monotone, so only a float tie needs an exact
        # comparison, and none when t is the boundary object itself
        tf = t.numerator / t.denominator
        ms, rs = self.move_start_f, self.rest_start_f
        if tf < ms or tf == ms and (t is self.move_start or t <= self.move_start):
            return self.start
        if tf > rs or tf == rs and (t is self.rest_start or t >= self.rest_start):
            return self.end
        s = (tf - ms) / self.span_f
        return (self.start_f + s * self.delta_f) % 1.0


@dataclass(frozen=True)
class EvaluatedPoint:
    """Snapshot of a path at one time; values are exact Turns or floats."""

    base: tuple
    circle: object = None

    def exact_zero_count(self) -> int:
        """Base coordinates exactly at the basepoint (floats never count)."""
        return sum(1 for v in self.base if isinstance(v, Turn) and v.is_zero)


def _check_time(t) -> Fraction:
    if type(t) is not Fraction:
        if isinstance(t, float):
            raise TypeError("evaluation times must be exact rationals, not floats")
        t = Fraction(t)
    p, q = t.as_integer_ratio()
    if not 0 <= p <= q:
        raise ValueError(f"time {t} outside [0, 1]")
    return t


def _count_through(times, floats, bound: Fraction, bound_f: float) -> int:
    """How many times of an ascending rational list are <= bound.

    The search runs on floats, where floats[k] = float(times[k]) and
    bound_f = float(bound).  Rounding is monotone, so a time whose float
    differs from bound_f lies on the same side of bound as its float lies of
    bound_f; each time whose float ties with bound_f is settled by one exact
    comparison, unless it is the bound object itself.
    """
    k = bisect_right(floats, bound_f)
    while k and floats[k - 1] == bound_f and times[k - 1] is not bound and times[k - 1] > bound:
        k -= 1
    return k


def _count_below(times, floats, bound: Fraction, bound_f: float) -> int:
    """How many times of an ascending rational list are < bound; the search
    is _count_through's."""
    k = bisect_left(floats, bound_f)
    m = len(times)
    while k < m and floats[k] == bound_f and times[k] is not bound and times[k] < bound:
        k += 1
    return k


@dataclass(frozen=True)
class PlannerPath:
    """A planned path: its mode, the endpoints' agreement and domain, and
    one schedule per coordinate."""

    mode: str
    agreement: frozenset[int]
    domain_index: int
    rules: tuple[CoordinateRule, ...]
    circle_rule: CoordinateRule | None = None
    combined_index: int | None = None

    @property
    def coordinate_rules(self) -> tuple[CoordinateRule, ...]:
        """The rule of every coordinate: the base ones in order, then the circle."""
        return self.rules if self.circle_rule is None else (*self.rules, self.circle_rule)

    @property
    def domain(self) -> int:
        """The continuity domain: combined_index in product mode, else domain_index."""
        return self.domain_index if self.combined_index is None else self.combined_index

    def evaluate(self, t) -> EvaluatedPoint:
        """Point of the path at rational time t in [0, 1]."""
        t = _check_time(t)
        base = tuple(rule.value_at(t) for rule in self.rules)
        circ = self.circle_rule.value_at(t) if self.circle_rule is not None else None
        return EvaluatedPoint(base, circ)

    def columns(self, times) -> list[list]:
        """Values of each coordinate at every time of an ascending rational
        list, one list per entry of coordinate_rules.

        Equal to the values of [self.evaluate(t) for t in times], Turn for
        Turn and float for float; a resting coordinate repeats one Turn
        object.  Each rule's phases are found by bisecting the floats of the
        times, with ties settled exactly (_count_through), so no time is
        placed by Fraction comparisons; travel values use value_at's float
        expression on float(t), taken once per time.
        """
        try:
            # float(t) as the correctly rounded quotient of two integers;
            # floats have no numerator
            tfs = [t.numerator / t.denominator for t in times]
        except AttributeError:
            raise TypeError("evaluation times must be exact rationals, not floats") from None
        if times:
            _check_time(times[0])
            _check_time(times[-1])
        m = len(times)
        columns = []
        for rule in self.coordinate_rules:
            if rule.constant:
                columns.append([rule.start] * m)
                continue
            hi = _count_through(times, tfs, rule.move_start, rule.move_start_f)
            lo = _count_below(times, tfs, rule.rest_start, rule.rest_start_f)
            s0, ms, span, dl = rule.start_f, rule.move_start_f, rule.span_f, rule.delta_f
            travel = [(s0 + ((tf - ms) / span) * dl) % 1.0 for tf in tfs[hi:lo]]
            columns.append([rule.start] * hi + travel + [rule.end] * (m - lo))
        return columns

    def phase_boundaries(self) -> tuple[Fraction, ...]:
        """Times where some coordinate switches phase, in ascending order."""
        cuts = {}
        for rule in self.rules:
            if not rule.constant:
                # keyed by numerator and denominator, sorted by float with
                # exact ties broken by the Fractions themselves
                cuts[rule.move_start.as_integer_ratio()] = (rule.move_start_f, rule.move_start)
                cuts[rule.rest_start.as_integer_ratio()] = (rule.rest_start_f, rule.rest_start)
        return tuple(t for _, t in sorted(cuts.values()))

    def exact_zero_counts(self, steps: int) -> list[int]:
        """Exact basepoint counts at the grid times k/steps, k = 0..steps.

        Matches evaluate(Fraction(k, steps)).exact_zero_count() pointwise.
        A coordinate resting at the basepoint counts on a prefix of the grid
        (start side, up to and including move_start = p/q) or a suffix (end
        side, from rest_start = p/q on).  k/steps <= p/q exactly when
        k*q <= p*steps, so the prefix ends at index p*steps // q and the
        suffix starts at the ceiling of p*steps / q: one integer division
        per boundary, with no Fraction comparison.
        """
        if not isinstance(steps, int):
            raise TypeError(f"steps must be an integer, got {steps!r}")
        if steps < 1:
            raise ValueError(f"steps must be positive, got {steps}")
        diff = [0] * (steps + 2)
        for rule in self.rules:
            if rule.start.is_zero:
                diff[0] += 1
                if not rule.constant:
                    p, q = rule.move_start.as_integer_ratio()
                    diff[p * steps // q + 1] -= 1
            if rule.end.is_zero and not rule.constant:
                p, q = rule.rest_start.as_integer_ratio()
                diff[-(-p * steps // q)] += 1
        return list(accumulate(diff[:steps + 1]))

    def least_zero_count(self) -> tuple[int, Fraction]:
        """Least exact basepoint count over every t in [0, 1], and a time
        where it occurs.

        Between two consecutive phase boundaries every coordinate stays in
        one phase, so the count is constant on each open piece.  The sweep
        therefore has one integer slot per boundary (0 and 1 included) and
        one per open piece between them, and the least count over the slots
        is the least count over [0, 1].  Boundaries are matched to slots by
        their numerator and denominator, so no Fraction is compared beyond
        phase_boundaries' sort.  The time returned is the boundary itself,
        or the midpoint of the open piece.
        """
        times = list(self.phase_boundaries())
        if not times or times[0].numerator:
            times.insert(0, _ZERO)
        p, q = times[-1].as_integer_ratio()
        if p != q:
            times.append(_ONE)
        slot = {t.as_integer_ratio(): 2 * i for i, t in enumerate(times)}
        last = slot[1, 1]
        diff = [0] * (last + 2)
        for rule in self.rules:
            if rule.start.is_zero:
                diff[0] += 1
                if not rule.constant:
                    diff[slot[rule.move_start.as_integer_ratio()] + 1] -= 1
            if rule.end.is_zero and not rule.constant:
                diff[slot[rule.rest_start.as_integer_ratio()]] += 1
        counts = list(accumulate(diff[:last + 1]))
        low = min(counts)
        i, inside = divmod(counts.index(low), 2)
        return low, (times[i] + times[i + 1]) / 2 if inside else times[i]


@functools.lru_cache(maxsize=4)
def _grid(steps: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(k, steps) for k in range(steps + 1))


def sample_times(steps: int, *extra) -> list[Fraction]:
    """The grid k/steps for k = 0..steps with the extra times inserted, in
    ascending order and each time once.

    An extra time p/q is grid point k = p*steps // q when the remainder is
    0, and otherwise lies strictly between grid points k and k+1, so each
    is placed by integer arithmetic; extras sharing a grid cell are sorted
    by float, with exact ties broken by the Fractions themselves.  Extras
    must be exact rationals in [0, 1].
    """
    grid = _grid(steps)
    cells = {}
    for run in extra:
        for t in run:
            t = _check_time(t)
            p, q = t.as_integer_ratio()
            k, off = divmod(p * steps, q)
            if off:
                cells.setdefault(k, {})[p, q] = (p / q, t)
    out = []
    done = 0
    for k in sorted(cells):
        out += grid[done:k + 1]
        out += [t for _, t in sorted(cells[k].values())]
        done = k + 1
    out += grid[done:]
    return out


# the rule of every coordinate parked at the basepoint at both ends
_PARKED = CoordinateRule(start=Turn(0), end=Turn(0), move_start=_ZERO, rest_start=_ONE,
                         delta=_ZERO)


def _build_rules(start: SkeletonPoint, end: SkeletonPoint) -> tuple[CoordinateRule, ...]:
    rules = []
    for j, (u, v) in enumerate(zip(start.base, end.base), start=1):
        if u == v:
            rules.append(_PARKED if u.is_zero else CoordinateRule(
                start=u, end=v, move_start=_ZERO, rest_start=_ONE, delta=_ZERO))
            continue
        lead, tail = dwell_time(u), dwell_time(v)
        if type(lead) is float:
            lead = Fraction(lead)
        if type(tail) is float:
            num, den = tail.as_integer_ratio()
            rest_start = Fraction(den - num, den)
        else:
            # an exact dwell is 1/2 or 0
            rest_start = _HALF if tail else _ONE
        rule = CoordinateRule(start=u, end=v, move_start=lead,
                              rest_start=rest_start, delta=u.ccw_gap(v))
        if rule.span_f <= 0.0:
            # unreachable: dwell is 1/2 only at the basepoint and u != v;
            # span_f is rest_start - move_start correctly rounded, so it is
            # positive exactly when the window is
            raise RuntimeError(f"scheduling window collapsed for coordinate {j}")
        rules.append(rule)
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
    return _plan(query, sig)


def plan_product(query: PlannerQuery, sig) -> PlannerPath:
    """Plan a path in the product of a circle with the skeleton.

    The base coordinates follow the skeleton schedule; the circle factor
    takes its shorter arc, counterclockwise for exact antipodes.  The
    combined domain index is the base agreement count plus the circle rule
    index, giving n+1 domains in total.
    """
    if not query.start.has_circle:
        raise InvalidEndpoint("product planning expects endpoints with a circle factor")
    return _plan(query, sig)


def _build_circle_rule(z: Turn, z_prime: Turn) -> CoordinateRule:
    gap = z.ccw_gap(z_prime)
    p, q = gap.as_integer_ratio()
    return CoordinateRule(start=z, end=z_prime, move_start=_ZERO,
                          rest_start=_ONE, delta=Fraction(p - q, q) if 2 * p > q else gap,
                          rule_index=int(2 * p == q))


def _plan(query: PlannerQuery, sig) -> PlannerPath:
    _require_membership(query.start, sig, "start")
    _require_membership(query.end, sig, "end")
    agree = classify(query, sig)
    circle_rule = combined_index = None
    if query.start.has_circle:
        circle_rule = _build_circle_rule(query.start.circle, query.end.circle)
        combined_index = agree.domain_index + circle_rule.rule_index
    return PlannerPath(
        mode="skeleton" if circle_rule is None else "product",
        agreement=agree.indices,
        domain_index=agree.domain_index,
        rules=_build_rules(query.start, query.end),
        circle_rule=circle_rule,
        combined_index=combined_index,
    )
