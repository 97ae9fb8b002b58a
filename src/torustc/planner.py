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
with the window [0, 1]: it travels its shorter arc, and exact antipodes go
half a turn counterclockwise.  A query's domain of continuity is the number
of base coordinates its two endpoints share, plus 1 when its circle
endpoints are exact antipodes, which partitions all queries into n+1
domains.  A path keeps only its rules: its agreement set is the labels of
its constant base rules, and its domain follows from them.

Exactness discipline: evaluation at a time inside a resting phase (or at
t = 0, 1) returns exact Turn values; strictly inside a travel phase it
returns floats.  A rule, like a Turn, holds only ints: its window ends and
its travel as reduced numerators and denominators.  The phase is decided
by comparing integers, the time's numerator and denominator against each
window end's, and timelines are keyed and ordered by those ints, so a
float only ever gives a travel value, computed from the ints where it is
used, and never decides one.  Membership accounting counts only exact
basepoint hits, so float noise can never manufacture a coordinate that
looks parked.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .skeleton import SkeletonPoint, Turn, membership

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InvalidEndpoint(ValueError):
    """Raised when a query endpoint is not a valid point of the target space."""


def dwell_time(z: Turn) -> Fraction:
    """Resting time a coordinate starting at z spends before it may move.

    max(0, 1/2 - 2d) as an exact Fraction, where d is the turn distance
    from z to the basepoint: exactly 1/2 at the basepoint, strictly less
    anywhere else, and exactly 0 from a quarter turn away on.  It is
    2-Lipschitz in d, so the windows, and with them the planned paths,
    move continuously with the query's coordinates.
    """
    return _window_ends(z.num, z.den)[0]


class PlannerQuery(namedtuple("_QueryFields", "start end")):
    """An ordered pair of endpoints in the same space: the same number of
    base coordinates, and a circle on both or on neither.  _replace and
    _make go through the constructor, so a query never pairs mismatched
    endpoints."""

    __slots__ = ()

    def __new__(cls, start: SkeletonPoint, end: SkeletonPoint):
        if len(start.base) != len(end.base):
            raise ValueError("endpoints have different base dimensions")
        if start.has_circle != end.has_circle:
            raise ValueError("endpoints disagree about the circle factor")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def to_jsonable(self) -> dict:
        return {"from": self.start.to_jsonable(), "to": self.end.to_jsonable()}


def classify(query: PlannerQuery, sig) -> frozenset[int]:
    """Agreement set J of a query: the labels of the base coordinates its
    endpoints share.

    Exact coordinate equality is decidable because coordinates are rational,
    so every query's base agreement count |J| is one of 0..n-1.  The planner
    does not call this: it decides agreement once, rule by rule, and a
    path's agreement is the set of its constant base rules.  classify is the
    same decision made from the query alone, so the verifier can check the
    planner against it.
    """
    if len(query.start.base) != sig.n - 1:
        raise ValueError(f"expected {sig.n - 1} base coordinates, got {len(query.start.base)}")
    return frozenset(
        j + 1
        for j, (a, b) in enumerate(zip(query.start.base, query.end.base))
        if a is b or a == b
    )


class CoordinateRule(namedtuple("_RuleFields", (
        "start end shorter_arc constant m_p m_q r_p r_q d_n d_d"))):
    """Schedule of one coordinate: rest at start until move_start, travel
    delta turns at constant speed, rest at end from rest_start on.

    A rule knows nothing of its coordinate, which is its position in
    PlannerPath.coordinate_rules.  Its travel delta is fixed by its
    endpoints, through Turn.travel: the counterclockwise gap from start to
    end, or with shorter_arc the signed shorter arc, where exact antipodes
    travel half a turn counterclockwise.  Base coordinates take their window
    from the dwell times and travel counterclockwise: move_start is the
    dwell of start and rest_start is 1 minus the dwell of end, each exact,
    with a denominator dividing 2q for a Turn p/q, and each 2-Lipschitz in
    that Turn's distance to the basepoint.  The free circle factor has the
    window [0, 1] and travels its shorter arc.

    Besides its endpoint Turns and two flags, shorter_arc and constant
    (start == end, so d_n == 0), a rule holds only ints, as a Turn does: the
    window [m_p/m_q, r_p/r_q] and the travel d_n/d_d, each reduced with a
    positive denominator.  Phase membership at rational times is therefore
    decided by integer comparison (value_at), and the travel floats are
    computed from the ints where they are used, each the correctly rounded
    quotient of two of them.  move_start, rest_start and delta build their
    Fractions on demand.  The constructor takes the window as two rationals, ints or
    Fractions, and is the one place it is checked: 0 <= move_start <
    rest_start <= 1, for constant rules too, or ValueError.  A rule is an
    immutable tuple, so one rule may serve many paths; copies, pickles,
    _make and _replace go through the constructor.
    """

    __slots__ = ()

    def __new__(cls, start: Turn, end: Turn, move_start: Fraction, rest_start: Fraction,
                shorter_arc: bool = False):
        d_n, d_d = start.travel(end, shorter_arc)
        g = math.gcd(d_n, d_d)
        m_p, m_q = move_start.as_integer_ratio()
        r_p, r_q = rest_start.as_integer_ratio()
        if m_p < 0 or r_p * m_q <= m_p * r_q or r_p > r_q:
            raise ValueError(f"a rule's window needs 0 <= move_start < rest_start <= 1, "
                             f"got [{move_start}, {rest_start}]")
        return tuple.__new__(cls, (start, end, shorter_arc, not d_n,
                                   m_p, m_q, r_p, r_q, d_n // g, d_d // g))

    def __getnewargs__(self):
        return self.start, self.end, self.move_start, self.rest_start, self.shorter_arc

    @classmethod
    def _make(cls, fields):
        """The rule of these fields, built anew: constant and the travel
        are derived again, and the window is checked."""
        start, end, shorter_arc, _, m_p, m_q, r_p, r_q = tuple(fields)[:8]
        return cls(start, end, Fraction(m_p, m_q), Fraction(r_p, r_q), shorter_arc)

    def _replace(self, **changes):
        """The rule with some constructor arguments changed, built anew."""
        args = dict(zip(("start", "end", "move_start", "rest_start", "shorter_arc"),
                        self.__getnewargs__()))
        if not changes.keys() <= args.keys():
            raise ValueError(f"Got unexpected field names: {sorted(changes.keys() - args.keys())}")
        return type(self)(**{**args, **changes})

    # the window ends as exact Fractions, built on each read
    move_start = property(lambda self: Fraction(self.m_p, self.m_q))
    rest_start = property(lambda self: Fraction(self.r_p, self.r_q))

    @property
    def delta(self) -> Fraction:
        """The exact travel in turns, start + delta == end mod 1."""
        return Fraction(self.d_n, self.d_d)

    def value_at(self, t):
        """Value at time t, an int or a Fraction in [0, 1], checked as
        PlannerPath.evaluate checks it."""
        return self._at(*_check_time(t))

    def _at(self, p: int, q: int):
        """Value at the checked time p/q: the phase is decided by integer
        cross multiplication, p*m_q <= m_p*q resting at start and p*r_q >=
        r_p*q resting at end."""
        start, end, _, constant, m_p, m_q, r_p, r_q, _, _ = self
        if constant or p * m_q <= m_p * q:
            return start
        if p * r_q >= r_p * q:
            return end
        s0, ms, span, dl = self._travel_floats()
        return (s0 + ((p / q - ms) / span) * dl) % 1.0

    def _travel_floats(self) -> tuple[float, float, float, float]:
        """start, move_start, rest_start - move_start and delta as floats,
        the terms of the travel values of value_at and PlannerPath.samples."""
        start, _, _, _, m_p, m_q, r_p, r_q, d_n, d_d = self
        return start.num / start.den, m_p / m_q, (r_p * m_q - m_p * r_q) / (r_q * m_q), d_n / d_d


def _check_time(t) -> tuple[int, int]:
    """t = p/q as (p, q), once t is checked to be an int or a Fraction in [0, 1]."""
    if not isinstance(t, (int, Fraction)):
        if isinstance(t, float):
            raise TypeError("evaluation times must be exact rationals, not floats")
        raise TypeError(f"evaluation times take an int or a Fraction, not {type(t).__name__}")
    p, q = t.as_integer_ratio()
    if not 0 <= p <= q:
        raise ValueError(f"time {t} outside [0, 1]")
    return p, q


def _check_steps(steps) -> None:
    if not isinstance(steps, int):
        raise TypeError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")


class PlannerPath(namedtuple("_PathFields", "rules circle_rule", defaults=(None,))):
    """A planned path: the rules of the base coordinates, and the circle's
    rule in product mode.  Everything else about the path, its agreement
    set and its domain included, is read off these rules."""

    @property
    def mode(self) -> str:
        return "skeleton" if self.circle_rule is None else "product"

    @property
    def coordinate_rules(self) -> tuple[CoordinateRule, ...]:
        """The rule of every coordinate in label order: the circle, label 0,
        first, then the base ones."""
        return self.rules if self.circle_rule is None else (self.circle_rule, *self.rules)

    @functools.cached_property
    def agreement(self) -> frozenset[int]:
        """The labels of the base coordinates whose endpoints agree: those
        whose rule is constant.  Cached, since domain reads it too."""
        return frozenset(j for j, rule in enumerate(self.rules, start=1) if rule.constant)

    @property
    def domain(self) -> int:
        """The continuity domain: the base agreement count, plus 1 when the
        circle travels half a turn (exact antipodes)."""
        rule = self.circle_rule
        # a shorter arc travels half a turn exactly at antipodes
        return len(self.agreement) + (rule is not None and (rule.d_n, rule.d_d) == (1, 2))

    def evaluate(self, t) -> SkeletonPoint:
        """Point of the path at rational time t in [0, 1]: exact Turns, but
        floats for the coordinates strictly inside their travel phase.  At
        t = 0 and t = 1 it equals the query's endpoints."""
        p, q = _check_time(t)
        base = tuple(rule._at(p, q) for rule in self.rules)
        circ = self.circle_rule._at(p, q) if self.circle_rule is not None else None
        return SkeletonPoint(base, circ)

    def phase_boundaries(self) -> tuple[Fraction, ...]:
        """Times where some base coordinate switches phase, in ascending order."""
        return tuple(Fraction(p, q) for p, q in self._cuts())

    def _cuts(self, *ends: tuple[int, int]) -> list[tuple[int, int]]:
        """The times in ends, reduced pairs (p, q), and the window ends of
        every base rule that travels, each once, in ascending order of p/q.

        With k twice the bit length of the largest q, two different times
        p/q and p'/q' differ by at least 1/(q*q'), which is more than 2**-k,
        so the integer key floor(p * 2**k / q) orders them exactly.
        """
        cuts = {pq for rule in self.rules if not rule.constant
                for pq in ((rule.m_p, rule.m_q), (rule.r_p, rule.r_q))}
        cuts.update(ends)
        k = 2 * max([q for _, q in cuts], default=1).bit_length()
        return [pq for _, pq in sorted([((p << k) // q, (p, q)) for p, q in cuts])]

    def _rest_counts(self, cells: int, leaving, arriving) -> list[int]:
        """Exact basepoint counts over cells 0..cells-1 of some timeline.

        A coordinate parked for the whole path counts everywhere.  One that
        starts at the basepoint counts on the cells before
        leaving((m_p, m_q)), its move_start, and one that ends there on the
        cells from arriving((r_p, r_q)), its rest_start, on: one difference
        sweep, whatever the cells are.
        """
        diff = [0] * (cells + 1)
        for rule in self.rules:
            if rule.start.is_zero:
                diff[0] += 1
                if not rule.constant:
                    diff[leaving((rule.m_p, rule.m_q))] -= 1
            if rule.end.is_zero and not rule.constant:
                diff[arriving((rule.r_p, rule.r_q))] += 1
        return list(accumulate(diff[:cells]))

    def samples(self, steps: int) -> tuple[list[Fraction], list[list]]:
        """The path on one exact timeline: the times, and the values of each
        coordinate at every time, one list per coordinate in label order
        (the circle, label 0, first).

        The times are the grid k/steps for k = 0..steps and every phase
        boundary, each once, in ascending order.  A boundary p/q is grid
        point k = p*steps // q when the remainder is 0, and otherwise lies
        strictly between grid points k and k+1, so it is placed by integer
        arithmetic.  The values equal those of evaluate(t), Turn for Turn
        and float for float, and a resting coordinate repeats one Turn
        object.  Each rule rests through the position of its move_start and
        from the position of its rest_start on (the circle's window is
        [0, 1]); travel values are value_at's float expression.
        """
        _check_steps(steps)
        grid = _grid(steps)
        times = []
        # the position on the timeline of each window end, keyed by (p, q)
        at = {}
        done = 0
        for p, q in self._cuts((0, 1), (1, 1)):
            k, off = divmod(p * steps, q)
            times += grid[done:k + 1]
            done = k + 1
            if off:
                times.append(Fraction(p, q))
            at[p, q] = len(times) - 1
        # float(t) as the correctly rounded quotient of two integers
        tfs = [t.numerator / t.denominator for t in times]
        columns = []
        for rule in self.coordinate_rules:
            if rule.constant:
                columns.append([rule.start] * len(times))
                continue
            hi = at[rule.m_p, rule.m_q] + 1
            lo = at[rule.r_p, rule.r_q]
            s0, ms, span, dl = rule._travel_floats()
            travel = [(s0 + ((tf - ms) / span) * dl) % 1.0 for tf in tfs[hi:lo]]
            columns.append([rule.start] * hi + travel + [rule.end] * (len(times) - lo))
        return times, columns

    def exact_zero_counts(self, steps: int) -> list[int]:
        """Exact basepoint counts at the grid times k/steps, k = 0..steps.

        Matches evaluate(Fraction(k, steps)).exact_zero_count() pointwise.
        The cells of _rest_counts are the grid points.  A coordinate leaving
        the basepoint at move_start = p/q rests there at k/steps exactly
        when k*q <= p*steps, so it stops counting at index p*steps // q + 1;
        one arriving at rest_start = p/q counts from the ceiling of
        p*steps / q on: one integer division per boundary, with no Fraction
        comparison.
        """
        _check_steps(steps)
        return self._rest_counts(steps + 1, lambda pq: pq[0] * steps // pq[1] + 1,
                                 lambda pq: -(-pq[0] * steps // pq[1]))

    def least_zero_count(self) -> tuple[int, Fraction]:
        """Least exact basepoint count over every t in [0, 1], and a time
        where it occurs: the midpoint of an open piece between consecutive
        times of _cuts((0, 1), (1, 1)), which are 0, 1 and the phase
        boundaries.

        The least count over [0, 1] is the least count over the open pieces.
        Let t_0 = 0 < ... < t_k = 1 be those times and C the number of
        coordinates parked for the whole path.  A coordinate that leaves
        the basepoint rests there exactly while t <= move_start, and one
        that arrives there exactly while t >= rest_start; no boundary lies
        strictly inside a piece.  So on (t_i, t_{i+1}) the count is
        C + #{move_start >= t_{i+1}} + #{rest_start <= t_i}, the first set
        over the leaving coordinates and the second over the arriving ones,
        and at t_i, for i < k, it is C + #{move_start >= t_i} +
        #{rest_start <= t_i}, never smaller as t_i < t_{i+1}.  At t = 1 it
        is C + #{move_start >= 1} + #{rest_start <= 1}, never smaller than
        on (t_{k-1}, 1).  The cells of _rest_counts are therefore the
        pieces: piece i counts a leaving coordinate while i is below the
        position of its move_start, and an arriving one once i reaches the
        position of its rest_start, both looked up by numerator and
        denominator, so no Fraction is compared.
        """
        times = self._cuts((0, 1), (1, 1))
        at = {pq: i for i, pq in enumerate(times)}
        counts = self._rest_counts(len(times) - 1, at.__getitem__, at.__getitem__)
        low = min(counts)
        i = counts.index(low)
        (p, q), (p2, q2) = times[i], times[i + 1]
        # the midpoint in one normalisation, cheaper than Fraction arithmetic
        return low, Fraction(p * q2 + p2 * q, 2 * q * q2)


@functools.lru_cache(maxsize=4)
def _grid(steps: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(k, steps) for k in range(steps + 1))


# the rule of every coordinate parked at the basepoint at both ends
_PARKED = CoordinateRule(start=Turn(0), end=Turn(0), move_start=0, rest_start=1)


@functools.lru_cache(maxsize=64)
def _window_ends(num: int, den: int) -> tuple[Fraction, Fraction]:
    """(move_start, rest_start) of a coordinate leaving, or arriving at, the
    Turn num/den: its dwell time max(0, 1/2 - 2d), d = min(num, den - num)
    / den its turn distance to the basepoint, and 1 minus that dwell.

    Both ends are exact, with a denominator dividing 2*den: (1/2, 1/2) at
    the basepoint.  Cached by value, so the Fractions of a Turn are built
    once, and the flat dwell 0 from a quarter turn on is the planner's own
    _ZERO and _ONE.
    """
    d = min(num, den - num)
    if 4 * d >= den:
        return _ZERO, _ONE
    return Fraction(den - 4 * d, 2 * den), Fraction(den + 4 * d, 2 * den)


def _build_rules(start: SkeletonPoint, end: SkeletonPoint) -> tuple[CoordinateRule, ...]:
    """The base rules, and with them the planner's one agreement decision:
    a coordinate whose endpoints agree gets a constant rule."""
    rules = []
    for u, v in zip(start.base, end.base):
        if u is v or u == v:
            rules.append(_PARKED if u.is_zero else CoordinateRule(u, v, 0, 1))
        else:
            rules.append(CoordinateRule(u, v, _window_ends(u.num, u.den)[0],
                                        _window_ends(v.num, v.den)[1]))
    return tuple(rules)


def _require_membership(point: SkeletonPoint, sig, which: str):
    ok, support = membership(point.base, sig)
    if not ok:
        # the first few labels only, so the message stays short for any n
        shown = ", ".join(map(str, sorted(support)[:5])) + (", ..." if len(support) > 5 else "")
        raise InvalidEndpoint(
            f"{which} endpoint has support [{shown}] of size "
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
    domain is the base agreement count plus 1 for exact antipodes, giving
    n+1 domains in total.
    """
    if not query.start.has_circle:
        raise InvalidEndpoint("product planning expects endpoints with a circle factor")
    return _plan(query, sig)


def _plan(query: PlannerQuery, sig) -> PlannerPath:
    _require_membership(query.start, sig, "start")
    _require_membership(query.end, sig, "end")
    start, end = query.start, query.end
    return PlannerPath(
        rules=_build_rules(start, end),
        circle_rule=None if start.circle is None else CoordinateRule(
            start.circle, end.circle, 0, 1, shorter_arc=True),
    )
