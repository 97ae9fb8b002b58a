"""Path planning: schedules, exactness discipline, membership, domains."""

import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustc import (
    AlgebraSignature,
    CoordinateRule,
    InvalidEndpoint,
    PlannerPath,
    PlannerQuery,
    SkeletonPoint,
    Turn,
    classify,
    dwell_time,
    plan_product,
    plan_skeleton,
    sample,
)
from torustc import planner

F = Fraction


def point(*vals, circle=None):
    return SkeletonPoint(tuple(Turn(F(v)) for v in vals),
                         None if circle is None else Turn(F(circle)))


def query(a, b):
    return PlannerQuery(a, b)


class TestDwellTime:
    def test_exact_values(self):
        assert dwell_time(Turn(0)) == F(1, 2)
        assert isinstance(dwell_time(Turn(0)), Fraction)
        for v in [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]:
            assert dwell_time(Turn(v)) == 0
            assert isinstance(dwell_time(Turn(v)), Fraction)

    def test_transition_formula(self):
        for v in [F(1, 8), F(1, 16), F(7, 8), F(9, 10)]:
            d = min(v, 1 - v)
            got = dwell_time(Turn(v))
            assert type(got) is Fraction and got == F(1, 2) - 2 * d
            assert got.denominator <= 2 * v.denominator

    def test_symmetric_about_basepoint(self):
        for v in [F(1, 8), F(1, 5), F(1, 10)]:
            assert dwell_time(Turn(v)) == dwell_time(Turn(1 - v))

    def test_range_and_monotone_near_basepoint(self):
        # strictly below 1/2 away from the basepoint, decreasing outwards
        prev = dwell_time(Turn(0))
        for k in range(1, 65):
            cur = dwell_time(Turn(F(k, 256)))
            assert 0 <= cur < F(1, 2)
            assert cur < prev
            prev = cur

    def test_extreme_inputs_stay_strict(self):
        tiny = dwell_time(Turn(F(1, 10**30)))
        assert 0 < tiny < F(1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(0, 1, max_denominator=10**40), st.fractions(0, 1, max_denominator=10**40))
    def test_two_lipschitz_and_strict_off_the_basepoint(self, a, b):
        # exact: |dwell(a) - dwell(b)| <= 2 * (circle distance of a and b)
        ta, tb = Turn(a), Turn(b)
        da, db = dwell_time(ta), dwell_time(tb)
        assert type(da) is Fraction and type(db) is Fraction
        gap = (a - b) % 1
        assert abs(da - db) <= 2 * min(gap, 1 - gap)
        for turn, dwell in ((ta, da), (tb, db)):
            assert dwell == F(1, 2) if turn.is_zero else 0 <= dwell < F(1, 2)

    @pytest.mark.parametrize("eta", [F(1, 10**20), F(1, 10**30)])
    def test_window_moves_exactly_with_the_query(self, eta):
        # two (3, 2) queries whose moving coordinate starts 2*eta apart, in
        # the sloped part of the dwell: their windows open exactly 4*eta
        # apart, whatever eta is, not at float resolution
        sig = AlgebraSignature(3, 2)
        near = F(1, 8) + F(1, 2**56)
        low, high = (plan_skeleton(query(point(near + s, 0), point(F(1, 2), 0)), sig)
                     for s in (-eta, eta))
        step = low.rules[0].move_start - high.rules[0].move_start
        assert type(step) is Fraction and step == 4 * eta


class TestCcwArc:
    """Travel of the one coordinate of a (2, 2) skeleton path."""

    @staticmethod
    def travel(a, b, t):
        path = plan_skeleton(query(point(a), point(b)), AlgebraSignature(2, 2))
        (value,) = path.evaluate(t).base
        return value

    def test_frozen_examples(self):
        # 0 dwells until 1/2, so t = 3/4 is mid-travel; 3/4 and 1/4 never dwell
        assert self.travel(0, F(1, 2), F(3, 4)) == 0.25
        assert self.travel(F(3, 4), F(1, 4), F(1, 2)) == 0.0

    def test_endpoints_exact(self):
        a, b = F(1, 3), F(1, 7)
        assert self.travel(a, b, 0) == Turn(a)
        assert self.travel(a, b, 1) == Turn(b)
        assert isinstance(self.travel(a, b, 0), Turn)

    def test_always_counterclockwise(self):
        # the position advances by t times the ccw gap, never the short way
        assert self.travel(F(1, 4), F(1, 2), F(1, 2)) == 0.375  # ccw gap 1/4
        assert self.travel(F(1, 2), F(1, 4), F(1, 2)) == 0.875  # ccw gap 3/4, the long way


class TestEvaluatedPoints:
    @pytest.mark.parametrize("product", [False, True])
    def test_path_ends_equal_the_query_endpoints(self, product):
        # evaluate returns a SkeletonPoint, so the ends compare with the
        # query's own points, Turn for Turn
        plan = plan_product if product else plan_skeleton
        rng = random.Random(31 + product)
        for n, r in [(1, 1), (2, 2), (3, 2), (5, 3), (7, 7), (9, 4)]:
            sig = AlgebraSignature(n, r)
            for _ in range(40):
                q = query(sample(sig, rng, with_circle=product),
                          sample(sig, rng, with_circle=product))
                path = plan(q, sig)
                first, last = path.evaluate(0), path.evaluate(1)
                assert type(first) is type(last) is SkeletonPoint
                assert first == q.start and last == q.end
                assert all(type(v) is Turn for v in (*first.base, *last.base))

    def test_a_float_never_equals_a_turn(self):
        # strictly inside a travel phase evaluate returns floats, which never
        # equal a Turn, even at the same value
        assert SkeletonPoint((0.5,)) != SkeletonPoint((Turn(F(1, 2)),))
        assert SkeletonPoint((Turn(F(1, 2)),)) != SkeletonPoint((0.5,))
        assert SkeletonPoint((Turn(0),), 0.5) != SkeletonPoint((Turn(0),), Turn(F(1, 2)))
        assert SkeletonPoint((0.0,)) != SkeletonPoint((Turn(0),))
        assert SkeletonPoint((0.0,)).exact_zero_count() == 0
        path = plan_skeleton(query(point(0), point("1/2")), AlgebraSignature(2, 2))
        mid = path.evaluate(F(3, 4))
        assert mid.base == (0.25,) and mid != point("1/4")


class TestClassify:
    def test_agreement_and_domain_index(self):
        sig = AlgebraSignature(4, 2)
        q = query(point(0, "1/3", 0), point(0, "1/4", 0))
        assert classify(q, sig) == frozenset({1, 3})
        path = plan_skeleton(q, sig)
        assert path.agreement == frozenset({1, 3})
        assert path.domain == 2

    def test_domain_range(self):
        sig = AlgebraSignature(4, 3)
        rng = random.Random(5)
        for _ in range(500):
            q = query(sample(sig, rng), sample(sig, rng))
            agree = classify(q, sig)
            assert type(agree) is frozenset and agree <= set(range(1, sig.n))
            path = plan_skeleton(q, sig)
            assert path.agreement == agree
            assert 0 <= path.domain <= sig.n - 1
            assert path.domain == len(agree)

    def test_wrong_base_length_is_an_error(self):
        with pytest.raises(ValueError, match="expected 3 base coordinates, got 2"):
            classify(query(point(0, "1/3"), point(0, 0)), AlgebraSignature(4, 2))

    def test_identical_endpoints_share_everything(self):
        sig = AlgebraSignature(3, 2)
        p = point(0, "1/5")
        agree = classify(query(p, p), sig)
        assert agree == frozenset(range(1, sig.n))
        assert plan_skeleton(query(p, p), sig).domain == sig.n - 1

    def test_planner_decides_agreement_without_classify(self, monkeypatch):
        # the planner decides agreement once, in its rules; classify is the
        # verifier's independent decision, so planning must never call it
        def refuse(query, sig):
            raise AssertionError("the planner called classify")

        monkeypatch.setattr(planner, "classify", refuse)
        sig = AlgebraSignature(4, 2)
        path = plan_skeleton(query(point(0, "1/3", 0), point(0, "1/4", 0)), sig)
        assert (path.agreement, path.domain) == (frozenset({1, 3}), 2)
        path = plan_product(query(point(0, "1/3", 0, circle="1/8"),
                                  point(0, 0, 0, circle="5/8")), sig)
        assert (path.agreement, path.domain) == (frozenset({1, 3}), 3)

    def test_hand_built_paths_read_agreement_and_domain_off_their_rules(self):
        def rule(u, v, move_start=F(0), shorter_arc=False):
            return CoordinateRule(Turn(F(u)), Turn(F(v)), move_start, F(1), shorter_arc)

        # a path stores its rules and nothing else
        assert PlannerPath._fields == ("rules", "circle_rule")
        with pytest.raises(TypeError):
            PlannerPath(agreement=frozenset(), rules=())
        rules = (rule("1/3", "1/3"), rule(0, "1/4", F(1, 2)), rule(0, 0), rule("1/8", "7/8"))
        path = PlannerPath(rules=rules)
        assert (path.agreement, path.domain) == (frozenset({1, 3}), 2)
        # the circle adds a domain exactly at antipodes, whichever way round
        for a, b, antipodes in (("1/8", "1/8", 0), ("1/8", "5/8", 1), ("5/8", "1/8", 1),
                                ("1/8", "3/8", 0), (0, "1/2", 1), ("1/3", "5/6", 1)):
            path = PlannerPath(rules=rules, circle_rule=rule(a, b, shorter_arc=True))
            assert (path.agreement, path.domain) == (frozenset({1, 3}), 2 + antipodes)
        assert PlannerPath(rules=()).agreement == frozenset()
        path = PlannerPath(rules=(), circle_rule=rule(0, "1/2", shorter_arc=True))
        assert (path.agreement, path.domain) == (frozenset(), 1)


class TestRecords:
    """Points, queries and paths are read-only named tuples, and a query's
    checks hold however it is built."""

    def test_replace_and_make_keep_the_query_checks(self):
        q = query(point(0, "1/3", 0), point(0, "1/4", 0))
        moved = q._replace(end=point("1/2", 0, 0))
        assert moved == (q.start, point("1/2", 0, 0)) and type(moved) is PlannerQuery
        for end, why in ((point(0, "1/4"), "base dimensions"),
                         (point(0, "1/4", 0, circle="1/2"), "circle factor")):
            with pytest.raises(ValueError, match=why):
                q._replace(end=end)
            with pytest.raises(ValueError, match=why):
                PlannerQuery._make((q.start, end))

    def test_fields_are_read_only(self):
        sig = AlgebraSignature(4, 2)
        q = query(point(0, "1/3", 0, circle="1/8"), point(0, 0, 0, circle="5/8"))
        path = plan_product(q, sig)
        for record in (q, q.start, path):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert (path.agreement, path.domain) == (frozenset({1, 3}), 3)


class TestWorkedPath:
    """One fully hand-computed path, frozen end to end."""

    def setup_method(self):
        self.sig = AlgebraSignature(3, 2)
        self.path = plan_skeleton(
            query(point(0, "1/4"), point("1/2", 0)), self.sig
        )

    def test_domain(self):
        assert self.path.domain == 0
        assert self.path.agreement == frozenset()
        assert self.path.mode == "skeleton"

    def test_quarter_time(self):
        p = self.path.evaluate(F(1, 4))
        assert isinstance(p.base[0], Turn) and p.base[0].is_zero
        assert p.base[1] == pytest.approx(0.625, abs=1e-12)

    def test_three_quarter_time(self):
        p = self.path.evaluate(F(3, 4))
        assert p.base[0] == pytest.approx(0.25, abs=1e-12)
        assert isinstance(p.base[1], Turn) and p.base[1].is_zero

    def test_phase_boundaries(self):
        assert self.path.phase_boundaries() == (F(0), F(1, 2), F(1))

    def test_membership_along_the_way(self):
        need = self.sig.n - self.sig.r
        for k in range(257):
            assert self.path.evaluate(F(k, 256)).exact_zero_count() >= need


class TestPlanSkeleton:
    def test_rejects_nonmember_endpoints(self):
        sig = AlgebraSignature(3, 2)
        with pytest.raises(InvalidEndpoint, match="support"):
            plan_skeleton(query(point("1/3", "1/4"), point(0, 0)), sig)
        with pytest.raises(InvalidEndpoint, match="support"):
            plan_skeleton(query(point(0, 0), point("1/3", "1/4")), sig)

    def test_rejects_circle_points(self):
        sig = AlgebraSignature(3, 2)
        with pytest.raises(InvalidEndpoint, match="circle"):
            plan_skeleton(query(point(0, 0, circle=0), point(0, 0, circle=0)), sig)

    def test_rejects_floats_at_evaluation(self):
        sig = AlgebraSignature(3, 2)
        path = plan_skeleton(query(point(0, 0), point(0, "1/4")), sig)
        with pytest.raises(TypeError, match="exact rationals"):
            path.evaluate(0.5)

    def test_evaluates_only_ints_and_fractions(self):
        sig = AlgebraSignature(3, 2)
        path = plan_skeleton(query(point(0, 0), point(0, "1/4")), sig)
        # Fraction() would read the text and the Decimal as 1/2
        for t in ("0.5", "1/2", Decimal("0.5"), None):
            with pytest.raises(TypeError, match="an int or a Fraction"):
                path.evaluate(t)
        assert path.evaluate(True) == path.evaluate(1) == path.evaluate(F(1))

    def test_rejects_out_of_range_time(self):
        sig = AlgebraSignature(3, 2)
        path = plan_skeleton(query(point(0, 0), point(0, "1/4")), sig)
        with pytest.raises(ValueError, match="outside"):
            path.evaluate(F(3, 2))

    def test_endpoints_interpolated_exactly(self):
        sig = AlgebraSignature(5, 3)
        rng = random.Random(21)
        for _ in range(200):
            a, b = sample(sig, rng), sample(sig, rng)
            path = plan_skeleton(query(a, b), sig)
            assert path.evaluate(0).base == a.base
            assert path.evaluate(1).base == b.base

    def test_agreeing_coordinates_never_move(self):
        sig = AlgebraSignature(4, 4)
        q = query(point("1/3", 0, "1/5"), point("1/3", "1/4", "1/5"))
        path = plan_skeleton(q, sig)
        for k in range(0, 65):
            p = path.evaluate(F(k, 64))
            assert p.base[0] == Turn(F(1, 3))
            assert p.base[2] == Turn(F(1, 5))

    def test_basepoint_coordinates_rest_half_time_each_side(self):
        sig = AlgebraSignature(3, 2)
        # coordinate 1 starts at the basepoint: parked on [0, 1/2]
        path = plan_skeleton(query(point(0, "1/4"), point("1/3", 0)), sig)
        for k in range(0, 33):
            assert path.evaluate(F(k, 64)).base[0] == Turn(0)
        # coordinate 2 ends at the basepoint: parked on [1/2, 1]
        for k in range(32, 65):
            assert path.evaluate(F(k, 64)).base[1] == Turn(0)

    def test_grid_counts_match_pointwise_evaluation(self):
        rng = random.Random(33)
        for n, r in [(2, 2), (4, 2), (5, 3), (6, 6)]:
            sig = AlgebraSignature(n, r)
            for _ in range(30):
                path = plan_skeleton(query(sample(sig, rng), sample(sig, rng)), sig)
                # 64 puts the boundary 1/2 on the grid, 7 puts it between
                # two grid times
                for steps in (64, 7, 1):
                    counts = path.exact_zero_counts(steps)
                    assert len(counts) == steps + 1
                    for k, c in enumerate(counts):
                        assert path.evaluate(F(k, steps)).exact_zero_count() == c

    def test_membership_invariant_randomized(self):
        rng = random.Random(55)
        for n, r in [(3, 2), (5, 2), (5, 4), (6, 3)]:
            sig = AlgebraSignature(n, r)
            need = n - r
            for _ in range(50):
                path = plan_skeleton(query(sample(sig, rng), sample(sig, rng)), sig)
                assert min(path.exact_zero_counts(128)) >= need
                assert path.least_zero_count()[0] >= need


class TestPlanProduct:
    def test_requires_circle(self):
        sig = AlgebraSignature(3, 2)
        with pytest.raises(InvalidEndpoint, match="circle"):
            plan_product(query(point(0, 0), point(0, 0)), sig)

    def test_combined_domain_range_and_rule_count(self):
        # endpoints have at most r-1 nonzero coordinates, so at least
        # (n-1) - 2(r-1) coordinates agree; the reachable domains are
        # exactly that floor through n
        for n, r in [(4, 3), (4, 2), (3, 2), (5, 2)]:
            sig = AlgebraSignature(n, r)
            floor = max(0, (n - 1) - 2 * (r - 1))
            rng = random.Random(77)
            seen = set()
            for _ in range(3000):
                a = sample(sig, rng, with_circle=True)
                b = sample(sig, rng, with_circle=True)
                path = plan_product(query(a, b), sig)
                assert floor <= path.domain <= sig.n
                antipodes = F(*a.circle.ccw_gap(b.circle)) == F(1, 2)
                assert path.domain == len(path.agreement) + antipodes
                assert path.mode == "product"
                assert len(path.rules) == n - 1
                assert len(path.coordinate_rules) == n
                seen.add(path.domain)
            assert seen == set(range(floor, sig.n + 1))

    def test_circle_shorter_arc(self):
        sig = AlgebraSignature(1, 1)
        # ccw gap 1/4: travel ccw
        path = plan_product(query(point(circle=0), point(circle="1/4")), sig)
        assert path.circle_rule.delta == F(1, 4) and path.domain == 0
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.125, abs=1e-15)
        # ccw gap 3/4: travel clockwise instead
        path = plan_product(query(point(circle=0), point(circle="3/4")), sig)
        assert path.circle_rule.delta == F(-1, 4) and path.domain == 0
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.875, abs=1e-15)
        # just short of and just past the antipode
        path = plan_product(query(point(circle=0), point(circle="499/1000")), sig)
        assert path.domain == 0
        assert path.circle_rule.delta == F(499, 1000)
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.2495, abs=1e-15)
        path = plan_product(query(point(circle=0), point(circle="501/1000")), sig)
        assert path.domain == 0
        assert path.circle_rule.delta == F(-499, 1000)
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.7505, abs=1e-15)
        # the circle moves over the whole of [0, 1]
        rule = path.circle_rule
        assert (rule.move_start, rule.rest_start) == (0, 1)

    def test_antipodes_travel_ccw_half_turn(self):
        sig = AlgebraSignature(1, 1)
        path = plan_product(query(point(circle="1/4"), point(circle="3/4")), sig)
        assert path.circle_rule.delta == F(1, 2)
        assert path.domain == 1
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.5, abs=1e-15)
        # the other way round is half a turn counterclockwise too
        path = plan_product(query(point(circle="3/4"), point(circle="1/4")), sig)
        assert path.circle_rule.delta == F(1, 2)
        assert path.domain == 1
        assert path.evaluate(F(1, 4)).circle == pytest.approx(0.875, abs=1e-15)

    def test_equal_circle_points_stay_put(self):
        sig = AlgebraSignature(1, 1)
        path = plan_product(query(point(circle="1/3"), point(circle="1/3")), sig)
        assert path.circle_rule.delta == 0 and path.circle_rule.constant
        assert path.domain == 0
        for k in range(9):
            v = path.evaluate(F(k, 8)).circle
            assert isinstance(v, Turn) and v == Turn(F(1, 3))

    def test_circle_endpoints_exact(self):
        sig = AlgebraSignature(3, 2)
        rng = random.Random(88)
        for _ in range(100):
            a = sample(sig, rng, with_circle=True)
            b = sample(sig, rng, with_circle=True)
            path = plan_product(query(a, b), sig)
            assert path.evaluate(0).circle == a.circle
            assert path.evaluate(1).circle == b.circle


def _values(p):
    """The values of an evaluated point in label order, the circle first."""
    return p.base if p.circle is None else (p.circle, *p.base)


_STEPS = (1, 2, 3, 16, 256)
_TINY = F(1, 2**80)


def _check_samples(path, steps):
    """samples(steps) against evaluate, the reference, at every time it
    returns; the times are checked first.  Returns the times."""
    times, columns = path.samples(steps)
    # equal to a sorted set: strictly ascending, every grid point and
    # boundary exactly once, and nothing else
    assert times == sorted({*(F(k, steps) for k in range(steps + 1)), *path.phase_boundaries()})
    assert all(type(t) is Fraction for t in times)
    assert len(columns) == len(path.coordinate_rules)
    assert all(len(column) == len(times) for column in columns)
    for k, t in enumerate(times):
        want = _values(path.evaluate(t))
        got = tuple(column[k] for column in columns)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
    return times


def _tied_path(product):
    """A hand-built path whose phase boundaries fall on grid points (0, 1/4,
    1/3, 1/2, 2/3, 3/4, 1) and pair up with boundaries 2**-80 away, whose
    floats tie with theirs."""
    def rule(u, v, move_start, rest_start):
        return CoordinateRule(start=Turn(F(u)), end=Turn(F(v)), move_start=move_start,
                              rest_start=rest_start)

    rules = (
        rule(0, "1/4", F(1, 4), F(3, 4)),
        rule("1/3", 0, F(1, 4) - _TINY, F(3, 4) + _TINY),
        rule("1/8", "5/8", F(1, 3), F(2, 3)),
        rule("7/8", "1/8", F(1, 3) + _TINY, F(2, 3) - _TINY),
        rule("1/2", "1/2", F(0), F(1)),
        rule(0, "1/3", F(0), F(1, 2)),
        rule("2/5", 0, F(1, 2) + _TINY, F(1)),
    )
    circle = rule("1/8", "3/4", F(0), F(1)) if product else None
    return PlannerPath(rules=rules, circle_rule=circle)


class TestEvaluateMany:
    """PlannerPath.samples, the one sampled timeline, against pointwise
    evaluation, the reference."""

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_matches_pointwise_evaluation(self, mode):
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(61 + product)
        on_grid = 0
        for n, r in [(1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (6, 6), (8, 4), (10, 5)]:
            sig = AlgebraSignature(n, r)
            for _ in range(12):
                a = sample(sig, rng, with_circle=product)
                b = sample(sig, rng, with_circle=product)
                path = plan(query(a, b), sig)
                for steps in _STEPS:
                    times = _check_samples(path, steps)
                    assert times[0] == 0 and times[-1] == 1
                    on_grid += sum(1 for c in path.phase_boundaries()
                                   if 0 < c < 1 and (c * steps).denominator == 1)
        # boundaries at 1/2, where a coordinate leaves or reaches the basepoint
        assert on_grid > 50

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_boundaries_on_grid_points_and_tied_in_float(self, mode):
        path = _tied_path(mode == "product")
        cuts = path.phase_boundaries()
        assert len(cuts) == 12
        assert len({float(c) for c in cuts}) == 7
        for steps in _STEPS:
            times = _check_samples(path, steps)
            assert len(times) == steps + 1 + sum(1 for c in cuts if (c * steps).denominator != 1)

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_exact_ties_hidden_by_float_rounding(self, mode):
        # c - 2**-80 and c + 2**-80 round to the float of a boundary c but
        # are not c: a phase search on floats alone would misplace them
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(71 + product)
        ties = 0
        for n, r in [(1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (6, 6), (8, 4), (10, 5)]:
            sig = AlgebraSignature(n, r)
            for _ in range(10):
                a = sample(sig, rng, with_circle=product)
                b = sample(sig, rng, with_circle=product)
                path = plan(query(a, b), sig)
                cuts = path.phase_boundaries()
                near = [c + s for c in cuts for s in (-_TINY, _TINY) if 0 <= c + s <= 1]
                ties += sum(1 for t in near if float(t) in {float(c) for c in cuts})
                times = sorted({*(F(k, 16) for k in range(17)), *cuts, *near})

                want = [path.evaluate(t) for t in times]
                # each coordinate rests exactly through move_start and from
                # rest_start on, and travels, as a float, strictly between
                rules = (path.circle_rule, *path.rules) if product else path.rules
                for t, w in zip(times, want):
                    for rule, v in zip(rules, _values(w)):
                        if rule.constant or t <= rule.move_start:
                            assert type(v) is Turn and v == rule.start
                        elif t >= rule.rest_start:
                            assert type(v) is Turn and v == rule.end
                        else:
                            assert type(v) is float
                # every boundary and, through c +- 2**-80, a point of every
                # open piece: the sweep's least count over [0, 1] is the
                # least count over these times
                assert path.least_zero_count()[0] == min(w.exact_zero_count() for w in want)
                assert path.exact_zero_counts(16) == [
                    w.exact_zero_count() for t, w in zip(times, want) if (16 * t).denominator == 1
                ]
        assert ties > 100

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_no_coordinates_and_one_step(self, mode):
        # n = 1: the skeleton path has no coordinates, the product path only
        # the circle
        sig = AlgebraSignature(1, 1)
        if mode == "skeleton":
            path = plan_skeleton(query(point(), point()), sig)
            assert path.samples(1) == ([F(0), F(1)], [])
        else:
            path = plan_product(query(point(circle="1/8"), point(circle="5/8")), sig)
            times, (circle,) = path.samples(1)
            assert times == [F(0), F(1)] and circle == [Turn(F(1, 8)), Turn(F(5, 8))]
        for steps in _STEPS:
            _check_samples(path, steps)
        # one step: the grid is 0 and 1, and every boundary lies between
        sig = AlgebraSignature(3, 2)
        worked = plan_product(query(point(0, "1/4", circle="1/8"),
                                    point("1/2", 0, circle="5/8")), sig)
        times = _check_samples(worked, 1)
        assert times == [F(0), *worked.phase_boundaries()[1:-1], F(1)]

    def test_rejects_float_and_out_of_range_times(self):
        sig = AlgebraSignature(3, 2)
        path = plan_skeleton(query(point(0, 0), point(0, "1/4")), sig)
        # a rule checks its time as its path does, parked or moving
        for evaluate in (path.evaluate, path.rules[0].value_at, path.rules[1].value_at):
            for t in (0.5, 1.0):
                with pytest.raises(TypeError, match="exact rationals"):
                    evaluate(t)
            for t in (F(3, 2), F(-1, 2), 7, -3, -1):
                with pytest.raises(ValueError, match="outside"):
                    evaluate(t)
        # the grid counter and the sampler take a positive integer step count
        worked = plan_skeleton(query(point(0, "1/4"), point("1/2", 0)), sig)
        for method in (worked.exact_zero_counts, worked.samples):
            for steps in (0.5, 4.0, F(4), "4"):
                with pytest.raises(TypeError, match="integer"):
                    method(steps)
            for steps in (0, -3):
                with pytest.raises(ValueError, match="positive"):
                    method(steps)


# window ends for hand-built rules: 0 and 1, ties, and 2**-80 offsets whose
# floats tie with a boundary's
_WINDOW_ENDS = (F(0), F(1), F(1, 3), F(1, 2), F(1, 2) - _TINY, F(1, 2) + _TINY, _TINY,
                1 - _TINY, F(2, 3))


class TestLeastZeroCount:
    """The boundary sweep against pointwise evaluation, the reference."""

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_matches_pointwise_minimum(self, mode):
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(91 + product)
        tiny = F(1, 2**80)
        for n in range(1, 11):
            for r in sorted({1, (n + 1) // 2, n}):
                sig = AlgebraSignature(n, r)
                for _ in range(12):
                    a = sample(sig, rng, with_circle=product)
                    b = sample(sig, rng, with_circle=product)
                    path = plan(query(a, b), sig)
                    cuts = sorted({F(0), *path.phase_boundaries(), F(1)})
                    # every boundary, the midpoint of every open piece, and
                    # the points 2**-80 either side of every boundary, whose
                    # floats tie with the boundary's
                    times = [*cuts, *((x + y) / 2 for x, y in zip(cuts, cuts[1:])),
                             *(c + s for c in cuts for s in (-tiny, tiny) if 0 <= c + s <= 1)]
                    want = min(path.evaluate(t).exact_zero_count() for t in times)
                    least, at = path.least_zero_count()
                    assert least == want
                    assert at in {(x + y) / 2 for x, y in zip(cuts, cuts[1:])}
                    assert path.evaluate(at).exact_zero_count() == least

    def test_paths_without_boundaries(self):
        # no phase boundaries: the one open piece is (0, 1)
        sig = AlgebraSignature(4, 2)
        parked = plan_skeleton(query(point(0, 0, "1/3"), point(0, 0, "1/3")), sig)
        assert parked.phase_boundaries() == ()
        assert parked.least_zero_count() == (2, F(1, 2))
        sig = AlgebraSignature(1, 1)
        assert plan_skeleton(query(point(), point()), sig).least_zero_count() == (0, F(1, 2))
        circle_only = plan_product(query(point(circle="1/8"), point(circle="5/8")), sig)
        assert circle_only.least_zero_count() == (0, F(1, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["0", "1/4", "1/2", "5/8"]),
                              st.sampled_from(["0", "1/4", "1/2", "5/8"]),
                              st.sampled_from(_WINDOW_ENDS), st.sampled_from(_WINDOW_ENDS)),
                    min_size=1, max_size=6))
    def test_no_boundary_below_its_piece(self, drawn):
        # hand-built windows with ties, 2**-80 offsets and ends at 0 and 1:
        # every time of the timeline counts at least as many coordinates as
        # the open piece after it (before it, for t = 1), so the least count
        # over [0, 1] is the least count over the pieces
        rules = tuple(CoordinateRule(Turn(F(u)), Turn(F(v)), min(a, b), max(a, b))
                      for u, v, a, b in drawn if a != b)
        path = PlannerPath(rules=rules)
        cuts = sorted({F(0), *path.phase_boundaries(), F(1)})
        mids = [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
        pieces = [path.evaluate(m).exact_zero_count() for m in mids]
        for i, t in enumerate(cuts):
            assert path.evaluate(t).exact_zero_count() >= pieces[min(i, len(pieces) - 1)], t
        least, at = path.least_zero_count()
        assert least == min(pieces) and at == mids[pieces.index(least)]


def _turns():
    return st.builds(lambda p, q: Turn(F(p % q, q)), st.integers(0, 10**9), st.integers(1, 10**6))


@st.composite
def rule_args(draw):
    """A start, an end and a second end, each equal to, antipodal to or
    independent of the start, and a valid window."""
    start = draw(_turns())
    end, other = (draw(st.one_of(_turns(), st.just(start), st.just(Turn(start.value + F(1, 2))),
                                 st.just(Turn(start.value - F(1, 2)))))
                  for _ in range(2))
    q = draw(st.integers(1, 10**6))
    i = draw(st.integers(0, q - 1))
    j = draw(st.integers(i + 1, q))
    return start, end, other, F(i, q), F(j, q)


class TestCoordinateRule:
    """Rules are immutable values of reduced ints, shared where a coordinate
    is parked, whose windows are checked however they are built."""

    def test_immutable(self):
        rule = CoordinateRule(start=Turn(F(1, 4)), end=Turn(F(1, 2)), move_start=F(0),
                              rest_start=F(1))
        for name, value in (("start", Turn(0)), ("m_p", 1), ("delta", F(1, 2)),
                            ("shorter_arc", True), ("label", 1)):
            with pytest.raises(AttributeError):
                setattr(rule, name, value)
        with pytest.raises(AttributeError):
            del rule.start
        assert rule.start == Turn(F(1, 4)) and rule.delta == F(1, 4)
        # copies and replacements are built by the constructor, travel
        # included; the travel is not an argument of its own
        assert copy.copy(rule) == rule and pickle.loads(pickle.dumps(rule)) == rule
        assert CoordinateRule._make(rule) == rule
        moved = rule._replace(end=Turn(F(3, 4)))
        assert moved.delta == F(1, 2) and rule.delta == F(1, 4)
        back = moved._replace(end=Turn(0), shorter_arc=True)
        assert back.delta == F(-1, 4) and (back.d_n, back.d_d) == (-1, 4)
        for name in ("delta", "d_n", "constant"):
            with pytest.raises(ValueError):
                rule._replace(**{name: 1})

    def test_rejects_empty_reversed_and_out_of_range_windows(self):
        def rule(move_start, rest_start, start="1/3", delta=F(0)):
            built = CoordinateRule(start=Turn(F(start)), end=Turn(F(start) + delta),
                                   move_start=move_start, rest_start=rest_start)
            assert built.delta == delta
            return built

        # a constant rule on the empty window [1/2, 1/2] used to be accepted,
        # and path_deviation then divided by its zero span
        for window in ((F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)), (F(1, 2), F(3, 2)),
                       (F(-1, 4), F(1, 2)), (F(1), F(1)), (F(1, 3), F(1, 3) - F(1, 2**80))):
            for delta in (F(0), F(1, 4)):
                with pytest.raises(ValueError, match="window"):
                    rule(*window, delta=delta)
        moving = rule(F(1, 4), F(3, 4), delta=F(1, 4))
        with pytest.raises(ValueError, match="window"):
            moving._replace(rest_start=F(1, 4))
        # the widest and narrowest windows that are allowed
        wide = rule(F(0), F(1))
        assert (wide.m_p, wide.m_q, wide.r_p, wide.r_q) == (0, 1, 1, 1)
        narrow = rule(F(1, 3), F(1, 3) + F(1, 2**80), delta=F(1, 4))
        assert narrow.rest_start - narrow.move_start == F(1, 2**80)
        with pytest.raises(ValueError, match="window"):
            CoordinateRule._make((*narrow[:6], narrow.m_p, narrow.m_q))

    @settings(max_examples=300, deadline=None)
    @given(rule_args(), st.booleans())
    def test_travel_follows_the_endpoints(self, args, shorter_arc):
        # delta is derived from the endpoints, so it always carries start
        # to end, and a replaced endpoint re-derives it
        start, end, other, move_start, rest_start = args
        rule = CoordinateRule(start, end, move_start, rest_start, shorter_arc=shorter_arc)
        for built, target in ((rule, end), (rule._replace(end=other), other)):
            delta = built.delta
            assert type(delta) is Fraction
            assert (start.value + delta) % 1 == target.value
            antipodes = (target.value - start.value) % 1 == F(1, 2)
            if shorter_arc:
                assert -F(1, 2) < delta <= F(1, 2)
                assert (delta == F(1, 2)) == antipodes
            else:
                assert 0 <= delta < 1
            assert (built.d_n, built.d_d) == delta.as_integer_ratio()
            assert built.constant == (start == target)
            assert built.shorter_arc is shorter_arc

    def test_parked_coordinates_share_one_rule(self):
        sig = AlgebraSignature(5, 3)
        one = plan_skeleton(query(point(0, "1/3", 0, 0), point(0, 0, "1/2", 0)), sig)
        two = plan_product(query(point("1/4", 0, 0, 0, "2/3", circle=0),
                                 point("1/4", 0, "1/5", 0, 0, circle="1/2")),
                           AlgebraSignature(6, 3))
        parked = [one.rules[0], one.rules[3], two.rules[1], two.rules[3]]
        assert all(rule is parked[0] for rule in parked)
        assert parked[0].constant and parked[0].start.is_zero and parked[0].end.is_zero
        # a coordinate resting away from the basepoint gets its own rule
        assert two.rules[0] is not parked[0] and two.rules[0].start == Turn(F(1, 4))

    def test_equal_turns_share_their_schedule_ends(self):
        # distinct but equal Turns get one move_start and one rest_start,
        # the exact dwell time and 1 minus it
        sig = AlgebraSignature(4, 4)
        one = plan_skeleton(query(point("1/8", "5/8", 0), point("5/8", 0, "1/8")), sig)
        two = plan_skeleton(query(point(0, "1/8", "5/8"), point("1/8", "5/8", 0)), sig)
        assert one.rules[0].move_start == two.rules[1].move_start == F(dwell_time(Turn(F(1, 8))))
        assert one.rules[1].move_start == two.rules[2].move_start == 0
        assert one.rules[2].rest_start == two.rules[0].rest_start
        assert one.rules[2].rest_start == 1 - F(dwell_time(Turn(F(1, 8))))
        assert one.rules[0].rest_start == two.rules[1].rest_start == 1
        assert one.rules[1].rest_start == two.rules[2].rest_start == F(1, 2)

    def test_exact_window_ends_are_the_planner_constants(self):
        # one cached pair per Turn: the basepoint's dwell is 1/2, and the
        # flat dwell 0 from a quarter turn away gives the planner's shared
        # Fractions
        assert planner._window_ends(0, 1) == (F(1, 2), F(1, 2))
        for num, den in ((1, 4), (1, 2), (3, 4)):
            move, rest = planner._window_ends(num, den)
            assert move is planner._ZERO and rest is planner._ONE
        move, rest = planner._window_ends(1, 8)
        assert move == F(dwell_time(Turn(F(1, 8)))) and move + rest == 1

    @pytest.mark.parametrize("denominator_bound", [8, 1000])
    def test_int_fields_are_reduced_and_match_the_fraction_views(self, denominator_bound):
        rng = random.Random(denominator_bound)
        checked = 0
        for n in range(1, 9):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                for product, plan in ((False, plan_skeleton), (True, plan_product)):
                    for _ in range(4):
                        path = plan(query(sample(sig, rng, denominator_bound, product),
                                          sample(sig, rng, denominator_bound, product)), sig)
                        for rule in path.coordinate_rules:
                            for view, (p, q) in ((rule.move_start, (rule.m_p, rule.m_q)),
                                                 (rule.rest_start, (rule.r_p, rule.r_q)),
                                                 (rule.delta, (rule.d_n, rule.d_d))):
                                assert all(type(x) is int for x in (p, q))
                                assert q > 0 and math.gcd(p, q) == 1
                                assert type(view) is Fraction and view == F(p, q)
                            assert rule.constant == (rule.delta == 0)
                            checked += 1
        assert checked > 1000
        # Turns at one distance from the basepoint, on either side of it,
        # give one window-end key, and so one entry on the timeline
        path = plan_skeleton(query(point("1/8", "7/8", 0), point(0, 0, 0)), AlgebraSignature(4, 4))
        near, far = path.rules[:2]
        assert near.start != far.start and near.move_start == F(1, 4)
        assert (near.m_p, near.m_q) == (far.m_p, far.m_q)
        times, columns = path.samples(3)
        assert times == [0, F(1, 4), F(1, 3), F(1, 2), F(2, 3), 1]
        assert [column[1] for column in columns] == [Turn(F(1, 8)), Turn(F(7, 8)), Turn(0)]


@st.composite
def member_queries(draw):
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    sig = AlgebraSignature(n, r)
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    return sig, PlannerQuery(sample(sig, rng), sample(sig, rng))


class TestPlannerProperties:
    @settings(max_examples=150, deadline=None)
    @given(member_queries())
    def test_paths_stay_on_skeleton(self, data):
        sig, q = data
        path = plan_skeleton(q, sig)
        need = sig.n - sig.r
        assert min(path.exact_zero_counts(32)) >= need
        assert path.least_zero_count()[0] >= need

    @settings(max_examples=150, deadline=None)
    @given(member_queries())
    def test_exactness_discipline(self, data):
        # resting and constant phases return exact turns; endpoints always do
        sig, q = data
        path = plan_skeleton(q, sig)
        for t in (0, 1):
            assert all(isinstance(v, Turn) for v in path.evaluate(t).base)
        for rule in path.rules:
            if rule.constant:
                continue
            before = rule.move_start / 2
            value = rule.value_at(before)
            assert isinstance(value, Turn) and value == rule.start
