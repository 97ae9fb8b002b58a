"""Path planning: schedules, exactness discipline, membership, domains."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustc import (
    AlgebraSignature,
    CoordinateRule,
    InvalidEndpoint,
    PlannerQuery,
    SkeletonPoint,
    Turn,
    classify,
    dwell_time,
    plan_product,
    plan_skeleton,
    sample,
)
from torustc.planner import sample_times

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
            want = 0.5 * (1 - math.sqrt(2) * math.sin(math.pi * float(d)))
            assert dwell_time(Turn(v)) == pytest.approx(want, abs=1e-15)

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
        assert 0 < Fraction(tiny) < F(1, 2)


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


class TestClassify:
    def test_agreement_and_domain_index(self):
        sig = AlgebraSignature(4, 2)
        q = query(point(0, "1/3", 0), point(0, "1/4", 0))
        agree = classify(q, sig)
        assert agree.indices == frozenset({1, 3})
        assert agree.domain_index == 2

    def test_domain_range(self):
        sig = AlgebraSignature(4, 3)
        rng = random.Random(5)
        for _ in range(500):
            q = query(sample(sig, rng), sample(sig, rng))
            agree = classify(q, sig)
            assert 0 <= agree.domain_index <= sig.n - 1
            assert agree.domain_index == len(agree.indices)

    def test_identical_endpoints_share_everything(self):
        sig = AlgebraSignature(3, 2)
        p = point(0, "1/5")
        agree = classify(query(p, p), sig)
        assert agree.domain_index == sig.n - 1


class TestWorkedPath:
    """One fully hand-computed path, frozen end to end."""

    def setup_method(self):
        self.sig = AlgebraSignature(3, 2)
        self.path = plan_skeleton(
            query(point(0, "1/4"), point("1/2", 0)), self.sig
        )

    def test_domain(self):
        assert self.path.domain_index == 0
        assert self.path.agreement == frozenset()

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
                assert floor <= path.combined_index <= sig.n
                seen.add(path.combined_index)
            assert seen == set(range(floor, sig.n + 1))

    def test_circle_shorter_arc(self):
        sig = AlgebraSignature(1, 1)
        # ccw gap 1/4: travel ccw
        path = plan_product(query(point(circle=0), point(circle="1/4")), sig)
        assert path.circle_rule.rule_index == 0
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.125, abs=1e-15)
        # ccw gap 3/4: travel clockwise instead
        path = plan_product(query(point(circle=0), point(circle="3/4")), sig)
        assert path.circle_rule.rule_index == 0
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.875, abs=1e-15)
        # just short of and just past the antipode
        path = plan_product(query(point(circle=0), point(circle="499/1000")), sig)
        assert path.circle_rule.rule_index == 0
        assert path.circle_rule.delta == F(499, 1000)
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.2495, abs=1e-15)
        path = plan_product(query(point(circle=0), point(circle="501/1000")), sig)
        assert path.circle_rule.rule_index == 0
        assert path.circle_rule.delta == F(-499, 1000)
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.7505, abs=1e-15)
        # the circle moves over the whole of [0, 1]
        rule = path.circle_rule
        assert (rule.move_start, rule.rest_start) == (0, 1)

    def test_antipodes_travel_ccw_half_turn(self):
        sig = AlgebraSignature(1, 1)
        path = plan_product(query(point(circle="1/4"), point(circle="3/4")), sig)
        assert path.circle_rule.rule_index == 1
        assert path.combined_index == 1
        assert path.evaluate(F(1, 2)).circle == pytest.approx(0.5, abs=1e-15)

    def test_equal_circle_points_stay_put(self):
        sig = AlgebraSignature(1, 1)
        path = plan_product(query(point(circle="1/3"), point(circle="1/3")), sig)
        assert path.circle_rule.rule_index == 0
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
    return p.base if p.circle is None else (*p.base, p.circle)


def _rows(path, times):
    """The columns of a path read row by row, one tuple per time."""
    return list(zip(*path.columns(times))) or [()] * len(times)


class TestEvaluateMany:
    """The batch evaluator, columns, against pointwise evaluation, the reference."""

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_matches_pointwise_evaluation(self, mode):
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(61 + product)
        for n, r in [(1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (6, 6), (8, 4), (10, 5)]:
            sig = AlgebraSignature(n, r)
            for _ in range(25):
                a = sample(sig, rng, with_circle=product)
                b = sample(sig, rng, with_circle=product)
                path = plan(query(a, b), sig)
                cuts = path.phase_boundaries()
                # floats one ulp either side of every boundary, taken back
                # exactly: dyadic times just inside and outside each phase
                near = [
                    F(math.nextafter(float(c), toward))
                    for c in cuts for toward in (0.0, 1.0)
                ]
                near = [t for t in near if 0 <= t <= 1]
                dyadic = [F(rng.random()) for _ in range(8)]
                times = sample_times(16, cuts, near, dyadic)
                grid = [F(k, 16) for k in range(17)]
                assert times == sorted({*grid, *cuts, *near, *dyadic})
                assert times[0] == 0 and times[-1] == 1

                want = [_values(path.evaluate(t)) for t in times]
                got = _rows(path, times)
                assert got == want
                for g, w in zip(got, want):
                    assert [type(v) for v in g] == [type(v) for v in w]

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_exact_ties_hidden_by_float_rounding(self, mode):
        # c - 2**-80 and c + 2**-80 round to the float of a boundary c but
        # are not c: a phase search on floats alone would misplace them
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(71 + product)
        tiny = F(1, 2**80)
        ties = 0
        for n, r in [(1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (6, 6), (8, 4), (10, 5)]:
            sig = AlgebraSignature(n, r)
            for _ in range(10):
                a = sample(sig, rng, with_circle=product)
                b = sample(sig, rng, with_circle=product)
                path = plan(query(a, b), sig)
                cuts = path.phase_boundaries()
                near = [c + s for c in cuts for s in (-tiny, tiny) if 0 <= c + s <= 1]
                ties += sum(1 for t in near if float(t) in {float(c) for c in cuts})
                times = sample_times(16, near, cuts)
                assert times == sorted({*(F(k, 16) for k in range(17)), *cuts, *near})

                want = [path.evaluate(t) for t in times]
                got = _rows(path, times)
                assert got == [_values(w) for w in want]
                for g, w in zip(got, want):
                    assert [type(v) for v in g] == [type(v) for v in _values(w)]
                # every boundary and, through c +- 2**-80, a point of every
                # open piece: the sweep's least count over [0, 1] is the
                # least count over these times
                assert path.least_zero_count()[0] == min(w.exact_zero_count() for w in want)
                assert path.exact_zero_counts(16) == [
                    w.exact_zero_count() for t, w in zip(times, want) if (16 * t).denominator == 1
                ]
        assert ties > 100

    def test_sample_times_rejects_float_and_out_of_range_extras(self):
        with pytest.raises(TypeError, match="exact rationals"):
            sample_times(4, [F(1, 3)], [0.5])
        with pytest.raises(ValueError, match="outside"):
            sample_times(4, [F(3, 2)])
        with pytest.raises(ValueError, match="outside"):
            sample_times(4, [F(-1, 2)])

    def test_empty_and_single_time(self):
        sig = AlgebraSignature(3, 2)
        path = plan_product(query(point(0, "1/4", circle="1/8"),
                                  point("1/2", 0, circle="5/8")), sig)
        assert path.columns([]) == [[], [], []]
        assert _rows(path, []) == []
        assert _rows(path, [F(1, 3)]) == [_values(path.evaluate(F(1, 3)))]

    def test_rejects_float_and_out_of_range_times(self):
        sig = AlgebraSignature(3, 2)
        path = plan_skeleton(query(point(0, 0), point(0, "1/4")), sig)
        with pytest.raises(TypeError, match="exact rationals"):
            path.columns([F(0), 0.5, F(1)])
        with pytest.raises(ValueError, match="outside"):
            path.columns([F(0), F(3, 2)])
        with pytest.raises(ValueError, match="outside"):
            path.columns([F(-1, 2), F(1)])
        for t in (0.5, 1.0):
            with pytest.raises(TypeError, match="exact rationals"):
                path.evaluate(t)
        for t in (F(3, 2), F(-1, 2), 7, -3):
            with pytest.raises(ValueError, match="outside"):
                path.evaluate(t)
        # the grid counter takes a positive integer step count
        worked = plan_skeleton(query(point(0, "1/4"), point("1/2", 0)), sig)
        for steps in (0.5, 4.0, F(4), "4"):
            with pytest.raises(TypeError, match="integer"):
                worked.exact_zero_counts(steps)
        for steps in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                worked.exact_zero_counts(steps)


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
                    assert 0 <= at <= 1
                    assert path.evaluate(at).exact_zero_count() == least


class TestCoordinateRule:
    """Rules are immutable values, shared where a coordinate is parked, with
    float mirrors that are the correctly rounded floats of their exact fields."""

    def test_immutable(self):
        rule = CoordinateRule(start=Turn(F(1, 4)), end=Turn(F(1, 2)), move_start=F(0),
                              rest_start=F(1), delta=F(1, 4))
        for name, value in (("start", Turn(0)), ("delta_f", 0.5), ("label", 1)):
            with pytest.raises(AttributeError):
                setattr(rule, name, value)
        with pytest.raises(AttributeError):
            del rule.start
        assert rule.start == Turn(F(1, 4)) and rule.delta_f == 0.25
        # copies and replacements are built by the constructor, mirrors included
        assert copy.copy(rule) == rule and pickle.loads(pickle.dumps(rule)) == rule
        moved = rule._replace(delta=F(1, 2))
        assert moved.delta_f == 0.5 and rule.delta_f == 0.25

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

    @pytest.mark.parametrize("denominator_bound", [8, 1000])
    def test_float_mirrors_match_exact_fields(self, denominator_bound):
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
                            assert rule.constant == (rule.delta == 0)
                            assert rule.start_f == float(rule.start.value)
                            assert rule.end_f == float(rule.end.value)
                            assert rule.delta_f == float(rule.delta)
                            assert rule.move_start_f == float(rule.move_start)
                            assert rule.rest_start_f == float(rule.rest_start)
                            assert rule.span_f == float(rule.rest_start - rule.move_start)
                            checked += 1
        assert checked > 1000


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
