"""The randomized verification harness itself: reports, perturbations, probes."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from torustc import (
    AlgebraSignature,
    PlannerQuery,
    SkeletonPoint,
    Turn,
    classify,
    continuity_ratio,
    membership,
    path_deviation,
    perturb_query,
    plan_product,
    plan_skeleton,
    run_simulation,
    sample,
)
from torustc import planner, verify
from torustc.cli import main
from torustc.planner import CoordinateRule, PlannerPath
from torustc.verify import _wrap_probe

F = Fraction


def _lift(rule, t):
    """Exact position of one coordinate at time t, not reduced mod 1."""
    if rule.constant or t <= rule.move_start:
        return rule.start.value
    if t >= rule.rest_start:
        return rule.start.value + rule.delta
    return rule.start.value + rule.delta * (t - rule.move_start) / (rule.rest_start - rule.move_start)


def _distance(rule_a, rule_b, t):
    """Exact circle distance of two coordinates at time t."""
    d = (_lift(rule_a, t) - _lift(rule_b, t)) % 1
    return min(d, 1 - d)


def pointwise_deviation(path_a, path_b, sample_steps):
    """Largest circle distance over the grid k/sample_steps and both paths'
    phase boundaries, exactly, from each coordinate's _lift at each time."""
    times = {F(k, sample_steps) for k in range(sample_steps + 1)}
    times.update(path_a.phase_boundaries())
    times.update(path_b.phase_boundaries())
    return max((_distance(rule_a, rule_b, t) for t in times
                for rule_a, rule_b in zip(path_a.coordinate_rules, path_b.coordinate_rules)),
               default=F(0))


def _own_times(rule_a, rule_b):
    """0, 1 and the phase boundaries of one coordinate pair, ascending."""
    return sorted({F(0), F(1), *(t for rule in (rule_a, rule_b) if not rule.constant
                                 for t in (rule.move_start, rule.rest_start))})


def passes_half_turn(path_a, path_b):
    """Whether some lifted coordinate difference passes a half turn strictly
    inside a piece between consecutive times of its pair's own boundaries,
    decided exactly."""
    for rule_a, rule_b in zip(path_a.coordinate_rules, path_b.coordinate_rules):
        cuts = _own_times(rule_a, rule_b)
        diffs = [_lift(rule_a, t) - _lift(rule_b, t) for t in cuts]
        for lo, hi in zip(diffs, diffs[1:]):
            lo, hi = min(lo, hi), max(lo, hi)
            if math.floor(lo + F(1, 2)) + F(1, 2) < hi:
                return True
    return False


def boundary_deviation(path_a, path_b):
    """Reference for path_deviation: 1/2 when a lifted difference passes a
    half turn inside a piece, else the largest distance of each coordinate
    pair at 0, 1 and that pair's own phase boundaries, exactly, from each
    coordinate's _lift at each time."""
    if passes_half_turn(path_a, path_b):
        return F(1, 2)
    return max((_distance(rule_a, rule_b, t)
                for rule_a, rule_b in zip(path_a.coordinate_rules, path_b.coordinate_rules)
                for t in _own_times(rule_a, rule_b)), default=F(0))


class TestRunSimulation:
    def test_clean_run_small(self):
        sig = AlgebraSignature(3, 2)
        before = time.perf_counter()
        rep = run_simulation(sig, mode="skeleton", queries=50, steps=64, seed=3)
        elapsed = time.perf_counter() - before
        # the run's own duration, within the time around the call
        assert 0 <= rep.wall_time_s <= elapsed < 60
        assert rep.ok
        assert rep.endpoint_violations == 0
        assert rep.membership_violations == 0
        assert rep.domain_violations == 0
        assert sum(rep.domain_histogram.values()) == 50
        assert rep.failures == []

    def test_product_mode_histogram_keys(self):
        sig = AlgebraSignature(2, 2)
        rep = run_simulation(sig, mode="product", queries=200, steps=32, seed=5)
        assert rep.ok
        assert set(rep.domain_histogram) <= set(range(sig.n + 1))
        assert len(rep.domain_histogram) >= 2

    def test_deterministic_under_seed(self):
        sig = AlgebraSignature(4, 2)
        a = run_simulation(sig, queries=30, steps=32, seed=11)
        b = run_simulation(sig, queries=30, steps=32, seed=11)
        assert a.domain_histogram == b.domain_histogram

    def test_continuity_probes_reported(self):
        sig = AlgebraSignature(3, 2)
        rep = run_simulation(sig, queries=10, steps=32, seed=1, continuity_probes=12)
        assert rep.continuity_probes > 0
        assert rep.max_continuity_ratio is not None
        assert rep.max_continuity_ratio > 0

    def test_bad_arguments(self):
        sig = AlgebraSignature(3, 2)
        with pytest.raises(ValueError):
            run_simulation(sig, queries=0)
        with pytest.raises(ValueError):
            run_simulation(sig, mode="warp")
        with pytest.raises(ValueError, match="continuity_probes"):
            run_simulation(sig, continuity_probes=-1)

    def test_jsonable_round_trip(self):
        sig = AlgebraSignature(2, 2)
        rep = run_simulation(sig, queries=5, steps=16, seed=0, continuity_probes=4)
        doc = json.loads(json.dumps(rep.to_jsonable()))
        assert doc["ok"] is True
        assert doc["queries"] == 5


def _break_membership(monkeypatch):
    # the grid counter sees no coordinate at the basepoint anywhere
    monkeypatch.setattr(PlannerPath, "exact_zero_counts", lambda self, steps: [0] * (steps + 1))


def _break_agreement(monkeypatch):
    # every path reports coordinate 1 flipped in or out of its agreement set
    real = PlannerPath.agreement.fget
    monkeypatch.setattr(PlannerPath, "agreement", property(lambda path: real(path) ^ {1}))


def _break_start(monkeypatch):
    # every path starts an eighth of a turn away from its start point
    real = PlannerPath.evaluate

    def shifted(self, t):
        point = real(self, t)
        if t != 0:
            return point
        return SkeletonPoint(tuple(Turn(v.value + F(1, 8)) for v in point.base), point.circle)

    monkeypatch.setattr(PlannerPath, "evaluate", shifted)


def _dipping_path(query):
    """A hand-built path for the query (0, 1/4) -> (1/2, 0) in (3, 2) whose
    two coordinates are both away from the basepoint only on the open piece
    (1/3, 2/5): coordinate 1 leaves 0 at 1/3, and coordinate 2 reaches 0
    at 2/5.  Every boundary and every grid time k/4 has one coordinate at
    the basepoint."""
    (u1, u2), (v1, v2) = query.start.base, query.end.base
    rules = (
        CoordinateRule(start=u1, end=v1, move_start=F(1, 3), rest_start=F(1)),
        CoordinateRule(start=u2, end=v2, move_start=F(0), rest_start=F(2, 5)),
    )
    return PlannerPath(rules=rules)


class TestViolations:
    """A planner that breaks one invariant is caught, counted and reported."""

    CASES = [
        (_break_membership, "membership_violations", "membership"),
        (_break_agreement, "domain_violations", "domain"),
        (_break_start, "endpoint_violations", "endpoint"),
    ]

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    @pytest.mark.parametrize("breaker, counter, kind", CASES)
    def test_counted_and_capped(self, monkeypatch, breaker, counter, kind, mode):
        breaker(monkeypatch)
        rep = run_simulation(AlgebraSignature(3, 2), mode=mode, queries=12, steps=16, seed=4)
        assert getattr(rep, counter) >= 12
        assert not rep.ok
        assert len(rep.failures) == 5
        assert kind in {f["kind"] for f in rep.failures}
        for failure in rep.failures:
            assert list(failure) == ["kind", "detail", "query"]
            assert set(failure["query"]) == {"from", "to"}
        doc = rep.to_jsonable()
        assert doc["ok"] is False
        assert list(doc)[-2:] == ["ok", "failures"]

    def test_simulate_exits_one(self, monkeypatch, capsys):
        _break_agreement(monkeypatch)
        code = main(["simulate", "3", "2", "--queries", "8", "--steps", "16", "--seed", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["ok"] is False
        assert doc["domain_violations"] == 8
        assert [f["kind"] for f in doc["failures"]] == ["domain"] * 5

    def test_wrong_circle_domain(self, monkeypatch):
        # on (2, 1) the one base coordinate is always 0, so the agreement is
        # {1} and the domain is 1, plus 1 when the circle endpoints are exact
        # antipodes; with denominators at most 2 about a third of the
        # queries are antipodal
        sig = AlgebraSignature(2, 1)
        honest = run_simulation(sig, mode="product", queries=60, steps=8, seed=7,
                                denominator_bound=2)
        assert honest.ok and set(honest.domain_histogram) == {1, 2}
        antipodal = honest.domain_histogram[2]
        # a planner that leaves the circle out of the domain is caught on
        # exactly those queries, and on no others
        monkeypatch.setattr(PlannerPath, "domain", property(lambda path: len(path.agreement)))
        rep = run_simulation(sig, mode="product", queries=60, steps=8, seed=7,
                             denominator_bound=2)
        assert rep.domain_violations == antipodal
        assert (rep.membership_violations, rep.endpoint_violations) == (0, 0)
        assert [f["kind"] for f in rep.failures] == ["domain"] * 5
        for failure in rep.failures:
            circles = failure["query"]["from"]["circle"], failure["query"]["to"]["circle"]
            assert sorted(circles) == ["0", "1/2"]
        assert run_simulation(sig, mode="skeleton", queries=60, steps=8, seed=7,
                              denominator_bound=2).ok

    def test_membership_dip_inside_a_piece(self, monkeypatch):
        sig = AlgebraSignature(3, 2)
        start = SkeletonPoint((Turn(0), Turn(F(1, 4))))
        end = SkeletonPoint((Turn(F(1, 2)), Turn(0)))
        path = _dipping_path(PlannerQuery(start, end))
        cuts = path.phase_boundaries()
        assert cuts == (F(0), F(1, 3), F(2, 5), F(1))
        # boundaries alone and the grid alone both miss the dip
        assert min(path.evaluate(t).exact_zero_count() for t in cuts) == 1
        assert min(path.exact_zero_counts(4)) == 1
        assert path.least_zero_count() == (0, F(11, 30))

        points = iter([start, end] * 6)
        monkeypatch.setattr(verify, "sample", lambda *args, **kwargs: next(points))
        monkeypatch.setattr(verify, "plan_skeleton", lambda q, s: _dipping_path(q))
        rep = run_simulation(sig, queries=6, steps=4, seed=0)
        assert (rep.membership_violations, rep.endpoint_violations, rep.domain_violations) == (6, 0, 0)
        assert rep.failures[0]["detail"] == "only 0 coordinates at basepoint at t=11/30, need 1"


class TestPerturbation:
    def test_preserves_domain_and_supports(self):
        rng = random.Random(9)
        for n, r in [(3, 2), (5, 3), (4, 4)]:
            sig = AlgebraSignature(n, r)
            from torustc import sample

            for _ in range(200):
                q = PlannerQuery(sample(sig, rng), sample(sig, rng))
                near = perturb_query(q, sig, rng)
                if near is None:
                    continue
                assert classify(near, sig) == classify(q, sig)
                for a, b in ((near.start, q.start), (near.end, q.end)):
                    assert membership(a.base, sig)[1] == membership(b.base, sig)[1]

    def test_equal_and_antipodal_circles_share_their_shift(self):
        # equal or antipodal circle endpoints move together, so the circle
        # keeps its gap and the path its domain; any other pair moves freely
        sig = AlgebraSignature(3, 2)
        rng = random.Random(19)
        base = SkeletonPoint((Turn(F(1, 3)), Turn(0)), Turn(F(1, 8)))
        for gap in (F(0), F(1, 2), F(1, 4), F(3, 8), F(5, 8)):
            end = SkeletonPoint((Turn(0), Turn(F(2, 5))), Turn(base.circle.value + gap))
            q = PlannerQuery(base, end)
            for _ in range(20):
                near = perturb_query(q, sig, rng)
                moved_gap = F(*near.start.circle.ccw_gap(near.end.circle))
                assert (moved_gap == gap) == (gap in (0, F(1, 2))), (gap, near)
                assert plan_product(near, sig).domain == plan_product(q, sig).domain

    def test_shift_onto_the_basepoint_is_halved(self):
        # randrange(k) returning k - 1 draws the shift +eps every time, which
        # would carry 999/1000 onto the basepoint, so that shift is halved
        class LastDraw:
            def randrange(self, k):
                return k - 1

        sig = AlgebraSignature(3, 2)
        q = PlannerQuery(SkeletonPoint((Turn(F(999, 1000)), Turn(0))),
                         SkeletonPoint((Turn(0), Turn(F(1, 3)))))
        near = perturb_query(q, sig, LastDraw())
        assert near.start.base == (Turn(F(1999, 2000)), Turn(0))
        assert near.end.base == (Turn(0), Turn(F(1, 3) + F(1, 1000)))

    def test_perturbation_shifts_are_nonzero_and_symmetric(self):
        # every one of the 2,000 draws: the shifts are the nonzero multiples
        # of eps/1000 in [-eps, eps], each once
        class Draw:
            def __init__(self, k):
                self.k = k

            def randrange(self, n):
                assert n == 2000
                return self.k

        eps = F(1, 1000)
        shifts = [F(*verify._perturbation(Draw(k), eps)) for k in range(2000)]
        assert 0 not in shifts and len(set(shifts)) == 2000
        assert {-s for s in shifts} == set(shifts) and max(shifts) == eps

    def test_returns_none_when_nothing_moves(self):
        sig = AlgebraSignature(3, 1)
        zeros = SkeletonPoint((Turn(0), Turn(0)))
        assert perturb_query(PlannerQuery(zeros, zeros), sig, random.Random(0)) is None

    def test_deviation_scales_with_eps(self):
        # the same perturbation direction at two magnitudes: the measured
        # deviation must shrink with eps, confirming the linear regime
        sig = AlgebraSignature(3, 2)
        rng1, rng2 = random.Random(42), random.Random(42)
        q = PlannerQuery(
            SkeletonPoint((Turn(0), Turn(F(1, 4)))),
            SkeletonPoint((Turn(F(1, 2)), Turn(0))),
        )
        big = perturb_query(q, sig, rng1, eps=F(1, 100))
        small = perturb_query(q, sig, rng2, eps=F(1, 10000))
        d_big = path_deviation(plan_skeleton(q, sig), plan_skeleton(big, sig))
        d_small = path_deviation(plan_skeleton(q, sig), plan_skeleton(small, sig))
        assert d_small < d_big
        assert d_small < 0.01

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_deviation_matches_pointwise_reference(self, mode):
        # exactly equal to the exact reference over {0, 1} and each
        # coordinate pair's own boundaries, and never below the exact 64-step
        # or 7-step grid sample
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(17 + product)
        crossings = 0
        for n, r in [(1, 1), (2, 2), (4, 2), (5, 3), (7, 7), (10, 4)]:
            sig = AlgebraSignature(n, r)
            for k in range(30):
                if k % 3 == 2:
                    pair = _wrap_probe(sig, rng, product)
                    if pair is None:
                        continue
                    q, near = pair
                else:
                    q = PlannerQuery(sample(sig, rng, with_circle=product),
                                     sample(sig, rng, with_circle=product))
                    near = perturb_query(q, sig, rng)
                other = PlannerQuery(sample(sig, rng, with_circle=product),
                                     sample(sig, rng, with_circle=product))
                path = plan(q, sig)
                for partner in (near, other):
                    if partner is None:
                        continue
                    path_b = plan(partner, sig)
                    got = path_deviation(path, path_b)
                    assert got == boundary_deviation(path, path_b)
                    crossings += got == 0.5
                    for steps in (64, 7):
                        grid = pointwise_deviation(path, path_b, steps)
                        assert got >= grid
        # unrelated partners pass a half turn now and then; perturbed ones never do
        assert crossings > 0

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_deviation_matches_reference_on_shared_and_constant_pairs(self, mode):
        # the pairs path_deviation settles without value_at: one shared
        # _PARKED rule, and two constant rules at different nonzero values
        # (an agreeing coordinate, or an equal circle pair, moved by one
        # shared shift); plus wrap probes, which carry a coordinate across 0
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(23 + product)
        shared = constant = wraps = 0
        for n, r in [(2, 2), (5, 2), (6, 4), (8, 3), (5, 5)]:
            sig = AlgebraSignature(n, r)
            for k in range(40):
                if k % 4 == 3:
                    pair = _wrap_probe(sig, rng, product)
                    if pair is None:
                        continue
                    q, near = pair
                    wraps += 1
                else:
                    start = sample(sig, rng, with_circle=product)
                    # every other coordinate agrees, the rest go to 0
                    base = tuple(u if j % 2 else Turn(0) for j, u in enumerate(start.base))
                    circle = start.circle if k % 2 or not product else Turn(start.circle.value + F(1, 3))
                    q = PlannerQuery(start, SkeletonPoint(base, circle))
                    near = perturb_query(q, sig, rng)
                if near is None:
                    continue
                path_a, path_b = plan(q, sig), plan(near, sig)
                for rule_a, rule_b in zip(path_a.coordinate_rules, path_b.coordinate_rules):
                    shared += rule_a is rule_b is planner._PARKED
                    constant += (rule_a.constant and rule_b.constant
                                 and not rule_a.start.is_zero and rule_a.start != rule_b.start)
                got = path_deviation(path_a, path_b)
                assert got == boundary_deviation(path_a, path_b)
                assert got < 0.5
        assert shared > 50 and constant > 50 and wraps > 10

    def test_deviation_of_constant_pairs(self):
        # two constant rules contribute their one distance, across 0 too
        def still(*values):
            return PlannerPath(rules=tuple(CoordinateRule(start=Turn(v), end=Turn(v),
                                                      move_start=F(0), rest_start=F(1))
                                       for v in values))

        path_a, path_b = still(F(1, 3), F(999, 1000)), still(F(1, 3), F(1, 1000))
        assert path_deviation(path_a, path_b) == boundary_deviation(path_a, path_b)
        assert path_deviation(path_a, path_b) == F(1, 500)
        path_c = still(F(1, 3) + F(1, 200), F(999, 1000))
        assert path_deviation(path_a, path_c) == boundary_deviation(path_a, path_c)
        assert path_deviation(path_a, path_c) == F(1, 200)

    def test_deviation_with_boundaries_tied_in_float(self):
        # rule b's boundaries sit 10**-30 inside rule a's: their floats tie,
        # yet value_at, which compares integers, places each at the other
        # rule's boundary exactly, and so does path_deviation, which gives
        # the exact reference's answer
        tiny = F(1, 10**30)

        def moving(move_start, rest_start, end=F(1, 2)):
            rule = CoordinateRule(start=Turn(F(1, 8)), end=Turn(end), move_start=move_start,
                                  rest_start=rest_start)
            return PlannerPath(rules=(rule,))

        path_a = moving(F(1, 3), F(1, 2))
        path_b = moving(F(1, 3) + tiny, F(1, 2) - tiny, end=F(1, 2) + F(1, 1000))
        (rule_a,), (rule_b,) = path_a.rules, path_b.rules
        assert float(rule_a.move_start) == float(rule_b.move_start)
        assert float(rule_a.rest_start) == float(rule_b.rest_start)
        assert rule_b.value_at(rule_a.move_start) is rule_b.start
        assert type(rule_a.value_at(rule_b.move_start)) is float
        assert rule_b.value_at(rule_a.rest_start) is rule_b.end
        assert type(rule_a.value_at(rule_b.rest_start)) is float
        got = path_deviation(path_a, path_b)
        assert got == boundary_deviation(path_a, path_b)
        assert got == path_deviation(path_b, path_a)
        assert got == pytest.approx(0.001)

    def test_deviation_never_below_the_grid_on_the_probe_corpus(self):
        # the probe corpus of criterion 6: the supremum is at least the
        # exact 64-step grid sample, and equals it on most probes; no
        # perturbed probe passes a half turn
        equal = total = 0
        for n in range(1, 7):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                for mode in ("skeleton", "product"):
                    plan = plan_product if mode == "product" else plan_skeleton
                    rng = random.Random(7000 + n * 10 + r)
                    for p in range(20):
                        if p % 4 == 3:
                            pair = _wrap_probe(sig, rng, mode == "product")
                            if pair is None:
                                continue
                            q, near = pair
                        else:
                            q = PlannerQuery(sample(sig, rng, with_circle=mode == "product"),
                                             sample(sig, rng, with_circle=mode == "product"))
                            near = perturb_query(q, sig, rng)
                        if near is None:
                            continue
                        path_a, path_b = plan(q, sig), plan(near, sig)
                        got = path_deviation(path_a, path_b)
                        grid = pointwise_deviation(path_a, path_b, 64)
                        assert got >= grid, (n, r, mode, p)
                        assert got < 0.5
                        total += 1
                        equal += got == grid
        assert total > 500
        assert equal > 0.95 * total

    def test_deviation_memory_is_linear_in_n(self):
        # one product-mode probe with 552 moving coordinates; walking
        # every coordinate at every boundary of both paths peaks near 7 MB
        # here and grows with n squared, one pair at a time stays far below
        sig = AlgebraSignature(1000, 500)
        rng = random.Random(0)
        q = PlannerQuery(sample(sig, rng, with_circle=True), sample(sig, rng, with_circle=True))
        path_a, path_b = plan_product(q, sig), plan_product(perturb_query(q, sig, rng), sig)
        assert len(path_b.phase_boundaries()) > 200
        tracemalloc.start()
        try:
            got = path_deviation(path_a, path_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert got == boundary_deviation(path_a, path_b)

    def test_half_turn_inside_a_piece(self):
        # circles 0 -> 2/5 and 0 -> 3/5 travel their shorter arcs in opposite
        # directions; their lifted difference 4t/5 passes 1/2 at t = 5/8,
        # strictly inside the only piece [0, 1]
        sig = AlgebraSignature(1, 1)
        start = SkeletonPoint((), Turn(0))
        path_a = plan_product(PlannerQuery(start, SkeletonPoint((), Turn(F(2, 5)))), sig)
        path_b = plan_product(PlannerQuery(start, SkeletonPoint((), Turn(F(3, 5)))), sig)
        assert pointwise_deviation(path_a, path_b, 1) == F(1, 5)
        assert path_deviation(path_a, path_b) == F(1, 2)
        # a base coordinate from 1/3 ccw to 1/8 and to 1/2: the difference
        # passes 1/2 inside the first of the pieces split at the first
        # path's dwell boundary, and ends at 5/8, 3/8 away
        sig = AlgebraSignature(3, 2)
        start = SkeletonPoint((Turn(0), Turn(F(1, 3))))
        path_a = plan_skeleton(PlannerQuery(start, SkeletonPoint((Turn(0), Turn(F(1, 8))))), sig)
        path_b = plan_skeleton(PlannerQuery(start, SkeletonPoint((Turn(0), Turn(F(1, 2))))), sig)
        assert path_a.phase_boundaries()[0] == 0 and 0 < path_a.phase_boundaries()[1] < 1
        assert boundary_deviation(path_a, path_b) == F(1, 2)
        assert pointwise_deviation(path_a, path_b, 1) < F(1, 2)
        assert path_deviation(path_a, path_b) == F(1, 2)
        # a (2, 2) coordinate from 0 to just short of a half turn, against
        # the parked path: the difference stays below 1/2, a float of it
        # does not, and exactly at 1/2 the distance is 1/2
        sig = AlgebraSignature(2, 2)
        zero = SkeletonPoint((Turn(0),))
        parked = plan_skeleton(PlannerQuery(zero, zero), sig)
        for end, want in ((F(1, 2) - F(1, 10**30), F(1, 2) - F(1, 10**30)),
                          (F(1, 2), F(1, 2))):
            path = plan_skeleton(PlannerQuery(zero, SkeletonPoint((Turn(end),))), sig)
            assert path_deviation(path, parked) == want == path_deviation(parked, path)
            assert boundary_deviation(path, parked) == want

    def test_deviation_needs_paths_of_one_space(self):
        # a (3, 2) skeleton path against a (4, 2) skeleton path, and against
        # a (2, 2) product path with as many coordinate rules: zipping their
        # rules would drop or mismatch coordinates
        def path(n, circle=None):
            start = SkeletonPoint((Turn(0),) * (n - 1), circle)
            end = SkeletonPoint((Turn(F(1, 4)),) + (Turn(0),) * (n - 2), circle)
            plan = plan_skeleton if circle is None else plan_product
            return plan(PlannerQuery(start, end), AlgebraSignature(n, 2))

        three = path(3)
        for other in (path(4), path(2, circle=Turn(F(1, 3)))):
            assert len(other.coordinate_rules) >= len(three.coordinate_rules)
            for pair in ((three, other), (other, three)):
                with pytest.raises(ValueError, match="different spaces"):
                    path_deviation(*pair)
        assert path_deviation(three, path(3)) == 0

    def test_wrap_probe_crosses_basepoint(self):
        # wrap probes must exercise a coordinate crossing 0 without tearing
        sig = AlgebraSignature(3, 2)
        rng = random.Random(2)
        ratios = [continuity_ratio(sig, "skeleton", rng, wrap=True) for _ in range(20)]
        ratios = [x for x in ratios if x is not None]
        assert ratios
        assert max(ratios) < 64

    @pytest.mark.parametrize("mode", ["skeleton", "product"])
    def test_wrap_probe_scales_with_eps(self, mode):
        # the carried coordinate starts (125/256) eps below the basepoint in
        # the query and (67/256) eps past it in the nearby query, a push of
        # (3/4) eps, so it crosses at every eps; the worst ratio over a
        # seeded corpus is then the same at eps = 10^-3, 10^-5 and 10^-7,
        # where a fixed push would read 75 and 7,500
        product = mode == "product"
        for eps in (F(1, 10**3), F(1, 10**5), F(1, 10**7)):
            sig = AlgebraSignature(3, 3)
            q, near = _wrap_probe(sig, random.Random(5), product, eps)
            below, past = Turn(1 - F(125, 256) * eps), Turn(F(67, 256) * eps)
            carried = [j for j, u in enumerate(q.start.base, start=1) if u == below]
            assert len(carried) == 1
            for j in carried + [0] * product:
                u = q.start.circle if j == 0 else q.start.base[j - 1]
                v = near.start.circle if j == 0 else near.start.base[j - 1]
                assert u == below and v == past == Turn(u.value + F(3, 4) * eps)
            # every other coordinate is perturb_query's: moved by at most
            # eps, and zeros stay zero
            pairs = list(zip(q.start.base + q.end.base, near.start.base + near.end.base))
            if product:
                pairs.append((q.end.circle, near.end.circle))
            for j, (u, v) in enumerate(pairs):
                if j + 1 in carried:
                    continue
                gap = (v.value - u.value) % 1
                assert min(gap, 1 - gap) <= eps and u.is_zero == v.is_zero
            assert classify(q, sig) == classify(near, sig)
        for n, r, want in [(3, 3, 3.29), (5, 3, 4.39), (6, 2, 0.978)]:
            sig = AlgebraSignature(n, r)
            for eps in (F(1, 10**3), F(1, 10**5), F(1, 10**7)):
                ratios = [continuity_ratio(sig, mode, random.Random(seed), eps=eps, wrap=True)
                          for seed in range(40)]
                assert max(ratios) == pytest.approx(want, rel=0.01), (n, r, eps)

    def test_continuity_ratio_bounded_on_ordinary_corpus(self):
        rng = random.Random(14)
        for n, r in [(2, 2), (4, 2), (5, 3)]:
            sig = AlgebraSignature(n, r)
            for mode in ("skeleton", "product"):
                for _ in range(25):
                    ratio = continuity_ratio(sig, mode, rng)
                    if ratio is not None:
                        assert ratio < 64
