"""The randomized verification harness itself: reports, perturbations, probes."""

import json
import math
import random
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
from torustc.planner import Agreement, CoordinateRule, EvaluatedPoint, PlannerPath
from torustc.verify import _wrap_query

F = Fraction


def _coords(point):
    """The values of an evaluated point in coordinate_rules order."""
    return point.base if point.circle is None else (*point.base, point.circle)


def pointwise_deviation(path_a, path_b, sample_steps):
    """Largest circle distance over the grid k/sample_steps and both paths'
    phase boundaries, as one evaluate() per time and a sorted set."""
    times = {F(k, sample_steps) for k in range(sample_steps + 1)}
    times.update(path_a.phase_boundaries())
    times.update(path_b.phase_boundaries())
    worst = 0.0
    for t in sorted(times):
        for va, vb in zip(_coords(path_a.evaluate(t)), _coords(path_b.evaluate(t))):
            d = abs(float(va) - float(vb)) % 1.0
            d = min(d, 1.0 - d)
            if d > worst:
                worst = d
    return worst


def _lift(rule, t):
    """Exact position of one coordinate at time t, not reduced mod 1."""
    if rule.constant or t <= rule.move_start:
        return rule.start.value
    if t >= rule.rest_start:
        return rule.start.value + rule.delta
    return rule.start.value + rule.delta * (t - rule.move_start) / (rule.rest_start - rule.move_start)


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
    pair at 0, 1 and that pair's own phase boundaries, from one evaluate()
    per path and time."""
    if passes_half_turn(path_a, path_b):
        return 0.5
    own = [_own_times(*pair) for pair in zip(path_a.coordinate_rules, path_b.coordinate_rules)]
    at = {t: (_coords(path_a.evaluate(t)), _coords(path_b.evaluate(t)))
          for t in set().union(*own)}
    worst = 0.0
    for i, times in enumerate(own):
        for t in times:
            d = abs(float(at[t][0][i]) - float(at[t][1][i])) % 1.0
            worst = max(worst, min(d, 1.0 - d))
    return worst


class TestRunSimulation:
    def test_clean_run_small(self):
        sig = AlgebraSignature(3, 2)
        rep = run_simulation(sig, mode="skeleton", queries=50, steps=64, seed=3)
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
    # every plan reports coordinate 1 flipped in or out of its agreement set
    real = planner.classify

    def wrong(query, sig):
        indices = real(query, sig).indices ^ {1}
        return Agreement(indices, len(indices))

    monkeypatch.setattr(planner, "classify", wrong)


def _break_start(monkeypatch):
    # every path starts an eighth of a turn away from its start point
    real = PlannerPath.evaluate

    def shifted(self, t):
        point = real(self, t)
        if t != 0:
            return point
        return EvaluatedPoint(tuple(v + F(1, 8) for v in point.base), point.circle)

    monkeypatch.setattr(PlannerPath, "evaluate", shifted)


def _dipping_path(query):
    """A hand-built path for the query (0, 1/4) -> (1/2, 0) in (3, 2) whose
    two coordinates are both away from the basepoint only on the open piece
    (1/3, 2/5): coordinate 1 leaves 0 at 1/3, and coordinate 2 reaches 0
    at 2/5.  Every boundary and every grid time k/4 has one coordinate at
    the basepoint."""
    (u1, u2), (v1, v2) = query.start.base, query.end.base
    rules = (
        CoordinateRule(start=u1, end=v1, move_start=F(1, 3), rest_start=F(1),
                       delta=u1.ccw_gap(v1)),
        CoordinateRule(start=u2, end=v2, move_start=F(0), rest_start=F(2, 5),
                       delta=u2.ccw_gap(v2)),
    )
    return PlannerPath(mode="skeleton", agreement=frozenset(), domain_index=0, rules=rules)


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
        # identical floats, not approximately equal ones, with the pointwise
        # reference over {0, 1} and each coordinate pair's own boundaries;
        # and never below the old 64-step grid sample beyond float rounding
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(17 + product)
        crossings = 0
        for n, r in [(1, 1), (2, 2), (4, 2), (5, 3), (7, 7), (10, 4)]:
            sig = AlgebraSignature(n, r)
            for k in range(30):
                if k % 3 == 2:
                    built = _wrap_query(sig, rng, mode)
                    if built is None:
                        continue
                    q, forced = built
                else:
                    q = PlannerQuery(sample(sig, rng, with_circle=product),
                                     sample(sig, rng, with_circle=product))
                    forced = {}
                near = perturb_query(q, sig, rng, forced_start=forced)
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
                        assert got >= grid * (1 - 1e-12)
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
                    built = _wrap_query(sig, rng, mode)
                    if built is None:
                        continue
                    q, forced = built
                    wraps += 1
                else:
                    start = sample(sig, rng, with_circle=product)
                    # every other coordinate agrees, the rest go to 0
                    base = tuple(u if j % 2 else Turn(0) for j, u in enumerate(start.base))
                    circle = start.circle if k % 2 or not product else start.circle + F(1, 3)
                    q, forced = PlannerQuery(start, SkeletonPoint(base, circle)), {}
                near = perturb_query(q, sig, rng, forced_start=forced)
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
            return PlannerPath(mode="skeleton", agreement=frozenset(), domain_index=0,
                               rules=tuple(CoordinateRule(start=Turn(v), end=Turn(v),
                                                          move_start=F(0), rest_start=F(1),
                                                          delta=F(0)) for v in values))

        path_a, path_b = still(F(1, 3), F(999, 1000)), still(F(1, 3), F(1, 1000))
        assert path_deviation(path_a, path_b) == boundary_deviation(path_a, path_b)
        assert path_deviation(path_a, path_b) == pytest.approx(0.002)
        path_c = still(F(1, 3) + F(1, 200), F(999, 1000))
        assert path_deviation(path_a, path_c) == boundary_deviation(path_a, path_c)
        assert path_deviation(path_a, path_c) == pytest.approx(0.005)

    def test_deviation_with_boundaries_tied_in_float(self):
        # rule b's boundaries sit 10**-30 inside rule a's: their floats tie,
        # so value_at places each at the other rule's boundary by an exact
        # comparison; the answer is the pointwise reference's all the same
        tiny = F(1, 10**30)

        def moving(move_start, rest_start, end=F(1, 2)):
            rule = CoordinateRule(start=Turn(F(1, 8)), end=Turn(end), move_start=move_start,
                                  rest_start=rest_start, delta=Turn(F(1, 8)).ccw_gap(Turn(end)))
            return PlannerPath(mode="skeleton", agreement=frozenset(), domain_index=0,
                               rules=(rule,))

        path_a = moving(F(1, 3), F(1, 2))
        path_b = moving(F(1, 3) + tiny, F(1, 2) - tiny, end=F(1, 2) + F(1, 1000))
        (rule_a,), (rule_b,) = path_a.rules, path_b.rules
        assert rule_a.move_start_f == rule_b.move_start_f
        assert rule_a.rest_start_f == rule_b.rest_start_f
        assert rule_b.value_at(rule_a.move_start) is rule_b.start
        assert type(rule_a.value_at(rule_b.move_start)) is float
        assert rule_b.value_at(rule_a.rest_start) is rule_b.end
        assert type(rule_a.value_at(rule_b.rest_start)) is float
        got = path_deviation(path_a, path_b)
        assert got == boundary_deviation(path_a, path_b)
        assert got == path_deviation(path_b, path_a)
        assert got == pytest.approx(0.001)

    def test_deviation_never_below_the_grid_on_the_probe_corpus(self):
        # the probe corpus of criterion 6: the supremum is at least the old
        # 64-step grid sample, up to float rounding, and equals it on most
        # probes; no perturbed probe passes a half turn
        equal = total = 0
        for n in range(1, 7):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                for mode in ("skeleton", "product"):
                    plan = plan_product if mode == "product" else plan_skeleton
                    rng = random.Random(7000 + n * 10 + r)
                    for p in range(20):
                        if p % 4 == 3:
                            built = _wrap_query(sig, rng, mode)
                            if built is None:
                                continue
                            q, forced = built
                        else:
                            q = PlannerQuery(sample(sig, rng, with_circle=mode == "product"),
                                             sample(sig, rng, with_circle=mode == "product"))
                            forced = {}
                        near = perturb_query(q, sig, rng, forced_start=forced)
                        if near is None:
                            continue
                        path_a, path_b = plan(q, sig), plan(near, sig)
                        got = path_deviation(path_a, path_b)
                        grid = pointwise_deviation(path_a, path_b, 64)
                        assert got >= grid * (1 - 1e-12), (n, r, mode, p)
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
        assert pointwise_deviation(path_a, path_b, 1) == pytest.approx(0.2)
        assert path_deviation(path_a, path_b) == 0.5
        # a base coordinate from 1/3 ccw to 1/8 and to 1/2: the difference
        # passes 1/2 inside the first of the pieces split at the first
        # path's dwell boundary, and ends at 5/8, 3/8 away
        sig = AlgebraSignature(3, 2)
        start = SkeletonPoint((Turn(0), Turn(F(1, 3))))
        path_a = plan_skeleton(PlannerQuery(start, SkeletonPoint((Turn(0), Turn(F(1, 8))))), sig)
        path_b = plan_skeleton(PlannerQuery(start, SkeletonPoint((Turn(0), Turn(F(1, 2))))), sig)
        assert path_a.phase_boundaries()[0] == 0 and 0 < path_a.phase_boundaries()[1] < 1
        assert boundary_deviation(path_a, path_b) == 0.5
        assert pointwise_deviation(path_a, path_b, 1) < 0.5
        assert path_deviation(path_a, path_b) == 0.5

    def test_wrap_probe_crosses_basepoint(self):
        # wrap probes must exercise a coordinate crossing 0 without tearing
        sig = AlgebraSignature(3, 2)
        rng = random.Random(2)
        ratios = [continuity_ratio(sig, "skeleton", rng, wrap=True) for _ in range(20)]
        ratios = [x for x in ratios if x is not None]
        assert ratios
        assert max(ratios) < 64

    def test_continuity_ratio_bounded_on_ordinary_corpus(self):
        rng = random.Random(14)
        for n, r in [(2, 2), (4, 2), (5, 3)]:
            sig = AlgebraSignature(n, r)
            for mode in ("skeleton", "product"):
                for _ in range(25):
                    ratio = continuity_ratio(sig, mode, rng)
                    if ratio is not None:
                        assert ratio < 64
