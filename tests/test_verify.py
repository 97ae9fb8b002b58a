"""The randomized verification harness itself: reports, perturbations, probes."""

import json
import random
from fractions import Fraction

import pytest

from torustc import (
    AlgebraSignature,
    PlannerQuery,
    SkeletonPoint,
    Turn,
    classify,
    continuity_ratio,
    path_deviation,
    perturb_query,
    plan_product,
    plan_skeleton,
    run_simulation,
    sample,
)
from torustc import planner
from torustc.cli import main
from torustc.planner import Agreement, EvaluatedPoint, PlannerPath
from torustc.verify import _wrap_query

F = Fraction


def pointwise_deviation(path_a, path_b, sample_steps=64):
    """Reference: path_deviation as one evaluate() per time and a sorted set."""
    times = {F(k, sample_steps) for k in range(sample_steps + 1)}
    times.update(path_a.phase_boundaries())
    times.update(path_b.phase_boundaries())
    worst = 0.0
    for t in sorted(times):
        pa = path_a.evaluate(t)
        pb = path_b.evaluate(t)
        vals_a = pa.base if pa.circle is None else (*pa.base, pa.circle)
        vals_b = pb.base if pb.circle is None else (*pb.base, pb.circle)
        for va, vb in zip(vals_a, vals_b):
            d = abs(float(va) - float(vb)) % 1.0
            d = min(d, 1.0 - d)
            if d > worst:
                worst = d
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
    monkeypatch.setattr(PlannerPath, "exact_zero_counts", lambda self, times: [0] * len(times))


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
                assert near.start.support() == q.start.support()
                assert near.end.support() == q.end.support()

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
        # identical floats, not approximately equal ones: the batch path
        # must evaluate exactly what the pointwise reference evaluates
        product = mode == "product"
        plan = plan_product if product else plan_skeleton
        rng = random.Random(17 + product)
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
                    for steps in (64, 7):
                        want = pointwise_deviation(path, path_b, steps)
                        assert path_deviation(path, path_b, steps) == want

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
