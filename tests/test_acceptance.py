"""Acceptance suite: the seven gate checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All tolerances are pinned here: exact integer equality for algebraic checks,
1e-12 for the worked path's float coordinates, continuity constant C = 32
against eps = 1/1000, and wall-clock budgets of 60 s, 120 s, and 300 s for
the three timed criteria.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from torustc import (
    AlgebraSignature,
    PlannerQuery,
    SkeletonPoint,
    TensorElement,
    Turn,
    apply_multiplication_map,
    compute_bounds,
    continuity_ratio,
    lower_bound_certificate,
    plan_skeleton,
    run_simulation,
    zdcl_brute_force,
    zdcl_degree_one,
    zero_divisor,
)

import randgen

ALL_SIGNATURES = [(n, r) for n in range(1, 9) for r in range(1, n + 1)]
CONTINUITY_C = 32.0
CONTINUITY_EPS = Fraction(1, 1000)
WORKED_PATH_TOL = 1e-12


def _verdict(number: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")


def test_criterion_1_certificates_reconcile_for_all_signatures():
    budget_s = 60.0
    started = time.perf_counter()
    problems = []
    for n, r in ALL_SIGNATURES:
        sig = AlgebraSignature(n, r)
        cert = lower_bound_certificate(sig)
        bounds = compute_bounds(n, r)
        lower_from_certificate = cert.factor_count + 1
        if cert.factor_count != min(n, 2 * r - 1):
            problems.append((n, r, "factor count", cert.factor_count))
        if cert.component_terms != cert.expected_terms:
            problems.append((n, r, "component terms", cert.component_terms))
        if lower_from_certificate != min(n + 1, 2 * r):
            problems.append((n, r, "lower", lower_from_certificate))
        if bounds.tc != lower_from_certificate:
            problems.append((n, r, "tc", bounds.tc))
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < budget_s
    _verdict(
        1, ok,
        "certificate lower bound meets min(n+1, 2r) and both upper bounds, all 36 signatures",
        f"{elapsed:.1f}s of {budget_s:.0f}s",
    )
    assert not problems, problems
    assert elapsed < budget_s, f"took {elapsed:.1f}s"


def test_criterion_2_brute_force_search_agrees_with_generator_search():
    budget_s = 120.0
    cases = [(1, 1), (2, 2), (3, 2), (4, 2), (4, 3)]
    started = time.perf_counter()
    problems = []
    for n, r in cases:
        sig = AlgebraSignature(n, r)
        brute = zdcl_brute_force(sig)
        degree_one = zdcl_degree_one(sig)
        if not (brute.searched_length == degree_one == min(n, 2 * r - 1)):
            problems.append((n, r, brute.searched_length, degree_one))
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < budget_s
    _verdict(
        2, ok,
        "brute-force cup-length equals the generator-only value on all five instances",
        f"{elapsed:.1f}s of {budget_s:.0f}s",
    )
    assert not problems, problems
    assert elapsed < budget_s, f"took {elapsed:.1f}s"


def test_criterion_3_ring_laws_hold_on_randomized_inputs():
    checks = 10_000
    rng = random.Random(20260816)
    failures = {law: 0 for law in
                ("associativity", "graded_commutativity", "ring_map", "square_zero", "anticommutation")}

    for _ in range(checks):
        sig = randgen.random_signature(rng, max_n=5)
        x = randgen.random_tensor(rng, sig)
        y = randgen.random_tensor(rng, sig)
        z = randgen.random_tensor(rng, sig)
        if (x * y) * z != x * (y * z):
            failures["associativity"] += 1

    for _ in range(checks):
        sig = randgen.random_signature(rng, max_n=5)
        x = randgen.random_homogeneous_tensor(rng, sig)
        y = randgen.random_homogeneous_tensor(rng, sig)
        dx, dy = x.total_degrees(), y.total_degrees()
        sign = -1 if dx and dy and (dx[0] & 1) and (dy[0] & 1) else 1
        if x * y != sign * (y * x):
            failures["graded_commutativity"] += 1

    for _ in range(checks):
        sig = randgen.random_signature(rng, max_n=5)
        x = randgen.random_tensor(rng, sig)
        y = randgen.random_tensor(rng, sig)
        if apply_multiplication_map(x * y) != apply_multiplication_map(x) * apply_multiplication_map(y):
            failures["ring_map"] += 1

    for _ in range(checks):
        sig = randgen.random_signature(rng, max_n=8)
        i = rng.randrange(sig.n)
        zd = zero_divisor(sig, i)
        if not (zd * zd).is_zero:
            failures["square_zero"] += 1

    for _ in range(checks):
        sig = randgen.random_signature(rng, max_n=8)
        i = rng.randrange(sig.n)
        j = rng.randrange(sig.n)
        zi, zj = zero_divisor(sig, i), zero_divisor(sig, j)
        if zi * zj != -1 * (zj * zi):
            failures["anticommutation"] += 1

    total = sum(failures.values())
    _verdict(
        3, total == 0,
        f"5 ring laws hold on {checks} randomized checks each",
        f"failures: {failures}" if total else "0 failures",
    )
    assert total == 0, failures


def test_criterion_4_planner_invariants_hold_over_seeded_queries():
    budget_s = 300.0
    queries = 1000
    steps = 256
    started = time.perf_counter()
    problems = []
    domains_seen = 0
    for n, r in ALL_SIGNATURES:
        sig = AlgebraSignature(n, r)
        for mode in ("skeleton", "product"):
            seed = n * 100 + r * 10 + (1 if mode == "product" else 0)
            report = run_simulation(
                sig, mode=mode, queries=queries, steps=steps, seed=seed
            )
            top = sig.n if mode == "product" else sig.n - 1
            if not report.ok:
                problems.append((n, r, mode, report.failures[:2]))
            if sum(report.domain_histogram.values()) != queries:
                problems.append((n, r, mode, "histogram does not count every query"))
            if any(not 0 <= d <= top for d in report.domain_histogram):
                problems.append((n, r, mode, "domain out of range"))
            domains_seen += len(report.domain_histogram)
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < budget_s
    _verdict(
        4, ok,
        f"endpoint, membership, and domain invariants over {queries} queries "
        f"x 36 signatures x 2 modes at {steps} grid times plus phase boundaries",
        f"{elapsed:.1f}s of {budget_s:.0f}s, {domains_seen} histogram buckets",
    )
    assert not problems, problems[:5]
    assert elapsed < budget_s, f"took {elapsed:.1f}s"


def test_criterion_5_worked_path_matches_frozen_values():
    sig = AlgebraSignature(3, 2)
    query = PlannerQuery(
        SkeletonPoint((Turn(0), Turn(Fraction(1, 4)))),
        SkeletonPoint((Turn(Fraction(1, 2)), Turn(0))),
    )
    path = plan_skeleton(query, sig)
    issues = []
    if path.domain != 0:
        issues.append(f"domain {path.domain}")
    quarter = path.evaluate(Fraction(1, 4))
    if not (isinstance(quarter.base[0], Turn) and quarter.base[0].is_zero):
        issues.append("coordinate 1 not exactly 0 at t=1/4")
    if abs(quarter.base[1] - 0.625) > WORKED_PATH_TOL:
        issues.append(f"coordinate 2 at t=1/4 is {quarter.base[1]}")
    three_quarter = path.evaluate(Fraction(3, 4))
    if abs(three_quarter.base[0] - 0.25) > WORKED_PATH_TOL:
        issues.append(f"coordinate 1 at t=3/4 is {three_quarter.base[0]}")
    if not (isinstance(three_quarter.base[1], Turn) and three_quarter.base[1].is_zero):
        issues.append("coordinate 2 not exactly 0 at t=3/4")
    _verdict(
        5, not issues,
        "worked (3,2) path hits (0, 0.625) at t=1/4 and (0.25, 0) at t=3/4, "
        "exact zeros exact, floats within 1e-12",
        "; ".join(issues) if issues else "",
    )
    assert not issues, issues


def test_criterion_6_perturbed_queries_stay_close():
    max_n = 6
    probes_per_mode = 100
    worst = 0.0
    worst_at = None
    probes_run = 0
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            sig = AlgebraSignature(n, r)
            for mode in ("skeleton", "product"):
                rng = random.Random(7000 + n * 10 + r)
                for p in range(probes_per_mode):
                    ratio = continuity_ratio(
                        sig, mode, rng, eps=CONTINUITY_EPS, wrap=(p % 4 == 3)
                    )
                    if ratio is None:
                        continue
                    probes_run += 1
                    if ratio > worst:
                        worst = ratio
                        worst_at = (n, r, mode)
    ok = worst <= CONTINUITY_C and probes_run > 0
    _verdict(
        6, ok,
        f"perturbations of size eps=1/1000 move paths by at most C*eps with C={CONTINUITY_C:g}",
        f"max ratio {worst:.2f} at {worst_at}, {probes_run} probes",
    )
    assert probes_run > 0
    assert worst <= CONTINUITY_C, (worst, worst_at)


def test_criterion_7_overlong_products_vanish():
    rng = random.Random(424242)
    problems = []
    for n, r in ALL_SIGNATURES:
        sig = AlgebraSignature(n, r)
        # every product of min(n, 2r-1) + 1 distinct generator zero-divisors
        # vanishes, whenever that many distinct factors exist
        sharp = min(n, 2 * r - 1)
        if sharp + 1 <= n:
            for subset in itertools.combinations(range(n), sharp + 1):
                prod = TensorElement.one(sig)
                for i in subset:
                    prod = prod * zero_divisor(sig, i)
                if not prod.is_zero:
                    problems.append((n, r, "distinct", subset))
        # n+1 generator factors force a repeat, and any repeat kills the
        # product; checked on random multisets
        for _ in range(20):
            picks = [rng.randrange(n) for _ in range(n + 1)]
            prod = TensorElement.one(sig)
            for i in picks:
                prod = prod * zero_divisor(sig, i)
            if not prod.is_zero:
                problems.append((n, r, "repetition", tuple(picks)))
        # 2r+1 factors of total degree one overflow the top degree 2r
        pool = [b for b in sig.basis_bits() if b.bit_count() == 1]
        for _ in range(20):
            prod = TensorElement.one(sig)
            for _ in range(2 * r + 1):
                terms = {}
                for b in rng.sample(pool, min(len(pool), 2)):
                    side = rng.randrange(2)
                    key = (b, 0) if side else (0, b)
                    terms[key] = rng.choice([-2, -1, 1, 2])
                prod = prod * TensorElement(sig, terms)
            if not prod.is_zero:
                problems.append((n, r, "degree-one", None))
    _verdict(
        7, not problems,
        "products of n+1 generator zero-divisors and of 2r+1 degree-one "
        "tensor factors vanish, all signatures with n <= 8",
        f"{len(problems)} violations" if problems else "",
    )
    assert not problems, problems[:5]
