"""Exact circle coordinates, skeleton membership, and random sampling."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustc import AlgebraSignature, SkeletonPoint, Turn, membership, random_turn, sample

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=64)


class TestTurn:
    def test_normalises_into_unit_interval(self):
        assert Turn(Fraction(5, 4)).value == Fraction(1, 4)
        assert Turn(Fraction(-1, 4)).value == Fraction(3, 4)
        assert Turn(3).value == 0

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="exact rationals"):
            Turn(0.25)

    def test_parse_round_trip(self):
        for text in ["0", "1/4", "3/4", "7/8"]:
            assert str(Turn.parse(text)) == text

    def test_parse_normalises(self):
        assert Turn.parse("5/4") == Turn(Fraction(1, 4))
        assert Turn.parse("-1/4") == Turn(Fraction(3, 4))

    def test_parse_rejects_decimals_and_junk(self):
        for bad in ["0.5", "1e-3", "pi", "1/4/2", "", "1/0", "-3/00"]:
            with pytest.raises(ValueError):
                Turn.parse(bad)

    def test_parse_messages_shorten_long_text(self):
        # short text is repeated whole, long text by its start and length
        with pytest.raises(ValueError, match=r"^expected an exact rational like 3/4 or 0, "
                                             r"got 'pi'$"):
            Turn.parse("pi")
        with pytest.raises(ValueError, match=r"^zero denominator in '-3/00'$"):
            Turn.parse("-3/00")
        with pytest.raises(ValueError, match=r"got 'x9999999999\.\.\. \(4001 characters\)$"):
            Turn.parse("x" + "9" * 4000)
        with pytest.raises(ValueError, match=r"in '1/000000000\.\.\. \(4002 characters\)$"):
            Turn.parse("1/" + "0" * 4000)

    @settings(max_examples=300, deadline=None)
    @given(rationals, rationals)
    def test_ccw_gap_and_distance(self, a, b):
        x, y = Turn(a), Turn(b)
        gap = x.ccw_gap(y)
        assert 0 <= gap < 1
        assert (x + gap) == y
        assert y.ccw_gap(x) == (1 - gap) % 1

    @settings(max_examples=300, deadline=None)
    @given(rationals)
    def test_basepoint_distance(self, a):
        x = Turn(a)
        assert Turn(0).ccw_gap(x) == x.value
        assert x.ccw_gap(Turn(0)) == (1 - x.value) % 1

    def test_arithmetic_wraps(self):
        assert Turn(Fraction(7, 8)) + Fraction(1, 4) == Turn(Fraction(1, 8))
        assert Turn(Fraction(1, 8)) - Fraction(1, 4) == Turn(Fraction(7, 8))
        assert -Turn(Fraction(1, 4)) == Turn(Fraction(3, 4))

    @settings(max_examples=400, deadline=None)
    @given(rationals, st.one_of(rationals, st.integers(-7, 7)))
    def test_equality_matches_fraction_definition(self, a, b):
        # b is a free rational, or a moved by whole turns, so equal pairs occur
        if isinstance(b, int):
            b = a + b
        x, y = Turn(a), Turn(b)
        assert (x == y) == (a % 1 == b % 1)
        assert (x != y) == (a % 1 != b % 1)
        if x == y:
            assert hash(x) == hash(y)
        assert (x.num, x.den) == ((a % 1).numerator, (a % 1).denominator)
        assert x.is_zero == (a % 1 == 0)
        assert x.ccw_gap(y) == (b - a) % 1

    def test_equality_is_exact(self):
        assert Turn(Fraction(1, 3)) == Turn(Fraction(2, 6))
        assert Turn(Fraction(1, 3)) != Turn(Fraction(333333, 1000000))
        assert hash(Turn(Fraction(1, 3))) == hash(Turn(Fraction(2, 6)))


def _reduced_mod_one(t, want):
    """t is the Turn of want mod 1, in lowest terms, in every view."""
    want %= 1
    assert (t.num, t.den) == (want.numerator, want.denominator)
    assert math.gcd(t.num, t.den) == 1 and 0 <= t.num < t.den
    assert t.value == want and type(t.value) is Fraction
    assert t == Turn(want) and hash(t) == hash(Turn(want))
    assert str(t) == str(want) and float(t) == float(want)
    assert t.is_zero == (want == 0)


class TestTurnArithmetic:
    """Integer arithmetic on num/den against Fraction arithmetic mod 1."""

    @settings(max_examples=300, deadline=None)
    @given(rationals, st.one_of(rationals, st.integers(-7, 7)))
    def test_sums_and_differences(self, a, b):
        x = Turn(a)
        _reduced_mod_one(x + b, a + b)
        _reduced_mod_one(b + x, a + b)
        _reduced_mod_one(x + Turn(b), a + b)
        _reduced_mod_one(Turn(b) + x, a + b)
        _reduced_mod_one(x - b, a - b)
        _reduced_mod_one(-x, -a)
        assert x.ccw_gap(Turn(b)) == (b - a) % 1
        assert Turn(b).ccw_gap(x) == (a - b) % 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6), st.integers(1, 60))
    def test_of_reduces_any_sign_and_scale(self, p, q, k):
        t = Turn.of(p * k, q * k)
        _reduced_mod_one(t, Fraction(p, q))
        assert t == Turn.of(p, q) and hash(t) == hash(Turn.of(p, q))
        assert t.move_start is None and t.rest_start is None

    def test_of_edge_values(self):
        for p, q, want in [(0, 7, "0"), (-7, 7, "0"), (14, 7, "0"), (-1, 4, "3/4"),
                           (6, 8, "3/4"), (-9, 6, "1/2"), (10**30 + 1, 10**30, f"1/{10**30}")]:
            t = Turn.of(p, q)
            assert str(t) == want
            _reduced_mod_one(t, Fraction(p, q))
        assert repr(Turn.of(-1, 4)) == "Turn(3/4)" and repr(Turn(0)) == "Turn(0)"

    def test_unsupported_operands(self):
        with pytest.raises(TypeError):
            Turn(0) + 0.5
        with pytest.raises(TypeError):
            Turn(0) - Turn(0)
        assert Turn(0) != 0 and Turn(Fraction(1, 2)) != Fraction(1, 2)

    def test_random_turn_draws_as_randint(self):
        # the planner's seeded draws: q uniform in 1..bound, then p below q
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(500):
                q = ref.randint(1, 12)
                assert random_turn(rng, 12) == Turn(Fraction(ref.randrange(q), q))
            assert rng.random() == ref.random()


class TestMembership:
    def test_support_and_membership(self):
        sig = AlgebraSignature(4, 2)
        ok, support = membership((Turn(0), Turn(Fraction(1, 3)), Turn(0)), sig)
        assert ok and support == frozenset({2})
        ok, support = membership((Turn(Fraction(1, 2)), Turn(Fraction(1, 3)), Turn(0)), sig)
        assert not ok and support == frozenset({1, 2})

    def test_wrong_length_raises(self):
        sig = AlgebraSignature(4, 2)
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            membership((Turn(0),), sig)

    def test_vacuous_cases(self):
        # n = r: every point of the full torus belongs
        sig = AlgebraSignature(3, 3)
        ok, _ = membership((Turn(Fraction(1, 3)), Turn(Fraction(2, 5))), sig)
        assert ok
        # n = 1: the empty tuple is the one point
        ok, support = membership((), AlgebraSignature(1, 1))
        assert ok and support == frozenset()

    def test_point_helpers(self):
        p = SkeletonPoint((Turn(0), Turn(Fraction(1, 5))), Turn(Fraction(1, 2)))
        assert p.has_circle
        assert p.to_jsonable() == {"base": ["0", "1/5"], "circle": "1/2"}
        assert membership(p.base, AlgebraSignature(3, 2)) == (True, frozenset({2}))


class TestSampling:
    def test_samples_are_members_with_bounded_denominators(self):
        rng = random.Random(42)
        for n, r in [(1, 1), (3, 2), (5, 3), (6, 6)]:
            sig = AlgebraSignature(n, r)
            for _ in range(300):
                p = sample(sig, rng, denominator_bound=8)
                assert membership(p.base, sig)[0]
                assert not p.has_circle
                assert all(t.value.denominator <= 8 for t in p.base)

    def test_with_circle(self):
        rng = random.Random(43)
        p = sample(AlgebraSignature(3, 2), rng, with_circle=True)
        assert p.has_circle

    def test_denominator_bound_validation(self):
        with pytest.raises(ValueError):
            sample(AlgebraSignature(3, 2), random.Random(0), denominator_bound=1)

    def test_every_maximal_support_appears(self):
        # coupon-collector check: all size-(r-1) supports show up in 10^4 draws
        sig = AlgebraSignature(4, 3)
        rng = random.Random(7)
        seen = set()
        for _ in range(10_000):
            chosen = frozenset(rng.sample(range(1, sig.n), sig.r - 1))
            seen.add(chosen)
        assert seen == {frozenset(s) for s in [(1, 2), (1, 3), (2, 3)]}

    def test_realised_supports_cover_all_subsets(self):
        # realised support can be any subset of a chosen one; with 10^4 draws
        # every subset of {1,2,3} of size <= 2 appears for (4,3)
        sig = AlgebraSignature(4, 3)
        rng = random.Random(9)
        seen = set()
        for _ in range(10_000):
            seen.add(membership(sample(sig, rng).base, sig)[1])
        expected = {
            frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
        }
        assert seen == expected

    def test_random_turn_distribution_hits_zero_and_nonzero(self):
        rng = random.Random(11)
        values = {random_turn(rng, 8).value for _ in range(2000)}
        assert Fraction(0) in values
        assert any(v != 0 for v in values)
        assert all(v.denominator <= 8 for v in values)
