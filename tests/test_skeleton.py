"""Exact circle coordinates, skeleton membership, and random sampling."""

import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torustc import (AlgebraSignature, PlannerQuery, SkeletonPoint, Turn, membership,
                     plan_skeleton, random_turn, sample)
from torustc.algebra import shown
from torustc.cli import MAX_DENOMINATOR_BOUND
from torustc.skeleton import draw_below, draw_labels

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=64)


class TestTurn:
    def test_normalises_into_unit_interval(self):
        assert Turn(Fraction(5, 4)).value == Fraction(1, 4)
        assert Turn(Fraction(-1, 4)).value == Fraction(3, 4)
        assert Turn(3).value == 0

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="exact rationals"):
            Turn(0.25)

    def test_takes_only_ints_and_fractions(self):
        # Fraction() would read each of these; text goes through Turn.parse,
        # which takes p/q only
        for text in ["0.25", "1e-3", "1_0/3", "1/3", " 1/3 "]:
            with pytest.raises(TypeError, match="Turn.parse"):
                Turn(text)
        for bad in [Decimal("0.25"), None, (1, 3)]:
            with pytest.raises(TypeError, match="an int or a Fraction"):
                Turn(bad)
        assert Turn(Fraction(1, 3)) == Turn.parse("1/3") and Turn(-2) == Turn(True) == Turn(0)

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

    @settings(max_examples=400, deadline=None)
    @given(st.builds("{}{}{}{}{}{}".format, st.sampled_from(["", " ", "\t"]),
                     st.sampled_from(["", "+", "-"]), st.text(st.sampled_from("0"), max_size=3),
                     st.text(st.characters(categories=("Nd",)), min_size=1, max_size=12),
                     st.one_of(st.just(""), st.text(st.characters(categories=("Nd",)), min_size=1,
                                                    max_size=12).map("/".__add__)),
                     st.sampled_from(["", " ", "\n"])))
    @example("-3/00")
    @example("+007/010")
    @example("1/٣")
    @example("1" * 4400)
    @example("1/" + "2" * 4400)
    @example("1" * 4400 + "/0")
    def test_parse_reads_what_fraction_reads(self, text):
        # signed, zero-padded and Unicode-digit text is read as Fraction
        # reads it; a zero denominator and the interpreter's digit limit are
        # refused, in the order Fraction meets them, with their own messages
        try:
            want = Turn(Fraction(text))
        except ZeroDivisionError:
            want = f"zero denominator in {shown(text.strip())}"
        except ValueError:
            want = (f"numerators and denominators must have at most "
                    f"{sys.get_int_max_str_digits()} digits")
        if isinstance(want, Turn):
            assert Turn.parse(text) == want
        else:
            with pytest.raises(ValueError) as refused:
                Turn.parse(text)
            assert str(refused.value) == want

    @settings(max_examples=300, deadline=None)
    @given(rationals, rationals)
    def test_travel_gap_and_distance(self, a, b):
        x, y = Turn(a), Turn(b)
        num, den = x.travel(y)
        assert type(num) is int and type(den) is int
        assert 0 <= num < den
        gap = Fraction(num, den)
        assert Turn(x.value + gap) == y
        assert Fraction(*y.travel(x)) == (1 - gap) % 1
        assert (2 * num == den) == (Turn(x.value + Fraction(1, 2)) == y)

    @settings(max_examples=300, deadline=None)
    @given(rationals)
    def test_basepoint_distance(self, a):
        x = Turn(a)
        assert Fraction(*Turn(0).travel(x)) == x.value
        assert Fraction(*x.travel(Turn(0))) == (1 - x.value) % 1

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
        assert Fraction(*x.travel(y)) == (b - a) % 1

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
    """Turn.of's integer reduction against Fraction arithmetic mod 1; a Turn
    itself has no arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6), st.integers(1, 60))
    def test_of_reduces_any_sign_and_scale(self, p, q, k):
        t = Turn.of(p * k, q * k)
        _reduced_mod_one(t, Fraction(p, q))
        assert t == Turn.of(p, q) and hash(t) == hash(Turn.of(p, q))
        assert Turn.__slots__ == ("num", "den") and not hasattr(t, "__dict__")

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64), st.integers(1, 200).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.integers(2, MAX_DENOMINATOR_BOUND), st.booleans())
    @example(0, (10, 4), 8, False)  # Random.sample's pool branch
    @example(0, (40, 3), 8, True)  # its set branch
    @example(0, (30, 7), 8, False)  # the pool branch, with k > 5 sizing the set
    @example(0, (100, 8), 8, False)  # the set branch with k > 5
    @example(0, (200, 150), MAX_DENOMINATOR_BOUND, True)
    def test_sample_draws_as_random_draws(self, seed, nr, bound, with_circle):
        # sample takes its values from getrandbits, draw for draw as
        # rng.sample picks the support and randint and randrange draw each
        # coordinate, so a seed gives the points it gave through them
        (n, r), sig = nr, AlgebraSignature(*nr)
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            base = [Turn(0)] * (n - 1)
            for label in ref.sample(range(1, n), r - 1):
                q = ref.randint(1, bound)
                base[label - 1] = Turn(Fraction(ref.randrange(q), q))
            circle = None
            if with_circle:
                q = ref.randint(1, bound)
                circle = Turn(Fraction(ref.randrange(q), q))
            assert sample(sig, rng, bound, with_circle) == SkeletonPoint(tuple(base), circle)
            q = ref.randint(1, bound)
            assert random_turn(rng, bound) == Turn(Fraction(ref.randrange(q), q))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("bound", [0, -1])
    def test_random_turn_draws_nothing_below_one(self, bound):
        # randint(1, bound) refuses an empty range; getrandbits(0) would
        # return 0 for ever
        with pytest.raises(ValueError):
            random_turn(random.Random(0), bound)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64), st.integers(1, 10**6))
    @example(0, 1)
    @example(0, 2000)  # a perturbation's shift
    @example(0, 257)  # a grid spot at 256 steps
    def test_draw_below_draws_as_randrange(self, seed, n):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert draw_below(rng, n) == twin.randrange(n)
        assert rng.random() == twin.random()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64), st.integers(1, 200).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    @example(0, (10, 4))  # Random.sample's pool branch
    @example(0, (40, 2))  # its set branch
    @example(0, (30, 6))  # the pool branch, with k > 5 sizing the set
    @example(0, (100, 7))  # the set branch with k > 5
    @example(0, (1, 0))  # no labels at all
    @example(0, (200, 199))  # every label
    def test_draw_labels_draws_as_sample(self, seed, nk):
        (n, k), rng, twin = nk, random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert draw_labels(rng, n, k) == twin.sample(range(1, n), k)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("n, k", [(5, -1), (5, 5), (1, 1), (0, 1), (200, 200), (40, -3)])
    def test_draw_labels_refuses_bad_sizes_before_drawing(self, n, k):
        # Random.sample's refusal, with its message, and nothing drawn
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError) as twin_refused:
            random.Random(3).sample(range(1, n), k)
        with pytest.raises(ValueError) as refused:
            draw_labels(rng, n, k)
        assert str(refused.value) == str(twin_refused.value)
        assert rng.getstate() == state


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

    def test_float_coordinates_count_off_the_basepoint(self):
        # a point evaluate returns inside a travel phase holds floats; they
        # count as off the basepoint, as in exact_zero_count
        sig = AlgebraSignature(3, 2)
        query = PlannerQuery(SkeletonPoint((Turn(Fraction(1, 4)), Turn(0))),
                             SkeletonPoint((Turn(0), Turn(Fraction(1, 3)))))
        mid = plan_skeleton(query, sig).evaluate(Fraction(1, 4))
        assert type(mid.base[0]) is float and mid.exact_zero_count() == 1
        assert membership(mid.base, sig) == (True, frozenset({1}))
        assert membership((0.0, Turn(0)), sig) == (True, frozenset({1}))
        assert membership((Turn(Fraction(1, 2)), 0.5), sig) == (False, frozenset({1, 2}))

    @pytest.mark.parametrize("value", [0, Fraction(1, 2), Decimal("0.5"), "1/2", None],
                             ids=["int", "fraction", "decimal", "str", "none"])
    def test_other_coordinates_raise_by_name(self, value):
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            membership((Turn(0), value), AlgebraSignature(3, 2))
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            membership((0.25, value), AlgebraSignature(3, 2))

    def test_point_helpers(self):
        p = SkeletonPoint((Turn(0), Turn(Fraction(1, 5))), Turn(Fraction(1, 2)))
        assert p.circle is not None
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
                assert p.circle is None
                assert all(t.value.denominator <= 8 for t in p.base)

    def test_with_circle(self):
        rng = random.Random(43)
        p = sample(AlgebraSignature(3, 2), rng, with_circle=True)
        assert p.circle is not None

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
