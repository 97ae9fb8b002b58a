"""Exact points on torus skeletons.

A circle coordinate is a rational number of turns in [0, 1), kept as an
exact Fraction so that equality with the basepoint (and between endpoints)
is decidable.  A skeleton point is a tuple of n-1 such coordinates with at
most r-1 of them away from the basepoint, optionally paired with one more
free circle coordinate for the product space.
"""

from __future__ import annotations

import functools
import math
import random
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .algebra import shown

_TURN_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class Turn:
    """Point of the circle measured in exact fractions of a full revolution.

    The value is normalised into [0, 1).  Only an int or a Fraction is
    taken, and floats are rejected by name, so the basepoint test and
    endpoint-agreement tests stay decidable; use parse() for the "p/q"
    command-line syntax.  A Turn holds only its reduced
    numerator and denominator, num and den, as plain ints: equality,
    hashing, the basepoint test and gaps never go through Fraction, and
    value builds the Fraction on demand.  Turns are never mutated and have
    no arithmetic; Turn.of builds the Turn of an integer ratio.
    """

    __slots__ = ("num", "den")

    def __init__(self, value=0):
        if type(value) is not Fraction:
            if isinstance(value, float):
                raise TypeError("turns must be exact rationals, not floats")
            if not isinstance(value, (int, Fraction)):
                hint = "; Turn.parse reads text like 3/4" if isinstance(value, str) else ""
                raise TypeError(f"Turn takes an int or a Fraction, not {type(value).__name__}{hint}")
            value = Fraction(value)
        p, q = value.as_integer_ratio()
        # p mod q stays coprime to q
        self.num, self.den = p % q, q

    @classmethod
    def of(cls, p: int, q: int) -> "Turn":
        """The Turn p/q mod 1, for ints p and q > 0 in any common scale."""
        p %= q
        g = math.gcd(p, q)
        turn = object.__new__(cls)
        turn.num, turn.den = p // g, q // g
        return turn

    @classmethod
    def parse(cls, text: str) -> "Turn":
        text = text.strip()
        if not _TURN_RE.match(text):
            raise ValueError(f"expected an exact rational like 3/4 or 0, got {shown(text)}")
        try:
            return cls(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {shown(text)}") from None
        except ValueError:
            # the text matched, so only the interpreter's digit limit is left;
            # its message would name sys.set_int_max_str_digits()
            raise ValueError(f"numerators and denominators must have at most "
                             f"{sys.get_int_max_str_digits()} digits") from None

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def ccw_gap(self, other: "Turn") -> tuple[int, int]:
        """Counterclockwise distance from self to other, in [0, 1), as a
        numerator and denominator (num, den), not necessarily reduced: the
        two points are antipodes exactly when 2 * num == den.  It is the
        travel without shorter_arc."""
        return self.travel(other)

    def travel(self, other: "Turn", shorter_arc: bool = False) -> tuple[int, int]:
        """Signed travel from self to other, as ccw_gap's (num, den): the
        counterclockwise gap, or with shorter_arc the shorter arc, less one
        turn past a half turn, so exact antipodes travel half a turn
        counterclockwise.  CoordinateRule reads it, and the verifier through
        ccw_gap; the planner's base rules take the same gap inline."""
        p, q, p2, q2 = self.num, self.den, other.num, other.den
        den = q * q2
        num = (p2 * q - p * q2) % den
        return (num - den if shorter_arc and 2 * num > den else num), den

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Turn):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __float__(self) -> float:
        # the correctly rounded quotient, as float(self.value) computes it
        return self.num / self.den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Turn({self})"


class SkeletonPoint(namedtuple("_PointFields", "base circle", defaults=(None,))):
    """A tuple of base circle coordinates, plus an optional free circle factor.

    base holds the n-1 coordinates of the subtorus union; circle, when
    present, is the extra factor of the product space.  Coordinate labels
    are 1-based: base[j-1] is the coordinate with label j.  Coordinates are
    exact Turns; floats appear only in the points PlannerPath.evaluate
    returns strictly inside a travel phase, and a float never equals a Turn.
    """

    __slots__ = ()

    @property
    def has_circle(self) -> bool:
        return self.circle is not None

    def exact_zero_count(self) -> int:
        """Base coordinates exactly at the basepoint (floats never count)."""
        return len([v for v in self.base if isinstance(v, Turn) and not v.num])

    def to_jsonable(self) -> dict:
        return {
            "base": [str(t) for t in self.base],
            "circle": None if self.circle is None else str(self.circle),
        }


# the basepoint, one Turn object shared by sampled points and parked rules
BASEPOINT = Turn(0)


def membership(coords, sig) -> tuple[bool, frozenset[int]]:
    """Whether a coordinate tuple lies on the skeleton, with its support.

    The tuple must have length n-1; the point belongs to the union of
    (r-1)-dimensional coordinate subtori exactly when at most r-1 of its
    coordinates differ from the basepoint.  A coordinate is a Turn, or a
    float from a point PlannerPath.evaluate returns inside a travel phase,
    which counts as off the basepoint, as in exact_zero_count; any other
    type raises TypeError.
    """
    coords = tuple(coords)
    if len(coords) != sig.n - 1:
        raise ValueError(f"expected {sig.n - 1} coordinates, got {len(coords)}")
    try:
        support = frozenset([j for j, t in enumerate(coords, 1) if t.num])
    except AttributeError:
        # only a tuple holding a coordinate that is not a Turn gets here
        for t in coords:
            if not isinstance(t, (Turn, float)):
                raise TypeError(f"coordinates are Turns or floats, not {type(t).__name__}") from None
        support = frozenset([j for j, t in enumerate(coords, 1) if isinstance(t, float) or t.num])
    return len(support) <= sig.r - 1, support


@functools.lru_cache(maxsize=4096)
def _shared_turn(p: int, q: int) -> Turn:
    """The Turn p/q, one object per recently drawn value."""
    return Turn.of(p, q)


def random_turn(rng: random.Random, denominator_bound: int) -> Turn:
    """Uniform choice of denominator q <= bound, then uniform p/q in [0, 1).

    Equal draws return one shared Turn, so a sampled coordinate is reduced
    once and equal coordinates are often the same object, which settles
    equality by identity.  1 + randrange(bound) draws exactly as
    randint(1, bound) does.
    """
    q = 1 + rng.randrange(denominator_bound)
    return _shared_turn(rng.randrange(q), q)


def sample(
    sig,
    rng: random.Random,
    denominator_bound: int = 8,
    with_circle: bool = False,
) -> SkeletonPoint:
    """Random skeleton point: uniform support of size r-1, rational coordinates.

    Coordinates on the chosen support are random rationals with denominator
    at most denominator_bound (they may still land on the basepoint, so the
    realised support can be smaller); all other coordinates are exactly 0.
    """
    if denominator_bound < 2:
        raise ValueError("denominator_bound must be at least 2")
    chosen = rng.sample(range(1, sig.n), sig.r - 1)
    coords = [BASEPOINT] * (sig.n - 1)
    for label in chosen:
        coords[label - 1] = random_turn(rng, denominator_bound)
    circle = random_turn(rng, denominator_bound) if with_circle else None
    return SkeletonPoint(tuple(coords), circle)
