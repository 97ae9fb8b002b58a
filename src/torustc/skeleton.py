"""Exact points on torus skeletons.

A circle coordinate is a rational number of turns in [0, 1), kept as an
exact Fraction so that equality with the basepoint (and between endpoints)
is decidable.  A skeleton point is a tuple of n-1 such coordinates with at
most r-1 of them away from the basepoint, optionally paired with one more
free circle coordinate for the product space.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

_TURN_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class Turn:
    """Point of the circle measured in exact fractions of a full revolution.

    The value is normalised into [0, 1).  Floats are rejected on input so the
    basepoint test and endpoint-agreement tests stay decidable; use parse()
    for the "p/q" command-line syntax.
    """

    __slots__ = ("value",)

    def __init__(self, value=0):
        if type(value) is not Fraction:
            if isinstance(value, float):
                raise TypeError("turns must be exact rationals, not floats")
            value = Fraction(value)
        p, q = value.as_integer_ratio()
        self.value = value if 0 <= p < q else value % 1

    @classmethod
    def parse(cls, text: str) -> "Turn":
        text = text.strip()
        if not _TURN_RE.match(text):
            raise ValueError(f"expected an exact rational like 3/4 or 0, got {text!r}")
        try:
            return cls(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    @property
    def is_zero(self) -> bool:
        return not self.value.numerator

    def ccw_gap(self, other: "Turn") -> Fraction:
        """Counterclockwise distance from self to other, in [0, 1)."""
        p, q = self.value.as_integer_ratio()
        p2, q2 = other.value.as_integer_ratio()
        den = q * q2
        return Fraction((p2 * q - p * q2) % den, den)

    def circle_distance(self, other: "Turn") -> Fraction:
        """Length of the shorter arc between the two points, in [0, 1/2]."""
        gap = self.ccw_gap(other)
        return min(gap, 1 - gap)

    def basepoint_distance(self) -> Fraction:
        """Shorter-arc distance to the basepoint 0."""
        return min(self.value, 1 - self.value)

    def __add__(self, other):
        if isinstance(other, Turn):
            return Turn(self.value + other.value)
        if isinstance(other, (Fraction, int)):
            return Turn(self.value + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Fraction, int)):
            return Turn(self.value - other)
        return NotImplemented

    def __neg__(self):
        return Turn(-self.value)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Turn):
            return self.value.as_integer_ratio() == other.value.as_integer_ratio()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Turn, self.value))

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Turn({self.value})"


@dataclass(frozen=True)
class SkeletonPoint:
    """A tuple of base circle coordinates, plus an optional free circle factor.

    base holds the n-1 coordinates of the subtorus union; circle, when
    present, is the extra factor of the product space.  Coordinate labels
    are 1-based: base[j-1] is the coordinate with label j.
    """

    base: tuple[Turn, ...]
    circle: Turn | None = None

    @property
    def has_circle(self) -> bool:
        return self.circle is not None

    def support(self) -> frozenset[int]:
        """Labels of the coordinates away from the basepoint."""
        return frozenset(j + 1 for j, t in enumerate(self.base) if not t.is_zero)

    def coordinate(self, label: int) -> Turn:
        return self.base[label - 1]

    def to_jsonable(self) -> dict:
        return {
            "base": [str(t) for t in self.base],
            "circle": None if self.circle is None else str(self.circle),
        }

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.base)
        if self.circle is None:
            return f"({inner})"
        return f"(circle={self.circle}; {inner})"


_BASEPOINT = Turn(0)


def membership(coords, sig) -> tuple[bool, frozenset[int]]:
    """Whether a coordinate tuple lies on the skeleton, with its support.

    The tuple must have length n-1; the point belongs to the union of
    (r-1)-dimensional coordinate subtori exactly when at most r-1 of its
    coordinates differ from the basepoint.
    """
    coords = tuple(coords)
    if len(coords) != sig.n - 1:
        raise ValueError(f"expected {sig.n - 1} coordinates, got {len(coords)}")
    support = frozenset(j + 1 for j, t in enumerate(coords) if not t.is_zero)
    return len(support) <= sig.r - 1, support


def is_member(point: SkeletonPoint, sig) -> bool:
    ok, _ = membership(point.base, sig)
    return ok


@functools.lru_cache(maxsize=4096)
def _shared_turn(p: int, q: int) -> Turn:
    return Turn(Fraction(p, q))


def random_turn(rng: random.Random, denominator_bound: int) -> Turn:
    """Uniform choice of denominator q <= bound, then uniform p/q in [0, 1).

    Equal draws return one shared Turn (Turns are never mutated), so a
    sampled coordinate costs no Fraction normalisation once seen.
    """
    q = rng.randint(1, denominator_bound)
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
    coords = [_BASEPOINT] * (sig.n - 1)
    for label in chosen:
        coords[label - 1] = random_turn(rng, denominator_bound)
    circle = random_turn(rng, denominator_bound) if with_circle else None
    return SkeletonPoint(tuple(coords), circle)
