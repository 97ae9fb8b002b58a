"""Motion-planning complexity bounds for one signature, reconciled exactly.

The lower bound comes from an actual nonzero product of zero-divisors (one
more than the number of factors), not from a closed formula: one exact
coefficient of that product, computed through k products of one term by
one term (of each zero-divisor only the term on the witness's side of it),
proves it nonzero, and no bidegree slice is expanded.  Two upper
bounds face it.  The constructive one counts the planner's continuity
domains (n+1).  The dimension one is Farber's product inequality
TC(S^1 x Y) <= TC(S^1) + TC(Y) - 1, where TC(S^1) = 2 and the skeleton Y
has dimension r-1, so TC(Y) <= 2*dim Y + 1 = 2r-1 and the bound is 2r.
The reconciled value is the minimum of the upper bounds and must equal the
lower bound; any gap raises BoundMismatch.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraSignature, lower_bound_certificate


class BoundMismatch(RuntimeError):
    """Raised when the certified lower bound fails to meet the upper bounds."""


class TcBounds(namedtuple("_BoundsFields", "n r lower upper_constructive upper_dimension tc")):
    """All bounds for one signature, plus the reconciled value."""

    __slots__ = ()

    @property
    def constructive_tight(self) -> bool:
        return self.upper_constructive == self.tc

    def to_jsonable(self) -> dict:
        out = self._asdict()
        out["constructive_tight"] = self.constructive_tight
        return out


def compute_bounds(n: int, r: int) -> TcBounds:
    """Reconciled complexity bounds for signature (n, r).

    The lower bound is certificate-backed: a verified nonzero product of
    min(n, 2r-1) zero-divisors forces at least one more planner domain than
    it has factors.  Raises BoundMismatch when that value fails to meet
    min(n+1, 2r), the smaller of the two upper bounds.
    """
    sig = AlgebraSignature(n, r)
    cert = lower_bound_certificate(sig)
    lower = cert.factor_count + 1
    upper_constructive = n + 1
    # TC(S^1) + TC(Y) - 1, with TC(Y) <= 2*dim Y + 1 for dim Y = r - 1
    upper_dimension = 2 + (2 * (r - 1) + 1) - 1
    tc = min(upper_constructive, upper_dimension)
    if lower != tc:
        raise BoundMismatch(
            f"lower bound {lower} does not meet upper bounds "
            f"min({upper_constructive}, {upper_dimension}) for n={n}, r={r}"
        )
    return TcBounds(
        n=n,
        r=r,
        lower=lower,
        upper_constructive=upper_constructive,
        upper_dimension=upper_dimension,
        tc=tc,
    )
