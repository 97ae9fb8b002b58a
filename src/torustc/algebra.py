"""Exact integer arithmetic in a truncated exterior algebra and its tensor square.

The space being modelled is the product of a circle with the union of all
(r-1)-dimensional coordinate subtori inside an (n-1)-torus.  Its cohomology
is an exterior algebra on degree-one generators e0, e1, ..., e{n-1} subject
to one truncation rule: any monomial containing r or more generators drawn
from e1..e{n-1} vanishes.  The circle generator e0 is never truncated.

All coefficients are integers.  The nonvanishing certificates produced here
only ever need coefficients in {-1, +1}, and a nonzero integer combination
stays nonzero over every field of characteristic zero, so integer arithmetic
is enough to certify the topological lower bounds downstream.

Monomials are plain int bit sets, bit i set meaning generator e_i is
present, both as the keys an element is built from and in the terms it
yields; a tensor term is a pair of them.  The sign of a product a*b is the
parity of the pairs (x in a, y in b) with x > y.  It is read off one mask
per right factor b, the positions that have an odd number of b's bits below
them: the sign is the parity of a's bits in that mask, one popcount per
pair.  The tensor square is the exterior algebra on 2n generators,
truncated per leg: a term a (x) b is the bit set a | (b << n), and shares
every ring operation with the algebra itself.  The multiplication map
a (x) b -> a*b is that same product too, taken one term at a time, so the
product loop in AlgebraElement.__mul__ is the only place a sign is counted,
and AlgebraSignature._leg_masks the only statement of the truncation rule.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator


class InvalidSignature(ValueError):
    """Raised when (n, r) does not satisfy 1 <= r <= n."""


class CertificateFailure(RuntimeError):
    """Raised when a claimed nonvanishing certificate turns out to be zero."""


class InstanceTooLarge(ValueError):
    """Raised when a search is asked to run past its configured size cap."""


# zdcl_brute_force refuses a larger n, whatever r.  Its cost follows r far
# more than n: in process on a 2-core x86-64 VM (median of 5 runs), (8, 7)
# takes 0.19 s and (8, 8) 0.48 s, while past the limit (30, 3) would take
# 6 ms, (9, 7) 0.30 s and (10, 8) 1.8 s
BRUTE_FORCE_MAX_N = 8
SLICE_TERM_CAP = 200_000
# zdcl_degree_one refuses a chain product whose terms times their 2n-bit
# packed keys would pass this many bits, so its memory stays bounded for
# every n; SLICE_TERM_CAP is the tighter limit up to n = 160
CHAIN_KEY_BIT_CAP = 64_000_000


def shown(value: int | str) -> str:
    """value as an error message repeats it: the digits of an int, the repr
    of a string.  Past 40 characters only the first 12 and the length are
    shown, so an argument thousands of digits long is not echoed whole.  An
    int past the interpreter's limit for converting it to digits is shown by
    its bit length, with no conversion."""
    try:
        text = repr(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
    if len(text) <= 40:
        return text
    if isinstance(value, str):
        return f"{text[:12]}... ({len(value)} characters)"
    return f"{text[:12]}... ({len(text) - (value < 0)} digits)"


class _LegMasks:
    """AlgebraSignature._leg_masks, (left, right, cap): a packed term
    survives when neither (bits & left) nor (bits & right) has more than cap
    bits.  left holds the positive generators e1..e{n-1}, right the same
    shifted into the second tensor leg; an algebra key never reaches the
    right mask.

    Built on a signature's first read and kept in its instance dict, which
    every later read finds before this descriptor, as with
    functools.cached_property; that one takes a lock on each first read
    (Python 3.11), and every row of tc builds a new signature.  Built
    lazily, so a signature whose n has thousands of digits costs no shift
    until a product or fits needs one."""

    def __get__(self, sig, owner=None):
        if sig is None:
            return self
        left = (1 << sig.n) - 2
        masks = sig.__dict__["_leg_masks"] = (left, left << sig.n, sig.r - 1)
        return masks


class AlgebraSignature(collections.namedtuple("_SignatureFields", "n r")):
    """Ambient parameters: n generators overall, subtorus dimension r-1.

    n counts the degree-one generators e0..e{n-1}; r-1 is the largest number
    of generators from e1..e{n-1} that a surviving monomial may contain.  A
    signature is a named tuple, equal to the plain tuple (n, r); _replace
    and _make go through the constructor, so its checks always hold.
    """

    def __new__(cls, n: int, r: int):
        # operator.index refuses a float or a string, as element keys do, so
        # no (4.0, 2) signature builds and then fails inside a shift
        n, r = operator.index(n), operator.index(r)
        if r < 1 or n < r:
            why = "r must be at least 1" if r < 1 else "r exceeds n"
            raise InvalidSignature(f"invalid signature (n={shown(n)}, r={shown(r)}): {why}")
        return tuple.__new__(cls, (n, r))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    _leg_masks = _LegMasks()

    def fits(self, bits: int) -> bool:
        """True when the bit-set monomial survives in this algebra."""
        left, _, cap = self._leg_masks
        return 0 <= bits < (1 << self.n) and (bits & left).bit_count() <= cap

    def basis_bits(self):
        """All surviving monomials as bit sets, grouped by positive part."""
        for k in range(self.r):
            for combo in itertools.combinations(range(1, self.n), k):
                m = 0
                for i in combo:
                    m |= 1 << i
                yield m
                yield m | 1


def _indices(bits: int) -> tuple[int, ...]:
    """The generator indices of a bit-set monomial, in increasing order.  A
    negative int has no finite bit set, so it raises ValueError."""
    if bits < 0:
        raise ValueError(f"a bit-set monomial is a nonnegative int, got {shown(bits)}")
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _monomial(bits: int) -> str:
    """A bit-set monomial in print: e0*e2, or 1 when it is empty."""
    return "*".join(f"e{i}" for i in _indices(bits)) or "1"


def _odd_below(b: int) -> int:
    """The positions that have an odd number of b's bits below them.

    The XOR of -(low << 1), all positions above low, over every bit low of
    b.  The mask is negative exactly when b has odd degree.  For a disjoint
    from b, (a & mask).bit_count() has the parity of the pairs (x in a,
    y in b) with x > y, so it gives the Koszul sign of the product a*b.
    """
    mask = 0
    while b:
        low = b & -b
        mask ^= -(low << 1)
        b ^= low
    return mask


class AlgebraElement:
    """Sparse integer combination of surviving monomials of one algebra.

    Terms whose monomial dies under the truncation rule are identically zero
    and are dropped on construction; an out-of-range generator index is an
    error rather than a zero.  Keys are bit-set monomials and, like the
    coefficients, must be integers: anything else raises TypeError, so no
    float or Fraction enters the exact arithmetic.
    """

    __slots__ = ("sig", "_terms")

    def __init__(self, sig: AlgebraSignature, terms=None):
        left, right, cap = sig._leg_masks
        clean: dict[int, int] = {}
        for key, coeff in (terms or {}).items():
            bits = self._pack(sig, key)
            # operator.index refuses a float or Fraction coefficient
            if operator.index(coeff) and ((bits & left).bit_count() <= cap
                                          and (bits & right).bit_count() <= cap):
                clean[bits] = clean.get(bits, 0) + coeff
        self.sig = sig
        self._terms = {b: c for b, c in clean.items() if c}

    @staticmethod
    def _pack(sig, key) -> int:
        """The bit set of one constructor key; out-of-range generators raise."""
        # operator.index takes ints only, where int() would truncate 1.7 or parse "2"
        bits = operator.index(key)
        if bits < 0 or bits >= (1 << sig.n):
            raise ValueError(f"generator index out of range for n={sig.n}")
        return bits

    @classmethod
    def _raw(cls, sig, terms: dict[int, int]) -> "AlgebraElement":
        # internal fast path: terms must already be canonical for sig
        out = object.__new__(cls)
        out.sig = sig
        out._terms = terms
        return out

    @classmethod
    def zero(cls, sig) -> "AlgebraElement":
        return cls._raw(sig, {})

    @classmethod
    def one(cls, sig) -> "AlgebraElement":
        return cls._raw(sig, {0: 1})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self):
        """Pairs (bits, coefficient) sorted by degree then bit pattern."""
        for bits in sorted(self._terms, key=lambda b: (b.bit_count(), b)):
            yield bits, self._terms[bits]

    def total_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({b.bit_count() for b in self._terms}))

    def _check_mate(self, other):
        if type(other) is not type(self) or (other.sig is not self.sig and self.sig != other.sig):
            raise ValueError("elements live in different algebras")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    def __add__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self._terms)
        for b, c in other._terms.items():
            s = out.get(b, 0) + c
            if s:
                out[b] = s
            elif b in out:
                del out[b]
        return self._raw(self.sig, out)

    def __neg__(self) -> "AlgebraElement":
        return self._raw(self.sig, {b: -c for b, c in self._terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "AlgebraElement":
        sig = self.sig
        if type(other) is not type(self) or other.sig is not sig:
            if isinstance(other, int):
                if other == 0:
                    return self.zero(sig)
                return self._raw(sig, {b: other * c for b, c in self._terms.items()})
            if not isinstance(other, AlgebraElement):
                return NotImplemented
            self._check_mate(other)
        left, right, cap = sig._leg_masks
        out: dict[int, int] = {}
        get = out.get
        terms = self._terms.items()
        # the right operand is the small one in every search, so each of its
        # terms builds its sign mask once and meets every left term inline;
        # left terms already fit, so only a leg the right term adds positive
        # generators to can overflow, and a term with one such leg (every
        # zero-divisor term) needs one count
        for bb, bc in other._terms.items():
            # _odd_below's one-bit case inline: a lone bit low gives
            # -(low << 1), and 0 gives 0; every certificate factor and chain
            # zero-divisor term is one bit
            odd = _odd_below(bb) if bb & (bb - 1) else -(bb << 1)
            leg = left if bb & left else right
            both = bb & left and bb & right
            for ab, ac in terms:
                if ab & bb:
                    continue
                bits = ab | bb
                if (bits & leg).bit_count() > cap or both and (bits & right).bit_count() > cap:
                    continue
                s = get(bits, 0) + (-ac * bc if (ab & odd).bit_count() & 1 else ac * bc)
                if s:
                    out[bits] = s
                elif bits in out:
                    del out[bits]
        prod = object.__new__(type(self))
        prod.sig = sig
        prod._terms = out
        return prod

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        # one leg for an algebra term, two for a tensor term
        for *legs, coeff in self.terms():
            body = " (x) ".join(map(_monomial, legs))
            if coeff == 1:
                parts.append(f"+ {body}")
            elif coeff == -1:
                parts.append(f"- {body}")
            elif coeff > 0:
                parts.append(f"+ {coeff}*{body}")
            else:
                parts.append(f"- {-coeff}*{body}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


class TensorElement(AlgebraElement):
    """Sparse integer element of (algebra tensor algebra) for one signature.

    The tensor square of the exterior algebra on e0..e{n-1} is the exterior
    algebra on 2n generators, truncated per leg.  A term a (x) b is stored as
    the packed bit set a | (b << n): left-leg e_i is bit i, right-leg e_i is
    bit n+i.  Every right-leg bit lies above every left-leg bit, so the sign
    of merging two packed keys already carries the crossing sign, (-1) raised
    to |b1|*|a2|, and the ring operations are inherited unchanged.  Only the
    key packing and the pair-shaped views differ; sig stays the signature
    of one leg.
    """

    __slots__ = ()

    @staticmethod
    def _pack(sig, key) -> int:
        left, right = key
        return AlgebraElement._pack(sig, left) | AlgebraElement._pack(sig, right) << sig.n

    def coefficient(self, left, right) -> int:
        """The coefficient of the term left (x) right, given as two bit sets."""
        a, b = operator.index(left), operator.index(right)
        if a >> self.sig.n:
            return 0
        return self._terms.get(a | b << self.sig.n, 0)

    def terms(self):
        """Triples (left_bits, right_bits, coefficient) sorted by total
        degree, left degree, left bits, then right bits."""
        n = self.sig.n
        low = (1 << n) - 1

        def sort_key(p):
            return (p.bit_count(), (p & low).bit_count(), p & low, p >> n)

        for p in sorted(self._terms, key=sort_key):
            yield p & low, p >> n, self._terms[p]


def zero_divisor(sig: AlgebraSignature, i: int) -> TensorElement:
    """1 (x) e_i - e_i (x) 1, the canonical zero-divisor of generator i.

    Zero as an element exactly when e_i itself dies (r = 1 and i >= 1).
    """
    if not 0 <= i < sig.n:
        raise ValueError(f"generator index {i} out of range for n={sig.n}")
    bits = 1 << i
    if not sig.fits(bits):
        return TensorElement.zero(sig)
    return TensorElement._raw(sig, {bits << sig.n: 1, bits: -1})


def apply_multiplication_map(x: TensorElement) -> AlgebraElement:
    """Multiply the two tensor legs together: a (x) b maps to a*b.

    Each term c a (x) b is the algebra product of the one-term elements
    c a and b, so its Koszul sign and its truncation are those of
    AlgebraElement.__mul__; the map is the sum of these products, added
    into one table so the cost stays linear in the terms.  Its kernel is
    the ideal of zero-divisors.
    """
    if type(x) is not TensorElement:
        raise ValueError("the multiplication map takes an element of the tensor square")
    sig = x.sig
    n = sig.n
    low = (1 << n) - 1
    raw = AlgebraElement._raw
    out = collections.Counter()
    for p, c in x._terms.items():
        out.update((raw(sig, {p & low: c}) * raw(sig, {p >> n: 1}))._terms)
    return raw(sig, {bits: c for bits, c in out.items() if c})


class LowerBoundCertificate(collections.namedtuple("_CertificateFields", (
        "sig k index_set factor_count component_bidegree expected_terms witness"))):
    """Witness that a product of factor_count zero-divisors is nonzero.

    One exact coefficient proves it: witness is the (left_bits, right_bits,
    coefficient) term of the product at left = e0 times the first r-1
    chosen generators, right = the remaining chosen generators, and the
    sample_term property prints it, as in +e0*e1 (x) e2.  That pair lies in
    the bidegree (r, k+1-r) slice, where every coefficient is +1 or -1 and
    the number of terms has the closed form expected_terms.  The slice is
    expanded only when component or component_terms is first read.
    """

    @property
    def sample_term(self) -> str:
        """The witness in print, as in +e0*e1 (x) e2 or -e0 (x) 1."""
        left, right, coeff = self.witness
        sign = "+" if coeff > 0 else "-"
        size = abs(coeff) if abs(coeff) != 1 else ""
        return f"{sign}{size}{_monomial(left)} (x) {_monomial(right)}"

    @functools.cached_property
    def component(self) -> TensorElement:
        """The checked bidegree slice of the product, coefficient for coefficient.

        Every term of a zero-divisor adds one generator to exactly one leg,
        so leg degrees only grow along the product.  After each factor the
        terms whose left degree exceeds r or whose right degree exceeds
        k+1-r are dropped: they can never reach the slice, and no kept term
        shares their key.  After all k+1 factors every term has total degree
        k+1, so what is left is exactly the slice.  Raises InstanceTooLarge
        when the slice would have more than SLICE_TERM_CAP terms; the message
        does not print the count, which can pass Python's 4,300-digit limit
        on int-to-string conversion.
        """
        sig = self.sig
        if self.expected_terms > SLICE_TERM_CAP:
            raise InstanceTooLarge(
                f"bidegree {self.component_bidegree} slice for n={sig.n}, r={sig.r} "
                f"has more than SLICE_TERM_CAP = {SLICE_TERM_CAP} terms; expansion is capped there"
            )
        n = sig.n
        low = (1 << n) - 1
        left_cap, right_cap = self.component_bidegree

        def prune(x: TensorElement) -> TensorElement:
            return TensorElement._raw(sig, {
                p: c for p, c in x._terms.items()
                if (p & low).bit_count() <= left_cap and (p >> n).bit_count() <= right_cap})

        out = prune(zero_divisor(sig, 0))
        for i in self.index_set:
            out = prune(out * zero_divisor(sig, i))
        return out

    @property
    def component_terms(self) -> int:
        return len(self.component)


# a certificate from its seven fields, in order
_new_certificate = functools.partial(tuple.__new__, LowerBoundCertificate)


def lower_bound_certificate(sig: AlgebraSignature, index_set=None) -> LowerBoundCertificate:
    """Certify the longest guaranteed-nonzero product of generator zero-divisors.

    The product multiplies the circle zero-divisor by the zero-divisors of
    k = min(n-1, 2r-2) distinct positive generators, each index read with
    operator.index.  Nonvanishing is proved by one coefficient, at left =
    e0 times the first r-1 chosen generators and right = the other k+1-r.
    Every term of a zero-divisor adds one generator to exactly one leg, and
    legs only grow, so a term of the product whose left leg is not inside
    that left, or whose right leg is not inside that right, can never reach
    the pair.  Each generator has one allowed leg, so of each factor
    1 (x) e_i - e_i (x) 1 only the term on that leg can contribute: -e_i (x) 1
    for an index on the left, 1 (x) e_i for one on the right.  The product
    starts from -e0 (x) 1 and multiplies by those terms, so each of its k
    products is one term times one term, and what is left at the end is the
    product's exact coefficient at the pair.  Raises CertificateFailure if
    it is zero, which would falsify the certified lower bound.
    """
    k = min(sig.n - 1, 2 * sig.r - 2)
    if index_set is None:
        indices = tuple(range(1, k + 1))
    else:
        # operator.index refuses a float and reads True as 1, as the
        # signature's own fields do
        indices = tuple(sorted(map(operator.index, index_set)))
        if len(indices) != k:
            raise ValueError(f"certificate index set must have size {k} for this "
                             f"signature, got {len(indices)}")
        if len(set(indices)) != len(indices):
            raise ValueError("certificate index set has repeats")
        if any(not 1 <= i <= sig.n - 1 for i in indices):
            raise ValueError(f"certificate indices must lie in 1..{sig.n - 1}")

    n, split = sig.n, sig.r - 1
    left, right = 1, 0
    found = TensorElement._raw(sig, {1: -1})
    # the indices are distinct, so each mask is the union of its bits
    for j, i in enumerate(indices):
        if j < split:
            left |= 1 << i
            found = found * TensorElement._raw(sig, {1 << i: -1})
        else:
            right |= 1 << i
            found = found * TensorElement._raw(sig, {1 << i << n: 1})
    coeff = found._terms.get(left | right << n, 0)
    if not coeff:
        raise CertificateFailure(
            f"zero-divisor product for n={n}, r={sig.r} has coefficient 0 at "
            f"{_monomial(left)} (x) {_monomial(right)}; certificate does not hold"
        )
    return _new_certificate((sig, k, indices, k + 1, (sig.r, k - split), math.comb(k, split),
                             (left, right, coeff)))


def zdcl_degree_one(sig: AlgebraSignature) -> int:
    """The zero-divisor cup-length: the longest nonzero product of distinct
    generator zero-divisors, found along one chain of them.

    The algebra is generated in degree one, so the kernel of the
    multiplication map is the ideal generated by the generator
    zero-divisors 1 (x) e_i - e_i (x) 1, and each of them squares to zero.
    A product of zero-divisors is therefore nonzero exactly when some
    product of as many distinct generator zero-divisors is (Farber and
    Yuzvinsky 2004).  Permuting e1..e{n-1} keeps the truncation and maps
    such a product to plus or minus another, and sub-products of a nonzero
    product are nonzero.  A nonzero product P of zero-divisors of e_i with
    i >= 1 stays nonzero times that of e0: e0 is never truncated and lies
    in neither leg of P's terms, so P's terms go one-to-one onto two
    disjoint sets of surviving terms.  So the chain e0, e1, e2, ...
    stands for every subset, and the answer is the number of its factors
    before the product vanishes, at most n.

    Nothing cancels in a chain product: each of its terms puts every
    factor's generator on one leg, so the product through e_j has
    2 * sum C(j, a) terms over max(0, j-r+1) <= a <= min(j, r-1).  Every
    such count is checked against the chain's limit before any product is
    formed, and the first one over it raises InstanceTooLarge.  The limit
    is SLICE_TERM_CAP terms, or fewer when their 2n-bit keys would pass
    CHAIN_KEY_BIT_CAP bits.
    """
    n, r = sig.n, sig.r
    limit = min(SLICE_TERM_CAP, CHAIN_KEY_BIT_CAP // (2 * n))
    for j in range(min(n, 2 * r - 1)):
        size = 2 * sum(math.comb(j, a) for a in range(max(0, j - r + 1), min(j, r - 1) + 1))
        if size > limit:
            cap = (f"{SLICE_TERM_CAP} terms" if limit == SLICE_TERM_CAP else
                   f"CHAIN_KEY_BIT_CAP = {CHAIN_KEY_BIT_CAP} key bits, {limit} terms "
                   f"of {shown(2 * n)} bits")
            raise InstanceTooLarge(
                f"zero-divisor chain for (n, r) = ({shown(n)}, {shown(r)}) would reach "
                f"{size} terms; chain products are capped at {cap}"
            )
    prod = TensorElement.one(sig)
    for i in range(n):
        prod = prod * zero_divisor(sig, i)
        if prod.is_zero:
            return i
    return n


def _leg_room(prod: TensorElement) -> tuple[int, int]:
    """(meet, room) of a nonzero product of basis zero-divisors: the AND of
    its packed terms, whose low n bits are the AND of its left legs, and
    r-1 minus the fewest positive generators any left leg holds.

    The flip a (x) b -> (-1)^(|a||b|) b (x) a is a ring automorphism of the
    tensor square, and it negates every 1 (x) a - a (x) 1, so it maps such a
    product to plus or minus itself: its right legs are its left legs, and
    the summary holds for them too.  Times 1 (x) a - a (x) 1, each term gets
    a on one leg or the other.  When a meets meet, or its g positive
    generators exceed room, a dies on every leg of every term, by overlap
    or by truncation, so the product is zero with nothing left to cancel.
    """
    keys = prod._terms.keys()
    left, _, cap = prod.sig._leg_masks
    fewest = min(map(int.bit_count, map(left.__and__, keys)))
    return functools.reduce(operator.and_, keys), cap - fewest


class ZdclSearchReport(collections.namedtuple(
        "_ReportFields", "sig searched_length certified_minimum witness")):
    """Outcome of the brute-force zero-divisor cup-length search.

    searched_length is the longest nonzero product found over the full
    spanning family of basis zero-divisors with repetition allowed.  The
    algebra is generated in degree one, so this is the cup-length that
    zdcl_degree_one computes from one chain; the search only cross-checks
    it.  certified_minimum = min(n, 2r-1) is the factor count of the
    certificate's nonzero product; each generator zero-divisor puts its
    generator on one leg, so no product of more distinct ones survives.
    """

    __slots__ = ()


def zdcl_brute_force(sig: AlgebraSignature) -> ZdclSearchReport:
    """Cross-check zdcl_degree_one over the full spanning family of basis
    zero-divisors.

    Every zero-divisor of the tensor square is an algebra combination of
    a-bar = 1 (x) a - a (x) 1 for positive-degree basis monomials a, so the
    longest nonzero product over that family (repetition allowed; a-bar
    squares to -2 a (x) a for even-degree a, so repeats matter) is the
    cup-length, found without the degree-one lemma that zdcl_degree_one
    rests on; the two must agree.  Factors commute up to sign, hence
    non-decreasing multisets suffice, and total degree is capped by 2r, the
    top of the tensor square.

    The family is ordered by degree, then index tuple, and the search visits
    one factor per orbit of the permutations of e1..e{n-1} that fix every
    factor chosen so far.  Those permutations shuffle each cell of indices
    lying in exactly the same chosen monomials, so a candidate is kept only
    when, within every cell, it uses the cell's lowest indices.  Moving a
    factor to that form moves the sequence earlier in family order, so the
    first longest sequence, which is the reported witness, is always kept.

    Most products in the search are zero with nothing cancelling: every
    contribution dies by overlap or truncation.  Each node summarises its
    product once (_leg_room) and skips, before any product, a candidate
    that meets every left leg or has more positive generators than any
    left leg has room for.  Products of a-bars map to plus or minus
    themselves under the flip of the legs, so the left legs speak for the
    right ones, and such a candidate dies on every leg of every term.  A
    skipped product is a zero product, so the visit order and the report
    are unchanged.

    At a node whose product has length factors of total degree used, the
    loop over candidates stops at the first one, of degree deg, that cannot
    lead past best_len, the longest product found so far.  Every later
    candidate has degree at least deg, and a nonzero product has total
    degree at most 2r, so this candidate and every later one lead to at
    most length + (2r - used) // deg factors; the loop stops when that is
    at most best_len, as it is for a candidate that passes 2r on its own,
    since best_len >= length.  best_len grows only on a strictly longer
    product, and a stopped subtree holds nothing longer than best_len, so
    no product of the final length is lost before the first one in visit
    order, the witness, is found: the report is the one the search gives
    without the stop.  At (5, 5) the search forms 331 products; it forms
    832 without the skip, 1,073 without the stop and 3,561 with neither.

    Cost grows quickly with r and n; instances with n > BRUTE_FORCE_MAX_N
    raise InstanceTooLarge.
    """
    if sig.n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(f"brute-force search is limited to n <= {BRUTE_FORCE_MAX_N}; "
                               f"got n = {sig.n}")
    family = []
    for bits in sig.basis_bits():
        if bits == 0:
            continue
        bar = TensorElement._raw(sig, {bits << sig.n: 1, bits: -1})
        family.append((bits.bit_count(), _indices(bits), bits, (bits & ~1).bit_count(),
                       _monomial(bits), bar))
    family.sort(key=lambda t: t[:2])

    budget = 2 * sig.r
    best_len = 0
    best_witness: tuple[str, ...] = ()

    def canonical(bits: int, cells: list[int]) -> bool:
        for cell in cells:
            part = bits & cell
            if part and cell & ~bits & ((1 << part.bit_length()) - 1):
                return False
        return True

    def descend(
        start: int, prod: TensorElement, length: int, used: int, cells: list[int], stack: list[str]
    ):
        nonlocal best_len, best_witness
        if length > best_len:
            best_len = length
            best_witness = tuple(stack)
        meet, room = _leg_room(prod)
        for idx in range(start, len(family)):
            deg, _, bits, g, name, bar = family[idx]
            if length + (budget - used) // deg <= best_len:
                break
            if bits & meet or g > room:
                continue
            if not canonical(bits, cells):
                continue
            p2 = prod * bar
            if p2.is_zero:
                continue
            split = [part for cell in cells for part in (cell & bits, cell & ~bits) if part]
            stack.append(name)
            descend(idx, p2, length + 1, used + deg, split, stack)
            stack.pop()

    descend(0, TensorElement.one(sig), 0, 0, [(1 << sig.n) - 2], [])
    return ZdclSearchReport(
        sig=sig,
        searched_length=best_len,
        certified_minimum=min(sig.n, 2 * sig.r - 1),
        witness=best_witness,
    )
