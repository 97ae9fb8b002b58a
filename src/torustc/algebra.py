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

Monomials are stored as bit sets (bit i set means generator e_i is present).
The sign of a product a*b is the parity of the pairs (x in a, y in b) with
x > y.  It is read off one mask per right factor b, the positions that have
an odd number of b's bits below them: the sign is the parity of a's bits in
that mask, one popcount per pair.  The tensor square is the exterior
algebra on 2n generators, truncated per leg: a term a (x) b is the bit set
a | (b << n), and shares every ring operation with the algebra itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass


class InvalidSignature(ValueError):
    """Raised when (n, r) does not satisfy 1 <= r <= n."""


class CertificateFailure(RuntimeError):
    """Raised when a claimed nonvanishing certificate turns out to be zero."""


class InstanceTooLarge(ValueError):
    """Raised when a search is asked to run past its configured size cap."""


DEFAULT_BRUTE_FORCE_CAP = 4
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


@dataclass(frozen=True)
class AlgebraSignature:
    """Ambient parameters: n generators overall, subtorus dimension r-1.

    n counts the degree-one generators e0..e{n-1}; r-1 is the largest number
    of generators from e1..e{n-1} that a surviving monomial may contain.
    """

    n: int
    r: int

    def __post_init__(self):
        if self.r < 1 or self.n < self.r:
            why = "r must be at least 1" if self.r < 1 else "r exceeds n"
            raise InvalidSignature(
                f"invalid signature (n={shown(self.n)}, r={shown(self.r)}): {why}")

    def fits(self, bits: int) -> bool:
        """True when the bit-set monomial survives in this algebra."""
        return 0 <= bits < (1 << self.n) and (bits & ~1).bit_count() <= self.r - 1

    def basis_bits(self):
        """All surviving monomials as bit sets, grouped by positive part."""
        for k in range(self.r):
            for combo in itertools.combinations(range(1, self.n), k):
                m = 0
                for i in combo:
                    m |= 1 << i
                yield m
                yield m | 1


@dataclass(frozen=True)
class ExteriorMonomial:
    """Square-free product of generators, stored as an index bit set."""

    bits: int = 0

    @classmethod
    def from_indices(cls, indices) -> "ExteriorMonomial":
        bits = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"negative generator index {i}")
            if (bits >> i) & 1:
                raise ValueError(f"repeated generator index {i}")
            bits |= 1 << i
        return cls(bits)

    @property
    def degree(self) -> int:
        return self.bits.bit_count()

    @property
    def indices(self) -> tuple[int, ...]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    def __str__(self) -> str:
        if not self.bits:
            return "1"
        return "*".join(f"e{i}" for i in self.indices)


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


def _merge(a: int, b: int) -> tuple[int, int]:
    """Sign and union for the concatenation of two bit-set monomials.

    Returns (0, 0) when the sets share a generator.  The sign is the parity
    of the number of pairs (x in a, y in b) with x > y, which is exactly the
    number of transpositions needed to sort the concatenated index list; it
    is the parity of a's bits in the mask _odd_below(b).
    """
    if a & b:
        return 0, 0
    return (-1 if (a & _odd_below(b)).bit_count() & 1 else 1), a | b


def _as_bits(key) -> int:
    return key.bits if isinstance(key, ExteriorMonomial) else int(key)


class AlgebraElement:
    """Sparse integer combination of surviving monomials of one algebra.

    Terms whose monomial dies under the truncation rule are identically zero
    and are dropped on construction; an out-of-range generator index is an
    error rather than a zero.
    """

    __slots__ = ("sig", "_terms")

    def __init__(self, sig: AlgebraSignature, terms=None):
        left, right, cap = self._truncation(sig)
        clean: dict[int, int] = {}
        for key, coeff in (terms or {}).items():
            bits = self._pack(sig, key)
            if coeff and (bits & left).bit_count() <= cap and (bits & right).bit_count() <= cap:
                clean[bits] = clean.get(bits, 0) + coeff
        self.sig = sig
        self._terms = {b: c for b, c in clean.items() if c}

    @staticmethod
    def _pack(sig, key) -> int:
        """The bit set of one constructor key; out-of-range generators raise."""
        bits = _as_bits(key)
        if bits < 0 or bits >= (1 << sig.n):
            raise ValueError(f"generator index out of range for n={sig.n}")
        return bits

    @staticmethod
    def _truncation(sig) -> tuple[int, int, int]:
        """(left, right, cap): a bit set of this element type survives when
        neither (bits & left) nor (bits & right) has more than cap bits."""
        return (1 << sig.n) - 2, 0, sig.r - 1

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

    @classmethod
    def generator(cls, sig, i: int) -> "AlgebraElement":
        """e_i as an element; zero when the truncation kills it (r = 1, i >= 1)."""
        if not 0 <= i < sig.n:
            raise ValueError(f"generator index {i} out of range for n={sig.n}")
        return cls(sig, {1 << i: 1})

    @classmethod
    def monomial(cls, sig, indices, coeff: int = 1) -> "AlgebraElement":
        return cls(sig, {ExteriorMonomial.from_indices(indices): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono) -> int:
        return self._terms.get(_as_bits(mono), 0)

    def terms(self):
        """Pairs (monomial, coefficient) sorted by degree then bit pattern."""
        for bits in sorted(self._terms, key=lambda b: (b.bit_count(), b)):
            yield ExteriorMonomial(bits), self._terms[bits]

    def degrees(self) -> tuple[int, ...]:
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
        if isinstance(other, int):
            if other == 0:
                return self.zero(self.sig)
            return self._raw(self.sig, {b: other * c for b, c in self._terms.items()})
        self._check_mate(other)
        left, right, cap = self._truncation(self.sig)
        out: dict[int, int] = {}
        get = out.get
        terms = self._terms.items()
        # the right operand is the small one in every search, so each of its
        # terms builds its sign mask once and meets every left term inline
        for bb, bc in other._terms.items():
            odd = _odd_below(bb)
            for ab, ac in terms:
                if ab & bb:
                    continue
                bits = ab | bb
                if (bits & left).bit_count() > cap or (bits & right).bit_count() > cap:
                    continue
                s = get(bits, 0) + (-ac * bc if (ab & odd).bit_count() & 1 else ac * bc)
                if s:
                    out[bits] = s
                elif bits in out:
                    del out[bits]
        return self._raw(self.sig, out)

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def _labelled_terms(self):
        for mono, coeff in self.terms():
            yield str(mono), coeff

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for body, coeff in self._labelled_terms():
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
    truncation test and the pair-shaped views differ; sig stays the
    signature of one leg.
    """

    __slots__ = ()

    @staticmethod
    def _pack(sig, key) -> int:
        left, right = key
        return AlgebraElement._pack(sig, left) | AlgebraElement._pack(sig, right) << sig.n

    @staticmethod
    def _truncation(sig) -> tuple[int, int, int]:
        left = (1 << sig.n) - 2
        return left, left << sig.n, sig.r - 1

    def coefficient(self, left, right) -> int:
        a, b = _as_bits(left), _as_bits(right)
        if a >> self.sig.n:
            return 0
        return self._terms.get(a | b << self.sig.n, 0)

    def terms(self):
        """Triples (left, right, coefficient) sorted by total degree, left
        degree, left bits, then right bits."""
        n = self.sig.n
        low = (1 << n) - 1

        def sort_key(p):
            return (p.bit_count(), (p & low).bit_count(), p & low, p >> n)

        for p in sorted(self._terms, key=sort_key):
            yield ExteriorMonomial(p & low), ExteriorMonomial(p >> n), self._terms[p]

    def bidegree_part(self, left_degree: int, right_degree: int) -> "TensorElement":
        n = self.sig.n
        low = (1 << n) - 1
        return self._raw(
            self.sig,
            {
                p: c
                for p, c in self._terms.items()
                if (p & low).bit_count() == left_degree and (p >> n).bit_count() == right_degree
            },
        )

    total_degrees = AlgebraElement.degrees

    def _labelled_terms(self):
        for left, right, coeff in self.terms():
            yield f"{left} (x) {right}", coeff


def tensor(x: AlgebraElement, y: AlgebraElement) -> TensorElement:
    """Form x (x) y from two elements of the same algebra."""
    if type(x) is not AlgebraElement or type(y) is not AlgebraElement or x.sig != y.sig:
        raise ValueError("tensor factors live in different algebras")
    n = x.sig.n
    out: dict[int, int] = {}
    for a, ca in x._terms.items():
        for b, cb in y._terms.items():
            out[a | b << n] = ca * cb
    return TensorElement._raw(x.sig, out)


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
    """Multiply the two tensor legs together: a (x) b maps to a*b."""
    if type(x) is not TensorElement:
        raise ValueError("the multiplication map takes an element of the tensor square")
    fits = x.sig.fits
    n = x.sig.n
    low = (1 << n) - 1
    out: dict[int, int] = {}
    for p, c in x._terms.items():
        sign, bits = _merge(p & low, p >> n)
        if sign == 0 or not fits(bits):
            continue
        s = out.get(bits, 0) + sign * c
        if s:
            out[bits] = s
        elif bits in out:
            del out[bits]
    return AlgebraElement._raw(x.sig, out)


def _pruned_product(sig: AlgebraSignature, indices, keep) -> TensorElement:
    """The circle zero-divisor times those of indices, in order, dropping
    after each factor every packed term p for which keep(p) is false."""

    def prune(x: TensorElement) -> TensorElement:
        return TensorElement._raw(sig, {p: c for p, c in x._terms.items() if keep(p)})

    out = prune(zero_divisor(sig, 0))
    for i in indices:
        out = prune(out * zero_divisor(sig, i))
    return out


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Witness that a product of factor_count zero-divisors is nonzero.

    One exact coefficient proves it: witness is the (left, right,
    coefficient) term of the product at left = e0 times the first r-1
    chosen generators, right = the remaining chosen generators.  That pair
    lies in the bidegree (r, k+1-r) slice, where every coefficient is +1 or
    -1 and the number of terms has the closed form expected_terms.  The
    slice is expanded only when component or component_terms is first read.
    """

    sig: AlgebraSignature
    k: int
    index_set: tuple[int, ...]
    factor_count: int
    component_bidegree: tuple[int, int]
    expected_terms: int
    witness: tuple[ExteriorMonomial, ExteriorMonomial, int]
    sample_term: str

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
        if self.expected_terms > SLICE_TERM_CAP:
            raise InstanceTooLarge(
                f"bidegree {self.component_bidegree} slice for n={self.sig.n}, r={self.sig.r} "
                f"has more than SLICE_TERM_CAP = {SLICE_TERM_CAP} terms; expansion is capped there"
            )
        n = self.sig.n
        low = (1 << n) - 1
        left_cap, right_cap = self.component_bidegree
        return _pruned_product(
            self.sig,
            self.index_set,
            lambda p: (p & low).bit_count() <= left_cap and (p >> n).bit_count() <= right_cap,
        )

    @property
    def component_terms(self) -> int:
        return len(self.component)


def lower_bound_certificate(sig: AlgebraSignature, index_set=None) -> LowerBoundCertificate:
    """Certify the longest guaranteed-nonzero product of generator zero-divisors.

    The product multiplies the circle zero-divisor by the zero-divisors of
    k = min(n-1, 2r-2) distinct positive generators.  Nonvanishing is
    proved by one coefficient, at left = e0 times the first r-1 chosen
    generators and right = the other k+1-r.  Every term of a zero-divisor
    adds one generator to exactly one leg, and legs only grow, so after each
    factor the terms whose left leg is not inside that left, or whose right
    leg is not inside that right, are dropped: they can never reach the
    pair.  Each generator has one allowed leg, so at most one term is left
    after each factor, and the k products have at most two terms each.
    What is left at the end is the product's exact coefficient at the pair.
    Raises CertificateFailure if it is zero, which would falsify the
    certified lower bound.
    """
    k = min(sig.n - 1, 2 * sig.r - 2)
    if index_set is None:
        indices = tuple(range(1, k + 1))
    else:
        indices = tuple(sorted(index_set))
        if len(set(indices)) != len(indices):
            raise ValueError("certificate index set has repeats")
        if any(not 1 <= i <= sig.n - 1 for i in indices):
            raise ValueError(f"certificate indices must lie in 1..{sig.n - 1}")
        if len(indices) != k:
            raise ValueError(f"certificate index set must have size {k} for this signature")

    left = ExteriorMonomial.from_indices((0, *indices[: sig.r - 1]))
    right = ExteriorMonomial.from_indices(indices[sig.r - 1 :])
    target = left.bits | right.bits << sig.n
    found = _pruned_product(sig, indices, lambda p: not p & ~target)
    coeff = found.coefficient(left, right)
    if not coeff:
        raise CertificateFailure(
            f"zero-divisor product for n={sig.n}, r={sig.r} has coefficient 0 at "
            f"{left} (x) {right}; certificate does not hold"
        )
    sign = "+" if coeff > 0 else "-"
    return LowerBoundCertificate(
        sig=sig,
        k=k,
        index_set=indices,
        factor_count=k + 1,
        component_bidegree=(sig.r, k + 1 - sig.r),
        expected_terms=math.comb(k, sig.r - 1),
        witness=(left, right, coeff),
        sample_term=f"{sign}{abs(coeff) if abs(coeff) != 1 else ''}{left} (x) {right}",
    )


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


@dataclass(frozen=True)
class ZdclSearchReport:
    """Outcome of the brute-force zero-divisor cup-length search.

    searched_length is the longest nonzero product found over the full
    spanning family of basis zero-divisors with repetition allowed.  The
    algebra is generated in degree one, so this is the cup-length that
    zdcl_degree_one computes from one chain; the search only cross-checks
    it.  certified_minimum = min(n, 2r-1) is the factor count of the
    certificate's nonzero product; each generator zero-divisor puts its
    generator on one leg, so no product of more distinct ones survives.
    """

    sig: AlgebraSignature
    searched_length: int
    certified_minimum: int
    witness: tuple[str, ...]


def zdcl_brute_force(sig: AlgebraSignature, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> ZdclSearchReport:
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

    Cost grows quickly with n; instances with n > cap raise InstanceTooLarge.
    """
    if sig.n > cap:
        raise InstanceTooLarge(
            f"brute-force search capped at n <= {cap}; got n = {sig.n} "
            f"(raise the cap explicitly to proceed)"
        )
    family = []
    for bits in sig.basis_bits():
        if bits == 0:
            continue
        mono = ExteriorMonomial(bits)
        bar = TensorElement._raw(sig, {bits << sig.n: 1, bits: -1})
        family.append((mono.degree, mono.indices, bits, str(mono), bar))
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
        for idx in range(start, len(family)):
            deg, _, bits, name, bar = family[idx]
            if used + deg > budget:
                break
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
