"""Exterior algebra and tensor square arithmetic, checked against the naive
oracle and against frozen hand-computed expansions."""

import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_algebra as naive
import randgen
from torustc import (
    AlgebraElement,
    AlgebraSignature,
    CertificateFailure,
    InstanceTooLarge,
    InvalidSignature,
    LowerBoundCertificate,
    TensorElement,
    apply_multiplication_map,
    lower_bound_certificate,
    zdcl_brute_force,
    zdcl_degree_one,
    zero_divisor,
)
from torustc import algebra
from torustc.algebra import CHAIN_KEY_BIT_CAP, SLICE_TERM_CAP, _odd_below


def mono(*indices):
    return randgen.bits_of(indices)


def mono_product(sig, a, b):
    """(sign, indices) of the product of two monomials of sig, given by their
    index tuples, or None when it vanishes."""
    prod = AlgebraElement(sig, {mono(*a): 1}) * AlgebraElement(sig, {mono(*b): 1})
    if prod.is_zero:
        return None
    ((m, sign),) = prod.terms()
    return sign, randgen.indices_of(m)


def full_product(cert):
    """The whole product of the circle and index-set zero-divisors of cert."""
    out = zero_divisor(cert.sig, 0)
    for i in cert.index_set:
        out = out * zero_divisor(cert.sig, i)
    return out


def certificates(top):
    """The default certificate of every signature with n < top, and the
    certificate of every index set of (7, 3) and (6, 4)."""
    certs = [
        lower_bound_certificate(AlgebraSignature(n, r))
        for n in range(1, top)
        for r in range(1, n + 1)
    ]
    for n, r in [(7, 3), (6, 4)]:
        sig = AlgebraSignature(n, r)
        k = min(n - 1, 2 * r - 2)
        certs.extend(
            lower_bound_certificate(sig, index_set)
            for index_set in itertools.combinations(range(1, n), k)
        )
    return certs


def _chain_terms(j, r):
    """Terms of the product of the zero-divisors of e0..ej: e0 on either leg,
    and a of e1..ej on the left and j - a on the right, at most r - 1 each."""
    return 2 * sum(math.comb(j, a) for a in range(max(0, j - r + 1), min(j, r - 1) + 1))


def coefficients(x):
    return {c for *_, c in x.terms()}


def mixed_parity(rng, sig, cls, size=4):
    """An element of cls with size terms, or every basis term when there are
    fewer, some of odd and some of even total degree (1 and e0 survive in
    every signature, so both exist)."""
    pool = list(sig.basis_bits())
    legs = 2 if cls is TensorElement else 1
    size = min(size, len(pool) ** legs)
    terms, parities = {}, set()
    while len(terms) < size or len(parities) < 2:
        key = tuple(rng.choice(pool) for _ in range(legs))
        terms[key if legs == 2 else key[0]] = rng.choice([-3, -2, -1, 1, 2, 3])
        parities.add(sum(bits.bit_count() for bits in key) % 2)
    return cls(sig, terms)


class TestSignature:
    def test_valid_range(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                # e1..e{r-1} survives the truncation, e1..e{r} does not
                widest = (1 << r) - 2
                assert sig.fits(widest)
                assert not sig.fits(widest | 1 << r)

    def test_rejects_r_above_n(self):
        with pytest.raises(InvalidSignature, match="r exceeds n"):
            AlgebraSignature(2, 3)

    def test_takes_integers_only(self):
        # a float or string n or r used to build a signature that failed
        # later, inside a shift or a range
        for n, r in [(3.5, 2), (4.0, 2), ("5", 2), (4, 2.0), (4, "2"), (4, Fraction(2))]:
            with pytest.raises(TypeError):
                AlgebraSignature(n, r)
        assert AlgebraSignature(True, True) == AlgebraSignature(1, 1)
        assert AlgebraSignature(4, True).fits(1) and not AlgebraSignature(4, True).fits(2)
        assert zdcl_degree_one(AlgebraSignature(4, 2)) == 3

    def test_rejects_nonpositive_r(self):
        with pytest.raises(InvalidSignature):
            AlgebraSignature(3, 0)

    def test_message_shortens_long_values(self):
        with pytest.raises(InvalidSignature, match=r"^invalid signature \(n=3, r=0\): r must"):
            AlgebraSignature(3, 0)
        with pytest.raises(InvalidSignature, match=r"\(n=2, r=100000000000\.\.\. \(51 digits\)\)"):
            AlgebraSignature(2, 10**50)
        with pytest.raises(InvalidSignature, match=r"\(n=-10000000000\.\.\. \(51 digits\), r=1\)"):
            AlgebraSignature(-(10**50), 1)

    def test_message_gives_overlong_values_by_bit_length(self):
        # past the interpreter's 4,300-digit limit no digits are formed
        with pytest.raises(InvalidSignature, match=r"^invalid signature "
                                                   r"\(n=1, r=<16610-bit int>\): r exceeds n$"):
            AlgebraSignature(1, 10**5000)
        with pytest.raises(InvalidSignature, match=r"\(n=3, r=-<16610-bit int>\): r must"):
            AlgebraSignature(3, -(10**5000))

    def test_replace_and_make_keep_the_checks(self):
        # a signature is a named tuple whose copies go through the constructor
        sig = AlgebraSignature(3, 2)
        assert sig == (3, 2) and hash(sig) == hash((3, 2))
        assert sig._leg_masks == (0b110, 0b110000, 1)
        wider = sig._replace(r=3)
        assert wider == AlgebraSignature(3, 3) and wider._leg_masks[2] == 2
        assert AlgebraSignature._make([4, True]) == (4, 1)
        with pytest.raises(InvalidSignature, match=r"\(n=3, r=0\): r must be at least 1"):
            sig._replace(r=0)
        with pytest.raises(InvalidSignature, match="r exceeds n"):
            AlgebraSignature._make((2, 3))
        with pytest.raises(TypeError):
            sig._replace(n=4.0)
        for name in ("n", "r"):
            with pytest.raises(AttributeError):
                setattr(sig, name, 5)
        assert sig == (3, 2)

    def test_basis_size_closed_form(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                want = 2 * sum(math.comb(n - 1, k) for k in range(r))
                basis = list(sig.basis_bits())
                assert len(basis) == len(set(basis)) == want


class TestMonomialProducts:
    def test_sign_matches_bubble_sort_oracle(self):
        rng = random.Random(101)
        sig = AlgebraSignature(6, 6)
        pool = list(sig.basis_bits())
        for _ in range(2000):
            a = randgen.indices_of(rng.choice(pool))
            b = randgen.indices_of(rng.choice(pool))
            assert mono_product(sig, a, b) == naive.mono_mul(a, b, 6, 6), (a, b)

    def test_truncation_kills_wide_monomials(self):
        sig = AlgebraSignature(4, 2)
        assert mono_product(sig, (1,), (2,)) is None
        assert mono_product(sig, (0,), (2,)) is not None

    def test_repeated_generator_is_zero(self):
        sig = AlgebraSignature(4, 3)
        assert mono_product(sig, (1,), (1,)) is None

    def test_anticommutation_of_generators(self):
        sig = AlgebraSignature(5, 4)
        s1, m1 = mono_product(sig, (1,), (3,))
        s2, m2 = mono_product(sig, (3,), (1,))
        assert m1 == m2 and s1 == -s2 == 1

    def test_indices_refuse_a_negative_int(self):
        # a negative int has infinitely many bits set, so the loop that
        # strips the lowest bit would never end
        assert algebra._indices(0) == ()
        assert algebra._indices(0b10110) == (1, 2, 4)
        for bits in (-1, -6, -(1 << 200)):
            with pytest.raises(ValueError, match="nonnegative"):
                algebra._indices(bits)
        with pytest.raises(ValueError, match=r"got -10000000000\.\.\. \(51 digits\)$"):
            algebra._monomial(-10**50)


class TestProductKernel:
    """The shared product kernel at signatures up to n = 8.  Right operands
    mix odd and even degrees, so the sign masks of _odd_below are both
    negative and non-negative."""

    def test_odd_below_parity_matches_bubble_sort(self):
        rng = random.Random(707)
        for _ in range(2000):
            width = rng.randint(1, 64)
            a = rng.getrandbits(width)
            b = rng.getrandbits(width) & ~a
            mask = _odd_below(b)
            assert (mask < 0) == (b.bit_count() % 2 == 1)
            indices = randgen.indices_of(a) + randgen.indices_of(b)
            sign, _ = naive.sort_with_sign(indices)
            assert (-1 if (a & mask).bit_count() & 1 else 1) == sign, (a, b)

    def test_algebra_products_match_oracle(self):
        rng = random.Random(606)
        nonzero = 0
        for _ in range(1000):
            sig = randgen.random_signature(rng, max_n=8)
            x = mixed_parity(rng, sig, AlgebraElement, size=rng.randint(1, 6))
            y = mixed_parity(rng, sig, AlgebraElement, size=rng.randint(2, 5))
            got = randgen.to_naive_element(x * y)
            want = naive.elem_mul(
                randgen.to_naive_element(x), randgen.to_naive_element(y), sig.n, sig.r
            )
            assert got == want
            nonzero += bool(got)
        assert nonzero > 700

    def test_tensor_products_match_oracle(self):
        rng = random.Random(616)
        nonzero = 0
        for _ in range(1000):
            sig = randgen.random_signature(rng, max_n=8)
            x = mixed_parity(rng, sig, TensorElement, size=rng.randint(1, 6))
            y = mixed_parity(rng, sig, TensorElement, size=rng.randint(2, 4))
            got = randgen.to_naive_tensor(x * y)
            want = naive.tensor_mul(
                randgen.to_naive_tensor(x), randgen.to_naive_tensor(y), sig.n, sig.r
            )
            assert got == want
            nonzero += bool(got)
        assert nonzero > 450

    def test_right_terms_in_both_legs_match_oracle(self):
        # every right term adds positive generators to both legs, so both
        # truncation counts decide; at r = 2 one generator fills a leg
        rng = random.Random(636)
        cut_right = nonzero = 0
        for _ in range(1000):
            n = rng.randint(3, 7)
            sig = AlgebraSignature(n, rng.randint(2, n))
            positive = [b for b in sig.basis_bits() if b & ~1]
            y = TensorElement(sig, {(rng.choice(positive), rng.choice(positive)):
                                    rng.choice([-2, -1, 1, 3]) for _ in range(rng.randint(1, 3))})
            x = mixed_parity(rng, sig, TensorElement, size=rng.randint(1, 6))
            got = randgen.to_naive_tensor(x * y)
            assert got == naive.tensor_mul(
                randgen.to_naive_tensor(x), randgen.to_naive_tensor(y), sig.n, sig.r)
            nonzero += bool(got)
            # some product survives the left leg's count and dies on the right
            cut_right += any(
                not (a & b or c & d)
                and sig.fits(a | b) and not sig.fits(c | d)
                for (a, c), (b, d) in itertools.product(
                    [(m, w) for m, w, _ in x.terms()],
                    [(m, w) for m, w, _ in y.terms()]))
        assert nonzero > 150 and cut_right > 100, (nonzero, cut_right)

    def test_integer_scaling_matches_oracle(self):
        rng = random.Random(646)
        for _ in range(300):
            sig = randgen.random_signature(rng, max_n=6)
            k = rng.choice([0, 1, -1, 2, -3, 10**30])
            x = randgen.random_element(rng, sig)
            t = randgen.random_tensor(rng, sig)
            want_x = naive.elem_scale(randgen.to_naive_element(x), k)
            want_t = naive.tensor_scale(randgen.to_naive_tensor(t), k)
            for got, want in [(x * k, want_x), (k * x, want_x)]:
                assert type(got) is AlgebraElement and got.sig is sig
                assert randgen.to_naive_element(got) == want
            for got, want in [(t * k, want_t), (k * t, want_t)]:
                assert type(got) is TensorElement and got.sig is sig
                assert randgen.to_naive_tensor(got) == want

    def test_equal_signatures_multiply_and_unequal_ones_raise(self):
        # the product's fast path takes one signature object; an equal copy
        # takes the checked path and gives the same product
        rng = random.Random(656)
        for cls, view, naive_mul in [
            (AlgebraElement, randgen.to_naive_element, naive.elem_mul),
            (TensorElement, randgen.to_naive_tensor, naive.tensor_mul),
        ]:
            sig, twin = AlgebraSignature(5, 3), AlgebraSignature(5, 3)
            x = mixed_parity(rng, sig, cls, size=5)
            y = mixed_parity(rng, twin, cls, size=3)
            assert view(x * y) == naive_mul(view(x), view(y), 5, 3)
            for other in (AlgebraSignature(5, 2), AlgebraSignature(4, 3), AlgebraSignature(6, 3)):
                with pytest.raises(ValueError, match="different algebras"):
                    x * cls.one(other)
                with pytest.raises(ValueError, match="different algebras"):
                    cls.one(other) * x

    def test_multiplication_map_matches_oracle(self):
        rng = random.Random(626)
        for _ in range(1000):
            sig = randgen.random_signature(rng, max_n=8)
            x = mixed_parity(rng, sig, TensorElement, size=rng.randint(2, 8))
            got = randgen.to_naive_element(apply_multiplication_map(x))
            want = naive.contract(randgen.to_naive_tensor(x), sig.n, sig.r)
            assert got == want


class TestElementArithmetic:
    def test_frozen_square_of_sum_collapses(self):
        # (e1 + e2)^2 = e1e2 + e2e1 = 0
        sig = AlgebraSignature(3, 3)
        x = AlgebraElement(sig, {mono(1): 1}) + AlgebraElement(sig, {mono(2): 1})
        assert (x * x).is_zero

    def test_unit_and_scalars(self):
        sig = AlgebraSignature(4, 2)
        one = AlgebraElement.one(sig)
        x = AlgebraElement(sig, {mono(0, 3): 5})
        assert one * x == x == x * one
        assert 2 * x == x + x
        assert (x - x).is_zero

    def test_truncated_monomials_drop_on_construction(self):
        sig = AlgebraSignature(4, 2)
        assert AlgebraElement(sig, {mono(1, 2): 7}).is_zero

    def test_out_of_range_index_is_an_error_not_zero(self):
        sig = AlgebraSignature(4, 2)
        with pytest.raises(ValueError, match="out of range"):
            AlgebraElement(sig, {1 << 4: 1})

    def test_non_integer_keys_are_errors(self):
        # keys were converted with int(), so 1.7 read as e0 and "2" as e1
        sig = AlgebraSignature(3, 2)
        for key in (1.7, "2", Fraction(1), 1.0):
            with pytest.raises(TypeError):
                AlgebraElement(sig, {key: 1})
        with pytest.raises(TypeError):
            TensorElement(sig, {(1.9, True): 2})
        x = TensorElement(sig, {(1, 0): 3})
        with pytest.raises(TypeError):
            x.coefficient(1.5, 2)
        with pytest.raises(TypeError):
            x.coefficient(1, "0")
        # ints, bools and bit sets built from indices key the same terms
        assert AlgebraElement(sig, {True: 1}) == AlgebraElement(sig, {mono(0): 1})
        assert x.coefficient(1, 0) == x.coefficient(mono(0), mono()) == 3
        # a left leg past the signature names no term, so its coefficient is
        # 0, not that of the right-leg term its bits would pack into
        assert x.coefficient(1 << sig.n, 0) == 0
        assert TensorElement(sig, {(0, 1): 5}).coefficient(1 << sig.n, 0) == 0

    def test_non_integer_coefficients_are_errors(self):
        # a float or Fraction coefficient used to print as 0.5*e0 and 1/2*e0
        sig = AlgebraSignature(3, 2)
        for coeff in (0.5, Fraction(1, 2), 2.0, Fraction(2), "1"):
            with pytest.raises(TypeError):
                AlgebraElement(sig, {1: coeff})
            with pytest.raises(TypeError):
                TensorElement(sig, {(1, 2): coeff})
        # a term that truncation drops is checked too
        with pytest.raises(TypeError):
            AlgebraElement(sig, {mono(1, 2): 0.5})
        assert str(AlgebraElement(sig, {1: 2, 2: -1, 4: 0})) == "2*e0 - e1"
        assert str(AlgebraElement.zero(sig)) == "0"

    def test_generator_dies_only_for_r1(self):
        assert AlgebraElement(AlgebraSignature(3, 1), {mono(2): 1}).is_zero
        assert not AlgebraElement(AlgebraSignature(3, 1), {mono(0): 1}).is_zero
        assert not AlgebraElement(AlgebraSignature(3, 2), {mono(2): 1}).is_zero

    def test_truth_value_is_being_nonzero(self):
        sig = AlgebraSignature(3, 2)
        for x in (AlgebraElement(sig, {mono(0, 1): -2}), TensorElement(sig, {(mono(1), mono(0)): 3})):
            for y in (x, x - x, type(x).zero(sig)):
                assert bool(y) == (not y.is_zero)
            assert x and not x - x

    def test_products_match_oracle(self):
        rng = random.Random(202)
        for _ in range(500):
            sig = randgen.random_signature(rng, max_n=5)
            x = randgen.random_element(rng, sig)
            y = randgen.random_element(rng, sig)
            got = randgen.to_naive_element(x * y)
            want = naive.elem_mul(
                randgen.to_naive_element(x), randgen.to_naive_element(y), sig.n, sig.r
            )
            assert got == want

    def test_cross_signature_product_rejected(self):
        x = AlgebraElement.one(AlgebraSignature(3, 2))
        y = AlgebraElement.one(AlgebraSignature(4, 2))
        with pytest.raises(ValueError, match="different algebras"):
            x * y

    def test_mixing_element_types_rejected(self):
        # both types key their terms by ints, so only the type tells them apart
        sig = AlgebraSignature(3, 2)
        a, t = AlgebraElement.one(sig), TensorElement.one(sig)
        for x, y in [(a, t), (t, a)]:
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ValueError, match="different algebras"):
                    op(x, y)
            assert (x == y) is False
        with pytest.raises(ValueError, match="tensor square"):
            apply_multiplication_map(a)

    def test_adding_a_non_element_is_a_type_error(self):
        sig = AlgebraSignature(3, 2)
        for x in (AlgebraElement.one(sig), TensorElement.one(sig)):
            for op in (operator.add, operator.sub):
                for left, right in [(x, 1), (1, x), (x, "e0"), (None, x)]:
                    with pytest.raises(TypeError):
                        op(left, right)
            # only ints scale an element
            for other in (2.5, None, Fraction(1, 2)):
                for left, right in [(x, other), (other, x)]:
                    with pytest.raises(TypeError):
                        left * right

    def test_tensor_terms_sorted_and_printed_in_order(self):
        sig = AlgebraSignature(3, 3)
        terms = {(mono(0), mono(1)): 1, (mono(1), mono()): 2, (mono(), mono(0)): -1}
        x = TensorElement(sig, terms)
        assert str(x) == "-1 (x) e0 + 2*e1 (x) 1 + e0 (x) e1"

        rng = random.Random(808)
        sig = AlgebraSignature(5, 4)
        pool = list(sig.basis_bits())
        terms = {}
        for _ in range(60):
            terms[rng.choice(pool), rng.choice(pool)] = rng.choice([-2, -1, 1, 3])
        x = TensorElement(sig, terms)
        triples = list(x.terms())
        keys = [(a, b) for a, b, _ in triples]
        assert len(keys) == len(x) > 40
        degrees = [(a.bit_count() + b.bit_count(), a.bit_count()) for a, b in keys]
        assert keys == [k for _, k in sorted(zip(degrees, keys))]
        parts = []
        for a, b, c in triples:
            sign = "+" if c > 0 else "-"
            scale = "" if abs(c) == 1 else f"{abs(c)}*"
            left, right = ("*".join(f"e{i}" for i in randgen.indices_of(m)) or "1"
                           for m in (a, b))
            parts.append(f"{sign} {scale}{left} (x) {right}")
        text = " ".join(parts)
        assert str(x) == (text[2:] if text.startswith("+ ") else "-" + text[2:])

    def test_terms_are_int_bit_sets_that_rebuild_the_element(self):
        # terms() yields the keys an element is built from, so a rebuilt
        # element equals the original
        rng = random.Random(818)
        for _ in range(300):
            sig = randgen.random_signature(rng, max_n=6)
            x = randgen.random_element(rng, sig, max_terms=6)
            t = randgen.random_tensor(rng, sig, max_terms=6)
            pairs, triples = list(x.terms()), list(t.terms())
            assert all(type(k) is int for k, _ in pairs), pairs
            assert all(type(a) is type(b) is int for a, b, _ in triples), triples
            assert AlgebraElement(sig, dict(pairs)) == x
            assert TensorElement(sig, {(a, b): c for a, b, c in triples}) == t


class TestTensorArithmetic:
    def test_frozen_zero_divisor_pair_expansion(self):
        # (1(x)e0 - e0(x)1)(1(x)e1 - e1(x)1), all four signs hand-checked
        sig = AlgebraSignature(2, 2)
        prod = zero_divisor(sig, 0) * zero_divisor(sig, 1)
        assert len(prod) == 4
        assert prod.coefficient(mono(), mono(0, 1)) == 1
        assert prod.coefficient(mono(1), mono(0)) == 1
        assert prod.coefficient(mono(0), mono(1)) == -1
        assert prod.coefficient(mono(0, 1), mono()) == 1

    def test_frozen_crossing_sign(self):
        # (1(x)e1)(e2(x)1) = -(e2(x)e1): both legs odd
        sig = AlgebraSignature(4, 3)
        x = TensorElement(sig, {(mono(), mono(1)): 1})
        y = TensorElement(sig, {(mono(2), mono()): 1})
        assert (x * y).coefficient(mono(2), mono(1)) == -1

    def test_products_match_oracle(self):
        rng = random.Random(303)
        for _ in range(500):
            sig = randgen.random_signature(rng, max_n=5)
            x = randgen.random_tensor(rng, sig)
            y = randgen.random_tensor(rng, sig)
            got = randgen.to_naive_tensor(x * y)
            want = naive.tensor_mul(
                randgen.to_naive_tensor(x), randgen.to_naive_tensor(y), sig.n, sig.r
            )
            assert got == want

    def test_bidegree_split_is_exhaustive(self):
        rng = random.Random(404)
        for _ in range(100):
            sig = randgen.random_signature(rng, max_n=5)
            x = randgen.to_naive_tensor(randgen.random_tensor(rng, sig, max_terms=5))
            rebuilt = {}
            for s in range(sig.r + 1):
                for t in range(sig.r + 1):
                    part = naive.bidegree_part(x, s, t)
                    assert not part.keys() & rebuilt.keys()
                    rebuilt.update(part)
            assert rebuilt == x

    def test_multiplication_map_matches_oracle(self):
        rng = random.Random(505)
        for _ in range(300):
            sig = randgen.random_signature(rng, max_n=5)
            x = randgen.random_tensor(rng, sig, max_terms=4)
            got = randgen.to_naive_element(apply_multiplication_map(x))
            want = naive.contract(randgen.to_naive_tensor(x), sig.n, sig.r)
            assert got == want

    def test_frozen_multiplication_map_value(self):
        # 1(x)e1e2 + e1(x)e2 maps to 2 e1e2
        sig = AlgebraSignature(4, 3)
        x = TensorElement(sig, {(mono(), mono(1, 2)): 1, (mono(1), mono(2)): 1})
        assert apply_multiplication_map(x) == AlgebraElement(sig, {mono(1, 2): 2})


@st.composite
def signature_and_tensors(draw, count=2, max_n=4):
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, n))
    sig = AlgebraSignature(n, r)
    pool = list(sig.basis_bits())
    out = []
    for _ in range(count):
        keys = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
        terms = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=3))
        out.append(TensorElement(sig, terms))
    return sig, out


class TestRingLaws:
    @settings(max_examples=200, deadline=None)
    @given(signature_and_tensors(count=3))
    def test_associativity(self, data):
        _, (x, y, z) = data
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=200, deadline=None)
    @given(signature_and_tensors(count=3))
    def test_distributivity(self, data):
        _, (x, y, z) = data
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=200, deadline=None)
    @given(signature_and_tensors(count=2))
    def test_scalar_compatibility(self, data):
        _, (x, y) = data
        assert (2 * x) * y == 2 * (x * y) == x * (2 * y)

    def test_graded_commutativity_on_homogeneous_parts(self):
        rng = random.Random(606)
        for _ in range(2000):
            sig = randgen.random_signature(rng, max_n=4)
            x = randgen.random_homogeneous_tensor(rng, sig)
            y = randgen.random_homogeneous_tensor(rng, sig)
            dx = x.total_degrees()
            dy = y.total_degrees()
            if not dx or not dy:
                continue
            sign = -1 if (dx[0] & 1) and (dy[0] & 1) else 1
            assert x * y == sign * (y * x)

    def test_multiplication_map_is_a_ring_map(self):
        rng = random.Random(707)
        for _ in range(2000):
            sig = randgen.random_signature(rng, max_n=4)
            x = randgen.random_tensor(rng, sig)
            y = randgen.random_tensor(rng, sig)
            assert apply_multiplication_map(x * y) == apply_multiplication_map(
                x
            ) * apply_multiplication_map(y)


class TestZeroDivisors:
    def test_square_vanishes_for_every_generator(self):
        for n, r in [(1, 1), (3, 2), (4, 3), (6, 2), (8, 8)]:
            sig = AlgebraSignature(n, r)
            for i in range(n):
                zd = zero_divisor(sig, i)
                assert (zd * zd).is_zero

    def test_kernel_of_multiplication_map(self):
        for n, r in [(3, 2), (5, 3)]:
            sig = AlgebraSignature(n, r)
            for i in range(n):
                assert apply_multiplication_map(zero_divisor(sig, i)).is_zero
        # every a-bar = 1 (x) a - a (x) 1 of the brute-force family, though
        # each of its legs maps to a itself
        for n in range(1, 7):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                for a in sig.basis_bits():
                    if not a:
                        continue
                    leg = TensorElement(sig, {(0, a): 1})
                    assert apply_multiplication_map(leg) == AlgebraElement(sig, {a: 1})
                    bar = leg - TensorElement(sig, {(a, 0): 1})
                    assert apply_multiplication_map(bar).is_zero, (n, r, a)

    def test_matches_oracle(self):
        for n, r in [(1, 1), (4, 2), (5, 5)]:
            sig = AlgebraSignature(n, r)
            for i in range(n):
                got = randgen.to_naive_tensor(zero_divisor(sig, i))
                want = naive.zero_div(i)
                if r == 1 and i >= 1:
                    want = {}
                assert got == want

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            zero_divisor(AlgebraSignature(3, 2), 3)


class TestLowerBoundCertificate:
    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 9) for r in range(1, n + 1)])
    def test_certificate_holds_everywhere(self, n, r):
        cert = lower_bound_certificate(AlgebraSignature(n, r))
        assert cert.k == min(n - 1, 2 * r - 2)
        assert cert.factor_count == cert.k + 1 == min(n, 2 * r - 1)
        assert cert.component_terms == cert.expected_terms == math.comb(cert.k, r - 1)
        assert coefficients(cert.component) <= {-1, 1}
        assert not full_product(cert).is_zero

    def test_component_matches_oracle_expansion(self):
        for n, r in [(2, 2), (3, 2), (4, 3), (5, 3)]:
            sig = AlgebraSignature(n, r)
            cert = lower_bound_certificate(sig)
            naive_prod = naive.certificate_product(n, r, cert.index_set)
            want = naive.bidegree_part(naive_prod, r, cert.k + 1 - r)
            assert randgen.to_naive_tensor(cert.component) == want

    def test_whole_product_has_unit_coefficients(self):
        for n, r in [(3, 2), (4, 3), (6, 4), (8, 8)]:
            cert = lower_bound_certificate(AlgebraSignature(n, r))
            assert coefficients(full_product(cert)) <= {-1, 1}

    def test_certificate_and_report_are_read_only(self):
        sig = AlgebraSignature(4, 3)
        cert = lower_bound_certificate(sig)
        for record in (cert, zdcl_brute_force(sig)):
            assert record.sig is sig
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        # the slice is expanded on first read and kept
        assert cert.component is cert.component

    def test_custom_index_set(self):
        sig = AlgebraSignature(5, 2)
        cert = lower_bound_certificate(sig, index_set=(2, 4))
        assert cert.index_set == (2, 4)
        assert cert.component_terms == cert.expected_terms

    def test_custom_index_set_must_have_size_k(self):
        with pytest.raises(ValueError, match="size"):
            lower_bound_certificate(AlgebraSignature(5, 2), index_set=(1, 2, 3))

    def test_custom_index_set_rejects_zero(self):
        with pytest.raises(ValueError, match="1.."):
            lower_bound_certificate(AlgebraSignature(5, 2), index_set=(0, 1))
        # n itself is past the last generator, e_{n-1}
        with pytest.raises(ValueError, match=r"1\.\.4"):
            lower_bound_certificate(AlgebraSignature(5, 3), (1, 2, 3, 5))

    def test_custom_index_set_reads_each_index_as_an_int(self):
        sig = AlgebraSignature(5, 3)
        with pytest.raises(TypeError):
            lower_bound_certificate(sig, index_set=(1.0, 2, 3, 4))
        with pytest.raises(TypeError):
            lower_bound_certificate(sig, index_set=("1", 2, 3, 4))
        cert = lower_bound_certificate(sig, index_set=(True, 2, 3, 4))
        assert cert.index_set == (1, 2, 3, 4)
        assert all(type(i) is int for i in cert.index_set)
        assert cert == lower_bound_certificate(sig)

    def test_sample_term_is_derived_from_the_witness(self):
        assert "sample_term" not in LowerBoundCertificate._fields
        cert = lower_bound_certificate(AlgebraSignature(5, 3))
        # as in tests/data/certificate_frozen.json
        assert cert.sample_term == "-e0*e1*e2 (x) e3*e4"
        tripled = cert._replace(witness=(*cert.witness[:2], 3))
        assert tripled.sample_term == "+3e0*e1*e2 (x) e3*e4"

    def test_one_more_factor_kills_the_product(self):
        # the certificate is sharp: appending any unused zero-divisor gives 0
        for n, r in [(3, 2), (5, 2), (5, 3)]:
            sig = AlgebraSignature(n, r)
            cert = lower_bound_certificate(sig)
            unused = [i for i in range(sig.n) if i != 0 and i not in cert.index_set]
            for i in unused:
                assert (full_product(cert) * zero_divisor(sig, i)).is_zero

    def test_pruned_slice_equals_slice_of_full_product(self):
        for cert in certificates(12):
            want = naive.bidegree_part(randgen.to_naive_tensor(full_product(cert)),
                                       *cert.component_bidegree)
            assert randgen.to_naive_tensor(cert.component) == want, cert

    def test_witness_equals_slice_coefficient(self):
        for cert in certificates(13):
            left, right, coeff = cert.witness
            assert type(left) is type(right) is int, cert
            assert randgen.indices_of(left) == (0, *cert.index_set[: cert.sig.r - 1]), cert
            assert randgen.indices_of(right) == cert.index_set[cert.sig.r - 1 :], cert
            assert coeff == cert.component.coefficient(left, right) != 0, cert

    def test_witness_equals_unpruned_product_coefficient(self):
        for cert in certificates(11):
            left, right, coeff = cert.witness
            assert coeff == full_product(cert).coefficient(left, right), cert

    def test_factor_terms_are_zero_divisor_terms_inside_the_witness(self, monkeypatch):
        # the product starts from one term of the circle zero-divisor and
        # multiplies by one term of each chosen one, in index order: the
        # term on the witness's side, with its coefficient in zero_divisor
        calls = []
        mul = TensorElement.__mul__

        def recording_mul(self, other):
            calls.append((self, other))
            return mul(self, other)

        for cert in certificates(11):
            sig = cert.sig
            calls.clear()
            monkeypatch.setattr(TensorElement, "__mul__", recording_mul)
            again = lower_bound_certificate(sig, cert.index_set)
            monkeypatch.undo()
            assert again == cert and len(calls) == cert.k, cert
            if not calls:
                continue
            left, right, _ = cert.witness
            used = [calls[0][0], *(other for _, other in calls)]
            for i, factor in zip((0, *cert.index_set), used):
                (term,) = factor.terms()
                assert term in set(zero_divisor(sig, i).terms()), (cert, i, term)
                assert not term[0] & ~left and not term[1] & ~right, (cert, i, term)

    def test_slice_expansion_capped(self):
        assert SLICE_TERM_CAP == 200_000
        cert = lower_bound_certificate(AlgebraSignature(30, 15))
        assert cert.factor_count == 29
        assert cert.expected_terms == math.comb(28, 14) > SLICE_TERM_CAP
        with pytest.raises(InstanceTooLarge, match="capped"):
            cert.component_terms
        # C(14999, 7499) has more than 4,300 digits, past Python's limit on
        # int-to-string conversion, so the message must not print the count
        cert = lower_bound_certificate(AlgebraSignature(15000, 7500))
        with pytest.raises(InstanceTooLarge) as info:
            cert.component_terms
        message = str(info.value)
        assert "SLICE_TERM_CAP" in message and "int_max_str_digits" not in message
        assert len(message) < 200 and "\n" not in message

    def test_products_stay_within_twice_the_slice_size(self, monkeypatch):
        # only the term of each factor that can reach the witness is
        # multiplied, and the witness never dies, so each of the k products
        # is one term times one term, giving one term
        sizes = []
        mul = TensorElement.__mul__

        def counting_mul(self, other):
            out = mul(self, other)
            sizes.append((len(self), len(other), len(out)))
            return out

        monkeypatch.setattr(TensorElement, "__mul__", counting_mul)
        for n in range(1, 13):
            for r in range(1, n + 1):
                sizes.clear()
                cert = lower_bound_certificate(AlgebraSignature(n, r))
                assert len(sizes) == cert.k, (n, r, sizes)
                assert set(sizes) <= {(1, 1, 1)}, (n, r, sizes)


class TestCupLengthSearches:
    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 9) for r in range(1, n + 1)])
    def test_degree_one_closed_form(self, n, r):
        assert zdcl_degree_one(AlgebraSignature(n, r)) == min(n, 2 * r - 1)

    def test_degree_one_chain_size_capped(self):
        # a product of more than SLICE_TERM_CAP / 2 terms is never multiplied
        with pytest.raises(InstanceTooLarge, match="capped"):
            zdcl_degree_one(AlgebraSignature(30, 15))

    def test_degree_one_chain_key_bits_capped(self):
        assert CHAIN_KEY_BIT_CAP == 64_000_000
        # the term cap binds up to n = 160, the key-bit budget above it
        assert CHAIN_KEY_BIT_CAP // (2 * 160) == SLICE_TERM_CAP
        with pytest.raises(InstanceTooLarge, match="CHAIN_KEY_BIT_CAP"):
            zdcl_degree_one(AlgebraSignature(2000, 1000))
        # a chain of 2r-1 factors whose keys fit answers at any n
        assert zdcl_degree_one(AlgebraSignature(100000, 3)) == 5

    def test_degree_one_refuses_overlong_n_by_its_bit_length(self):
        # 10**5000 has more digits than the interpreter converts, so the
        # message gives its size in bits instead of Python's digit-limit error
        with pytest.raises(InstanceTooLarge, match=r"^zero-divisor chain for \(n, r\) = "
                                                   r"\(<16610-bit int>, 2\) would reach"):
            zdcl_degree_one(AlgebraSignature(10**5000, 2))

    def test_degree_one_counts_before_refusing(self):
        # the e0 chain at (18, 11) passes SLICE_TERM_CAP / 2 terms, but its
        # next product has 175,032 terms, under the cap, so it still answers
        assert zdcl_degree_one(AlgebraSignature(18, 11)) == 18

    def test_chain_term_counts_closed_form(self):
        # nothing cancels in a chain product, and the count reaches 0
        # exactly where the chain ends
        for n in range(1, 10):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                prod = TensorElement.one(sig)
                for j in range(n):
                    prod = prod * zero_divisor(sig, j)
                    assert len(prod) == _chain_terms(j, r), (n, r, j)

    def test_degree_one_refusal_names_first_count_over_the_limit(self):
        for n, r in [(19, 11), (20, 11), (30, 15), (160, 11), (2000, 1000), (100000, 9)]:
            limit = min(SLICE_TERM_CAP, CHAIN_KEY_BIT_CAP // (2 * n))
            size = next(s for j in range(n) if (s := _chain_terms(j, r)) > limit)
            with pytest.raises(InstanceTooLarge, match=f"would reach {size} terms"):
                zdcl_degree_one(AlgebraSignature(n, r))

    def test_degree_one_refuses_before_building_keys(self):
        # no 1 << n key can be built for n = 10**4000, and at (10**8, 2) the
        # leg masks alone would take 12.5 MB
        with pytest.raises(InstanceTooLarge, match="CHAIN_KEY_BIT_CAP"):
            zdcl_degree_one(AlgebraSignature(10**4000, 2))
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLarge, match="CHAIN_KEY_BIT_CAP"):
                zdcl_degree_one(AlgebraSignature(10**8, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("n", range(1, 10))
    def test_degree_one_matches_exhaustive_subset_search(self, n):
        for r in range(1, n + 1):
            sig = AlgebraSignature(n, r)
            assert zdcl_degree_one(sig) == naive.zdcl_degree_one_exhaustive(sig), (n, r)

    def test_brute_force_reports_frozen(self):
        # captured from the unreduced search, which visited every multiset
        frozen = json.loads((Path(__file__).parent / "data" / "zdcl_brute_frozen.json").read_text())
        for rec in frozen:
            rep = zdcl_brute_force(AlgebraSignature(rec["n"], rec["r"]))
            got = (rep.searched_length, rep.certified_minimum, list(rep.witness))
            assert got == (rec["searched_length"], rec["certified_minimum"], rec["witness"]), rec

    def test_brute_force_pruning_skips_only_zero_products(self, monkeypatch):
        # every node the search visits is flip-symmetric, so one leg's
        # summary speaks for both; a factor the summary rules out multiplies
        # the node's product to zero; the search forms no product the
        # summary rules out; and it visits the same nodes, in the same order,
        # as a search whose summary rules out nothing.  The search's degree
        # bound leaves the (2, 2) search no node with a factor ruled out, so
        # the summary is shown to rule some out, for every r >= 2, on nodes
        # built here: the chain products e0-bar * e1-bar * ... and the
        # squares a-bar * a-bar
        nodes, formed = [], []
        leg_room, mul = algebra._leg_room, TensorElement.__mul__

        def recording_mul(self, other):
            formed.append((self, other))
            return mul(self, other)

        def ruled_out(prod, a):
            meet, room = leg_room(prod)
            return bool(a & meet or (a & ~1).bit_count() > room)

        def assert_skips_zero(sig, prod):
            skipped = 0
            for a in sig.basis_bits():
                if a and ruled_out(prod, a):
                    bar = TensorElement(sig, {(0, a): 1, (a, 0): -1})
                    assert (prod * bar).is_zero, (sig, prod, a)
                    skipped += 1
            return skipped

        def search(sig, summary):
            nodes.clear()
            formed.clear()
            monkeypatch.setattr(algebra, "_leg_room",
                                lambda prod: nodes.append(prod) or summary(prod))
            monkeypatch.setattr(TensorElement, "__mul__", recording_mul)
            report = zdcl_brute_force(sig)
            monkeypatch.undo()
            return report, [prod._terms for prod in nodes]

        products = {"unpruned": 0, "pruned": 0}
        for n in range(1, 6):
            low = (1 << n) - 1
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                unpruned = search(sig, lambda prod: (0, n))
                products["unpruned"] += len(formed)
                assert search(sig, leg_room) == unpruned, (n, r)
                products["pruned"] += len(formed)
                for prod, bar in formed:
                    assert not ruled_out(prod, min(bar._terms)), (n, r)
                for prod in nodes:
                    keys = set(prod._terms)
                    assert {p >> n | (p & low) << n for p in keys} == keys, (n, r, prod)
                    assert_skips_zero(sig, prod)
                chain, built = TensorElement.one(sig), []
                for i in range(n):
                    chain = chain * zero_divisor(sig, i)
                    built.append(chain)
                bars = [TensorElement(sig, {(0, a): 1, (a, 0): -1}) for a in sig.basis_bits() if a]
                built += [bar * bar for bar in bars]
                skipped = sum(assert_skips_zero(sig, prod) for prod in built if not prod.is_zero)
                assert skipped > 0 or r == 1, (n, r)
        assert products["pruned"] < products["unpruned"] / 2, products

    def test_brute_force_agrees_with_degree_one_search(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                rep = zdcl_brute_force(sig)
                assert rep.searched_length == zdcl_degree_one(sig) == rep.certified_minimum
                assert len(rep.witness) == rep.searched_length, (n, r)

    def test_brute_force_product_count(self, monkeypatch):
        # the count the zdcl_brute_force docstring states for (5, 5)
        formed = []
        mul = TensorElement.__mul__

        def recording_mul(self, other):
            formed.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(TensorElement, "__mul__", recording_mul)
        zdcl_brute_force(AlgebraSignature(5, 5))
        assert len(formed) == 331
        assert "At (5, 5) the search forms 331 products" in " ".join(zdcl_brute_force.__doc__.split())

    def test_brute_force_cap(self):
        # a fixed limit on n, refused before any product
        assert algebra.BRUTE_FORCE_MAX_N == 8
        with pytest.raises(InstanceTooLarge, match=r"^brute-force search is limited to "
                                                     r"n <= 8; got n = 9$"):
            zdcl_brute_force(AlgebraSignature(9, 2))
        assert zdcl_brute_force(AlgebraSignature(8, 2)).searched_length == 3

    def test_even_degree_elements_square_nontrivially(self):
        # a-bar squared is -2 a(x)a for even-degree a, so repetition matters
        sig = AlgebraSignature(3, 3)
        bar = TensorElement(sig, {(mono(), mono(1, 2)): 1, (mono(1, 2), mono()): -1})
        sq = bar * bar
        assert sq.coefficient(mono(1, 2), mono(1, 2)) == -2
