"""Exterior algebra and tensor square arithmetic, checked against the naive
oracle and against frozen hand-computed expansions."""

import itertools
import json
import math
import operator
import random
import tracemalloc
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
    ExteriorMonomial,
    InstanceTooLarge,
    InvalidSignature,
    TensorElement,
    apply_multiplication_map,
    lower_bound_certificate,
    tensor,
    zdcl_brute_force,
    zdcl_degree_one,
    zero_divisor,
)
from torustc.algebra import CHAIN_KEY_BIT_CAP, SLICE_TERM_CAP, _merge, _odd_below


def mono(*indices):
    return ExteriorMonomial.from_indices(indices)


def mono_product(sig, a, b):
    """(sign, indices) of the product of two monomials of sig, given by their
    index tuples, or None when it vanishes."""
    prod = AlgebraElement.monomial(sig, a) * AlgebraElement.monomial(sig, b)
    if prod.is_zero:
        return None
    ((m, sign),) = prod.terms()
    return sign, m.indices


def full_product(cert):
    """The whole product of the circle and index-set zero-divisors of cert."""
    out = zero_divisor(cert.sig, 0)
    for i in cert.index_set:
        out = out * zero_divisor(cert.sig, i)
    return out


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
            a = ExteriorMonomial(rng.choice(pool)).indices
            b = ExteriorMonomial(rng.choice(pool)).indices
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
            indices = ExteriorMonomial(a).indices + ExteriorMonomial(b).indices
            sign, _ = naive.sort_with_sign(indices)
            assert (-1 if (a & mask).bit_count() & 1 else 1) == sign, (a, b)
            assert _merge(a, b) == (sign, a | b)
            if a and b:
                assert _merge(a | b, b) == (0, 0)

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
        x = AlgebraElement.generator(sig, 1) + AlgebraElement.generator(sig, 2)
        assert (x * x).is_zero

    def test_unit_and_scalars(self):
        sig = AlgebraSignature(4, 2)
        one = AlgebraElement.one(sig)
        x = AlgebraElement.monomial(sig, [0, 3], 5)
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

    def test_generator_dies_only_for_r1(self):
        assert AlgebraElement.generator(AlgebraSignature(3, 1), 2).is_zero
        assert not AlgebraElement.generator(AlgebraSignature(3, 1), 0).is_zero
        assert not AlgebraElement.generator(AlgebraSignature(3, 2), 2).is_zero

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
        with pytest.raises(ValueError, match="different algebras"):
            tensor(t, a)
        with pytest.raises(ValueError, match="tensor square"):
            apply_multiplication_map(a)

    def test_adding_a_non_element_is_a_type_error(self):
        sig = AlgebraSignature(3, 2)
        for x in (AlgebraElement.one(sig), TensorElement.one(sig)):
            for op in (operator.add, operator.sub):
                for left, right in [(x, 1), (1, x), (x, "e0"), (None, x)]:
                    with pytest.raises(TypeError):
                        op(left, right)

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
        keys = [(a.bits, b.bits) for a, b, _ in triples]
        assert len(keys) == len(x) > 40
        degrees = [(a.bit_count() + b.bit_count(), a.bit_count()) for a, b in keys]
        assert keys == [k for _, k in sorted(zip(degrees, keys))]
        parts = []
        for a, b, c in triples:
            sign = "+" if c > 0 else "-"
            scale = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {scale}{a} (x) {b}")
        text = " ".join(parts)
        assert str(x) == (text[2:] if text.startswith("+ ") else "-" + text[2:])


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

    def test_tensor_of_elements(self):
        sig = AlgebraSignature(3, 2)
        x = AlgebraElement.generator(sig, 0) + 2 * AlgebraElement.one(sig)
        y = AlgebraElement.generator(sig, 1)
        t = tensor(x, y)
        assert t.coefficient(mono(0), mono(1)) == 1
        assert t.coefficient(mono(), mono(1)) == 2

    def test_bidegree_split_is_exhaustive(self):
        rng = random.Random(404)
        for _ in range(100):
            sig = randgen.random_signature(rng, max_n=5)
            x = randgen.random_tensor(rng, sig, max_terms=5)
            rebuilt = TensorElement.zero(sig)
            for s in range(sig.r + 1):
                for t in range(sig.r + 1):
                    rebuilt = rebuilt + x.bidegree_part(s, t)
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

    def test_one_more_factor_kills_the_product(self):
        # the certificate is sharp: appending any unused zero-divisor gives 0
        for n, r in [(3, 2), (5, 2), (5, 3)]:
            sig = AlgebraSignature(n, r)
            cert = lower_bound_certificate(sig)
            unused = [i for i in range(sig.n) if i != 0 and i not in cert.index_set]
            for i in unused:
                assert (full_product(cert) * zero_divisor(sig, i)).is_zero

    def test_pruned_slice_equals_slice_of_full_product(self):
        certs = [
            lower_bound_certificate(AlgebraSignature(n, r))
            for n in range(1, 12)
            for r in range(1, n + 1)
        ]
        for n, r in [(7, 3), (6, 4)]:
            sig = AlgebraSignature(n, r)
            k = min(n - 1, 2 * r - 2)
            certs.extend(
                lower_bound_certificate(sig, index_set)
                for index_set in itertools.combinations(range(1, n), k)
            )
        for cert in certs:
            assert cert.component == full_product(cert).bidegree_part(*cert.component_bidegree), cert

    def test_witness_equals_slice_coefficient(self):
        certs = [
            lower_bound_certificate(AlgebraSignature(n, r))
            for n in range(1, 13)
            for r in range(1, n + 1)
        ]
        for n, r in [(7, 3), (6, 4)]:
            sig = AlgebraSignature(n, r)
            k = min(n - 1, 2 * r - 2)
            certs.extend(
                lower_bound_certificate(sig, index_set)
                for index_set in itertools.combinations(range(1, n), k)
            )
        for cert in certs:
            left, right, coeff = cert.witness
            assert left.indices == (0, *cert.index_set[: cert.sig.r - 1]), cert
            assert right.indices == cert.index_set[cert.sig.r - 1 :], cert
            assert coeff == cert.component.coefficient(left, right) != 0, cert

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
        # pruned partial products never outgrow the C(k+1, r) lattice paths
        # into the checked bidegree, so one more factor at most doubles them
        sizes = []
        mul = TensorElement.__mul__

        def counting_mul(self, other):
            out = mul(self, other)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(TensorElement, "__mul__", counting_mul)
        for n in range(1, 13):
            for r in range(1, n + 1):
                sizes.clear()
                cert = lower_bound_certificate(AlgebraSignature(n, r))
                bound = 2 * math.comb(cert.k + 1, r)
                assert len(sizes) == cert.k, (n, r, sizes)
                assert max(sizes, default=0) <= bound, (n, r, sizes, bound)


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
            rep = zdcl_brute_force(AlgebraSignature(rec["n"], rec["r"]), cap=rec["n"])
            got = (rep.searched_length, rep.certified_minimum, list(rep.witness))
            assert got == (rec["searched_length"], rec["certified_minimum"], rec["witness"]), rec

    def test_brute_force_agrees_with_degree_one_search(self):
        for n, r in [(1, 1), (2, 2), (3, 2), (4, 2), (4, 3)]:
            sig = AlgebraSignature(n, r)
            rep = zdcl_brute_force(sig)
            assert rep.searched_length == zdcl_degree_one(sig) == rep.certified_minimum

    def test_brute_force_cap(self):
        with pytest.raises(InstanceTooLarge):
            zdcl_brute_force(AlgebraSignature(5, 2))
        rep = zdcl_brute_force(AlgebraSignature(5, 2), cap=5)
        assert rep.searched_length == 3

    def test_even_degree_elements_square_nontrivially(self):
        # a-bar squared is -2 a(x)a for even-degree a, so repetition matters
        sig = AlgebraSignature(3, 3)
        a = AlgebraElement.monomial(sig, [1, 2])
        one = AlgebraElement.one(sig)
        bar = tensor(one, a) - tensor(a, one)
        sq = bar * bar
        assert sq.coefficient(mono(1, 2), mono(1, 2)) == -2
