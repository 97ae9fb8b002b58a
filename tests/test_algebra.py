"""Exterior algebra and tensor square arithmetic, checked against the naive
oracle and against frozen hand-computed expansions."""

import itertools
import json
import math
import operator
import random
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
    multiply_monomials,
    tensor,
    zdcl_brute_force,
    zdcl_degree_one,
    zero_divisor,
)
from torustc.algebra import SLICE_TERM_CAP


def mono(*indices):
    return ExteriorMonomial.from_indices(indices)


class TestSignature:
    def test_valid_range(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                assert sig.truncation == r - 1

    def test_rejects_r_above_n(self):
        with pytest.raises(InvalidSignature, match="r exceeds n"):
            AlgebraSignature(2, 3)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(InvalidSignature):
            AlgebraSignature(3, 0)

    def test_basis_size_closed_form(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                sig = AlgebraSignature(n, r)
                want = 2 * sum(math.comb(n - 1, k) for k in range(r))
                basis = list(sig.basis_bits())
                assert len(basis) == len(set(basis)) == want == sig.basis_size()


class TestMonomialProducts:
    def test_sign_matches_bubble_sort_oracle(self):
        rng = random.Random(101)
        sig = AlgebraSignature(6, 6)
        pool = list(sig.basis_bits())
        for _ in range(2000):
            a = ExteriorMonomial(rng.choice(pool))
            b = ExteriorMonomial(rng.choice(pool))
            got = multiply_monomials(a, b, sig)
            want = naive.mono_mul(a.indices, b.indices, 6, 6)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0], got[1].indices) == want

    def test_truncation_kills_wide_monomials(self):
        sig = AlgebraSignature(4, 2)
        assert multiply_monomials(mono(1), mono(2), sig) is None
        assert multiply_monomials(mono(0), mono(2), sig) is not None

    def test_repeated_generator_is_zero(self):
        sig = AlgebraSignature(4, 3)
        assert multiply_monomials(mono(1), mono(1), sig) is None

    def test_anticommutation_of_generators(self):
        sig = AlgebraSignature(5, 4)
        s1, m1 = multiply_monomials(mono(1), mono(3), sig)
        s2, m2 = multiply_monomials(mono(3), mono(1), sig)
        assert m1 == m2 and s1 == -s2 == 1


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
        assert set(cert.component.coefficients()) <= {-1, 1}
        assert not cert.product.is_zero

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
            assert set(cert.product.coefficients()) <= {-1, 1}

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
                assert (cert.product * zero_divisor(sig, i)).is_zero

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
            assert cert.component == cert.product.bidegree_part(*cert.component_bidegree), cert

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

    def test_degree_one_respects_max_len(self):
        assert zdcl_degree_one(AlgebraSignature(6, 4), max_len=3) == 3

    def test_degree_one_chain_size_capped(self):
        # a product of more than SLICE_TERM_CAP / 2 terms is never multiplied
        with pytest.raises(InstanceTooLarge, match="capped"):
            zdcl_degree_one(AlgebraSignature(30, 15))

    def test_degree_one_counts_before_refusing(self):
        # the e0 chain at (18, 11) passes SLICE_TERM_CAP / 2 terms, but its
        # next product has 175,032 terms, under the cap, so it still answers
        assert zdcl_degree_one(AlgebraSignature(18, 11)) == 18

    @pytest.mark.parametrize("n", range(1, 10))
    def test_degree_one_matches_exhaustive_subset_search(self, n):
        for r in range(1, n + 1):
            sig = AlgebraSignature(n, r)
            for max_len in (None, *range(1, n + 1)):
                assert zdcl_degree_one(sig, max_len) == naive.zdcl_degree_one_exhaustive(
                    sig, max_len
                ), (n, r, max_len)

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
            assert rep.matches_certified

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
