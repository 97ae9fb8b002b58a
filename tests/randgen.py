"""Seeded random element builders shared by the unit and acceptance tests,
and the bridge between the packed kernel's bit-set monomials and the naive
oracle's index tuples."""

from __future__ import annotations

import random
from functools import lru_cache

from torustc import AlgebraElement, AlgebraSignature, TensorElement


def random_signature(rng: random.Random, max_n: int = 6) -> AlgebraSignature:
    n = rng.randint(1, max_n)
    return AlgebraSignature(n, rng.randint(1, n))


@lru_cache(maxsize=None)
def _basis_pool(sig: AlgebraSignature) -> tuple[int, ...]:
    return tuple(sig.basis_bits())


@lru_cache(maxsize=None)
def _pairs_by_total_degree(sig: AlgebraSignature) -> dict[int, list[tuple[int, int]]]:
    pool = _basis_pool(sig)
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for a in pool:
        for b in pool:
            by_degree.setdefault(a.bit_count() + b.bit_count(), []).append((a, b))
    return by_degree


def random_basis_bits(rng: random.Random, sig: AlgebraSignature) -> int:
    return rng.choice(_basis_pool(sig))


def random_element(
    rng: random.Random, sig: AlgebraSignature, max_terms: int = 3, coeff_bound: int = 3
) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[random_basis_bits(rng, sig)] = rng.randint(-coeff_bound, coeff_bound)
    return AlgebraElement(sig, terms)


def random_tensor(
    rng: random.Random, sig: AlgebraSignature, max_terms: int = 3, coeff_bound: int = 3
) -> TensorElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (random_basis_bits(rng, sig), random_basis_bits(rng, sig))
        terms[key] = rng.randint(-coeff_bound, coeff_bound)
    return TensorElement(sig, terms)


def random_homogeneous_tensor(
    rng: random.Random, sig: AlgebraSignature, max_terms: int = 3, coeff_bound: int = 3
) -> TensorElement:
    """Random element concentrated in one total degree (it may still be zero)."""
    by_degree = _pairs_by_total_degree(sig)
    keys = by_degree[rng.choice(sorted(by_degree))]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(keys)] = rng.randint(-coeff_bound, coeff_bound)
    return TensorElement(sig, terms)


def bits_of(indices) -> int:
    """The bit-set monomial of distinct, non-negative generator indices."""
    bits = 0
    for i in indices:
        if i < 0 or (bits >> i) & 1:
            raise ValueError(f"negative or repeated generator index {i}")
        bits |= 1 << i
    return bits


def indices_of(bits: int) -> tuple[int, ...]:
    """The generator indices of a bit-set monomial, in increasing order."""
    return tuple(i for i in range(bits.bit_length()) if (bits >> i) & 1)


def to_naive_element(x: AlgebraElement) -> dict:
    return {indices_of(bits): c for bits, c in x.terms()}


def to_naive_tensor(x: TensorElement) -> dict:
    return {(indices_of(a), indices_of(b)): c for a, b, c in x.terms()}


def from_naive_element(sig: AlgebraSignature, terms: dict) -> AlgebraElement:
    return AlgebraElement(sig, {bits_of(m): c for m, c in terms.items()})


def from_naive_tensor(sig: AlgebraSignature, terms: dict) -> TensorElement:
    return TensorElement(sig, {(bits_of(a), bits_of(b)): c for (a, b), c in terms.items()})
