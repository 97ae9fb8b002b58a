"""Slow reference arithmetic used only by the tests.

Monomials are sorted tuples of generator indices, signs come from explicit
bubble sorting, elements are plain dicts from monomial to coefficient, and
tensor elements are dicts keyed by monomial pairs.  Everything is written to
be obviously correct rather than fast, so the bit-set implementation in the
package can be checked against it term by term.

Truncation convention: generator 0 is the circle generator and is always
allowed; a monomial containing r or more generators with index >= 1 is zero.
"""

from __future__ import annotations

import itertools


def sort_with_sign(indices):
    """Sort a generator sequence, returning (sign, tuple) or None on repeats."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
            elif seq[j] == seq[j + 1]:
                return None
    return sign, tuple(seq)


def mono_mul(a, b, n, r):
    """Signed product of two sorted monomial tuples, or None when zero."""
    for i in itertools.chain(a, b):
        if not 0 <= i < n:
            raise ValueError(f"generator index {i} out of range for n={n}")
    merged = sort_with_sign(a + b)
    if merged is None:
        return None
    sign, mono = merged
    if sum(1 for i in mono if i >= 1) > r - 1:
        return None
    return sign, mono


def elem_add(x, y):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def elem_scale(x, k):
    return {m: k * c for m, c in x.items() if k * c}


def elem_mul(x, y, n, r):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            prod = mono_mul(ma, mb, n, r)
            if prod is None:
                continue
            sign, mono = prod
            out[mono] = out.get(mono, 0) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def tensor_add(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def tensor_scale(x, k):
    return {key: k * c for key, c in x.items() if k * c}


def tensor_mul(x, y, n, r):
    """Product in the tensor square with the sign rule for crossing factors."""
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            left = mono_mul(a1, a2, n, r)
            if left is None:
                continue
            right = mono_mul(b1, b2, n, r)
            if right is None:
                continue
            koszul = -1 if (len(b1) % 2) and (len(a2) % 2) else 1
            s1, ma = left
            s2, mb = right
            coeff = koszul * s1 * s2 * c1 * c2
            key = (ma, mb)
            out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def zero_div(i):
    """1 (x) e_i - e_i (x) 1 as a naive tensor dict."""
    return {((), (i,)): 1, ((i,), ()): -1}


def contract(x, n, r):
    """Multiply the two tensor legs together (no extra sign)."""
    out = {}
    for (a, b), c in x.items():
        prod = mono_mul(a, b, n, r)
        if prod is None:
            continue
        sign, mono = prod
        out[mono] = out.get(mono, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def basis_monomials(n, r, positive_only=False):
    """All basis monomials: subsets of {1..n-1} of size <= r-1, with or without 0."""
    out = []
    rest = range(1, n)
    for k in range(min(r - 1, n - 1) + 1):
        for combo in itertools.combinations(rest, k):
            out.append(tuple(combo))
            out.append((0,) + tuple(combo))
    if positive_only:
        out = [m for m in out if m]
    return sorted(out, key=lambda m: (len(m), m))


def certificate_product(n, r, index_set):
    """Expand the zero-divisor product over {0} followed by index_set."""
    prod = {((), ()): 1}
    for i in (0, *index_set):
        prod = tensor_mul(prod, zero_div(i), n, r)
    return prod


def bidegree_part(x, s, t):
    return {(a, b): c for (a, b), c in x.items() if len(a) == s and len(b) == t}


def zdcl_degree_one_exhaustive(sig, max_len=None):
    """Longest nonzero product of distinct generator zero-divisors, by brute force.

    The reference for the package's symmetry-reduced search: it grows every
    nonzero subset product of {e0..e{n-1}} one factor at a time (subsets of
    a nonzero product are nonzero, so zero products are dropped) and stops
    at max_len factors when that is given.
    It multiplies with the package's tensor product, which the tests check
    against tensor_mul above, because the naive product is too slow for
    every subset at n = 9.
    """
    from torustc.algebra import zero_divisor

    limit = sig.n if max_len is None else min(max_len, sig.n)
    gens = [zero_divisor(sig, i) for i in range(sig.n)]
    frontier = [(i, g) for i, g in enumerate(gens) if not g.is_zero]
    if not frontier:
        return 0
    length = 1
    while length < limit:
        grown = []
        for last, prod in frontier:
            for j in range(last + 1, sig.n):
                if gens[j].is_zero:
                    continue
                p2 = prod * gens[j]
                if not p2.is_zero:
                    grown.append((j, p2))
        if not grown:
            break
        frontier = grown
        length += 1
    return length
