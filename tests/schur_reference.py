"""Schur references that the program does not use: the dual Jacobi-Trudi
determinant in elementary symmetric polynomials, and Weyl's count of
semistandard tableaux.  The tests compare them with ``gysin.schur``."""

from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Callable

from gysin.partitions import Partition
from gysin.poly import SparsePoly


def elementary_symmetric(k: int, nvars: int) -> SparsePoly:
    """e_k(z_1, ..., z_nvars); zero outside 0 <= k <= nvars."""
    if k < 0 or k > nvars:
        return SparsePoly.zero(nvars)
    terms = {}
    for subset in combinations(range(nvars), k):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = Fraction(1)
    return SparsePoly(nvars, terms)


def schur_from_elementary(lam: Partition, e_of: Callable[[int], SparsePoly], nvars: int) -> SparsePoly:
    """Dual Jacobi-Trudi determinant det(E_{lam'_i - i + j}), size lam_1.

    ``e_of(k)`` supplies the polynomial standing for e_k and must return
    zero outside its valid range and one at k == 0.  Expansion is by
    recursive minors memoized on the remaining column set.
    """
    size = lam.part(0)
    if size == 0:
        return SparsePoly.constant(nvars, 1)
    conj = lam.conjugate().padded(size)
    memo: dict = {}

    def minor(cols):
        if not cols:
            return SparsePoly.constant(nvars, 1)
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = size - len(cols)
        total = SparsePoly.zero(nvars)
        for pos, col in enumerate(cols):
            entry = e_of(conj[row] - row + col)
            if not entry:
                continue
            term = entry * minor(cols[:pos] + cols[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    return minor(tuple(range(size)))


def schur_jacobi_trudi(lam: Partition, nvars: int) -> SparsePoly:
    """s_lam(z_1, ..., z_nvars) from the dual Jacobi-Trudi determinant."""
    cache: dict = {}

    def e_of(k: int) -> SparsePoly:
        if k not in cache:
            cache[k] = elementary_symmetric(k, nvars)
        return cache[k]

    return schur_from_elementary(lam, e_of, nvars)


def tableau_count(lam: Partition, nvars: int) -> int:
    """s_lam(1, ..., 1): the number of semistandard tableaux of shape lam
    with entries in 1..nvars, by Weyl's dimension formula
    prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    parts = lam.padded(nvars)
    pairs = [(parts[i] - parts[j], j - i) for i in range(nvars) for j in range(i + 1, nvars)]
    return prod(d + gap for d, gap in pairs) // prod(gap for _, gap in pairs)
