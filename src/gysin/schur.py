"""Schur polynomials by three independent constructions.

* bialternant ratio: det(z_c^(lam_r + d - r)) / prod_{i<j}(z_i - z_j)
* generating sum over semistandard Young tableaux
* dual Jacobi-Trudi determinant det(e_{lam'_i - i + j}) in the elementary
  symmetric polynomials

All three agree exactly and produce the standard Schur polynomial with
non-negative integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable

from .errors import ExplicitSizeLimit, InvalidPartition
from .partitions import Partition, enumerate_ssyt
from .poly import SparsePoly, exact_quotient

# The alternant expansion is n!-sized and the fixed-point sum 2^n-sized;
# refuse larger ranks.
MAX_RANK = 8
# enumerate_ssyt recurses once per box and schur_from_elementary once per
# column; refuse deeper shapes, well inside Python's recursion limit.
MAX_DEPTH = 500

_ONE = Fraction(1)


def _validate(lam: Partition, nvars: int):
    if nvars < 1:
        raise InvalidPartition(f"need at least one variable, got {nvars}")
    if lam.length > nvars:
        raise InvalidPartition(f"partition {lam} has more than {nvars} parts")


def check_rank(nvars: int):
    """The rank guard of every n!-sized computation."""
    if nvars > MAX_RANK:
        raise ExplicitSizeLimit(f"rank limited to {MAX_RANK}, got {nvars}")


def check_depth(depth: int, what: str):
    """The recursion guard of the tableau and Jacobi-Trudi constructions."""
    if depth > MAX_DEPTH:
        raise ExplicitSizeLimit(f"{what} limited to {MAX_DEPTH}, got {depth}")


def check_size(lam: Partition, nvars: int):
    """The part-count and rank guards of every n!-sized Schur computation."""
    _validate(lam, nvars)
    check_rank(nvars)


def elementary_symmetric(k: int, nvars: int) -> SparsePoly:
    """e_k(z_1, ..., z_nvars); zero outside 0 <= k <= nvars."""
    if k < 0 or k > nvars:
        return SparsePoly.zero(nvars)
    terms = {}
    for subset in combinations(range(nvars), k):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = _ONE
    return SparsePoly(nvars, terms)


def monomial_symmetric(lam: Partition, nvars: int) -> SparsePoly:
    """m_lam: the sum of all distinct permutations of the exponent vector."""
    _validate(lam, nvars)
    base = lam.padded(nvars)
    return SparsePoly(nvars, {e: _ONE for e in set(permutations(base))})


def vandermonde_factors(nvars: int, *, reverse=False, squared=False) -> list:
    """Binomial factors (z_i - z_j) over pairs i < j.

    ``reverse`` flips each difference to (z_j - z_i); ``squared`` replaces
    the variables by their squares.
    """
    step = 2 if squared else 1
    out = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            lead, trail = (j, i) if reverse else (i, j)
            e_lead = [0] * nvars
            e_lead[lead] = step
            e_trail = [0] * nvars
            e_trail[trail] = step
            out.append(SparsePoly(nvars, {tuple(e_lead): 1, tuple(e_trail): -1}))
    return out


def permutation_sign(perm) -> int:
    """(-1)^(number of inversions) of a sequence of distinct values."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def alternant(exponents, nvars: int) -> SparsePoly:
    """det(z_c^(exponents_r)): signed sum over all permutations."""
    if len(exponents) != nvars:
        raise InvalidPartition(f"need {nvars} exponents, got {len(exponents)}")
    terms: dict = {}
    for perm in permutations(range(nvars)):
        e = [0] * nvars
        for r, var in enumerate(perm):
            e[var] = exponents[r]
        key = tuple(e)
        c = terms.get(key, 0) + permutation_sign(perm)
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return SparsePoly(nvars, terms)


def schur_bialternant(lam: Partition, nvars: int) -> SparsePoly:
    """Alternant det(z_c^(lam_r + nvars - r)) divided exactly by the
    Vandermonde prod_{i<j}(z_i - z_j)."""
    check_size(lam, nvars)
    shifted = tuple(lam.part(r) + nvars - 1 - r for r in range(nvars))
    return exact_quotient(alternant(shifted, nvars), vandermonde_factors(nvars))


def schur_tableaux(lam: Partition, nvars: int) -> SparsePoly:
    """Sum of content monomials over all semistandard tableaux of shape lam.

    Enumeration-backed oracle; only sensible for small shapes.
    """
    _validate(lam, nvars)
    check_depth(lam.weight, "tableau boxes")
    terms: dict = {}
    for tableau in enumerate_ssyt(lam, nvars):
        e = tableau.content(nvars)
        terms[e] = terms.get(e, 0) + 1
    return SparsePoly(nvars, terms)


def schur_from_elementary(lam: Partition, e_of: Callable[[int], SparsePoly], nvars: int) -> SparsePoly:
    """Dual Jacobi-Trudi determinant det(E_{lam'_i - i + j}), size lam_1.

    ``e_of(k)`` supplies the polynomial standing for e_k and must return
    zero outside its valid range and one at k == 0.  Expansion is by
    recursive minors memoized on the remaining column set.
    """
    size = lam.part(0)
    check_depth(size, "Jacobi-Trudi columns")
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
            sub = minor(cols[:pos] + cols[pos + 1:])
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    return minor(tuple(range(size)))


def schur_dual_jacobi_trudi(lam: Partition, nvars: int) -> SparsePoly:
    """Schur polynomial via the determinant in elementary symmetric polynomials."""
    _validate(lam, nvars)
    cache: dict = {}

    def e_of(k: int) -> SparsePoly:
        if k not in cache:
            cache[k] = elementary_symmetric(k, nvars)
        return cache[k]

    return schur_from_elementary(lam, e_of, nvars)


def schur_squared_args(mu: Partition, nvars: int) -> SparsePoly:
    """s_mu evaluated at squared variables: s_mu(t_1^2, ..., t_n^2)."""
    _validate(mu, nvars)
    return schur_bialternant(mu, nvars).square_variables()

