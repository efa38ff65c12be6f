"""Schur polynomials by three independent constructions.

* bialternant ratio: det(z_c^(lam_r + d - r)) / prod_{i<j}(z_i - z_j)
* generating sum over semistandard Young tableaux, built by the branching
  rule: the entries equal to k form a horizontal strip, so one variable
  is added at a time and no tableau is listed one by one
* dual Jacobi-Trudi determinant det(e_{lam'_i - i + j}) in the elementary
  symmetric polynomials

All three agree exactly and produce the standard Schur polynomial with
non-negative integer coefficients.  The push-forward engine expands no
Schur class on its residue path (it starts from the alternant of
lam + delta); the closed form's s_mu(t^2) comes from the tableau sum, and
the fixed-point sum evaluates s_lam as a determinant of its own.  The
bialternant serves ``schur --via bialternant`` and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from typing import Callable

from .errors import ExplicitSizeLimit, InvalidPartition
from .partitions import Partition
from .poly import SparsePoly, exact_quotient

# The alternant expansion is n!-sized and the fixed-point sum 2^n-sized;
# refuse larger ranks.
MAX_RANK = 8
# schur_from_elementary recurses once per column; refuse wider shapes, well
# inside Python's recursion limit.
MAX_DEPTH = 500
# schur_tableaux does at most one step per semistandard tableau and level
# (far fewer where shapes repeat); refuse shapes with more tableaux than
# this, a few seconds of work with three variables.
MAX_TABLEAUX = 1 << 22
# Each term of the tableau sum holds nvars exponents; refuse more tableaux
# times variables than the tableau guard lets through at MAX_RANK.
MAX_ENTRIES = MAX_TABLEAUX * MAX_RANK

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
    """The recursion guard of the Jacobi-Trudi construction."""
    if depth > MAX_DEPTH:
        raise ExplicitSizeLimit(f"{what} limited to {MAX_DEPTH}, got {depth}")


def tableau_count(lam: Partition, nvars: int) -> int:
    """s_lam(1, ..., 1): the number of semistandard tableaux of shape lam
    with entries in 1..nvars, by Weyl's dimension formula
    prod_{i<j} (lam_i - lam_j + j - i) / (j - i); pairs of equal parts
    contribute 1 and are skipped."""
    parts = lam.padded(nvars)
    pairs = [(parts[i] - parts[j], j - i) for i in range(min(len(lam), nvars))
             for j in range(i + 1, nvars) if parts[i] != parts[j]]
    return prod(d + gap for d, gap in pairs) // prod(gap for _, gap in pairs)


def _check_tableaux(lam: Partition, nvars: int):
    """The size guards of the tableau sum and of every construction of it,
    for a validated lam.

    A nonempty shape with k parts has at least nvars - k + 1 tableaux (the
    last box of row k holds any of k..nvars), so that bound is checked
    before ``tableau_count`` pads lam to nvars parts.
    """
    least = nvars * (nvars - lam.length + 1 if lam.length else 1)
    if least > MAX_ENTRIES:
        raise ExplicitSizeLimit(f"tableaux times variables limited to {MAX_ENTRIES}, "
                                f"got at least {least}")
    count = tableau_count(lam, nvars)
    if count > MAX_TABLEAUX:
        raise ExplicitSizeLimit(f"semistandard tableaux limited to {MAX_TABLEAUX}, got {count}")
    if count * nvars > MAX_ENTRIES:
        raise ExplicitSizeLimit(f"tableaux times variables limited to {MAX_ENTRIES}, "
                                f"got {count * nvars}")


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
    """det(z_c^(exponents_r)): signed sum over all permutations, zero when
    an exponent repeats."""
    if len(exponents) != nvars:
        raise InvalidPartition(f"need {nvars} exponents, got {len(exponents)}")
    if len(set(exponents)) < nvars:
        return SparsePoly.zero(nvars)
    return SparsePoly(nvars, dict(zip(permutations(exponents),
                                      map(permutation_sign, permutations(range(nvars))))))


def schur_bialternant(lam: Partition, nvars: int) -> SparsePoly:
    """Alternant det(z_c^(lam_r + nvars - r)) divided exactly by the
    Vandermonde prod_{i<j}(z_i - z_j)."""
    check_size(lam, nvars)
    shifted = tuple(lam.part(r) + nvars - 1 - r for r in range(nvars))
    return exact_quotient(alternant(shifted, nvars), vandermonde_factors(nvars))


def _interlacing(mu: tuple, k: int):
    """The partitions nu with at most k - 1 parts such that mu/nu is a
    horizontal strip: mu_1 >= nu_1 >= mu_2 >= nu_2 >= ... >= 0."""
    for nu in product(*(range(lo, hi + 1) for lo, hi in zip(mu[1:] + (0,), mu[:k - 1]))):
        while nu and not nu[-1]:
            nu = nu[:-1]
        yield nu


def schur_tableaux(lam: Partition, nvars: int) -> SparsePoly:
    """Sum of content monomials over all semistandard tableaux of shape lam.

    Built by the branching rule, one variable at a time: the boxes holding
    the largest entry k form a horizontal strip, so

        s_mu(z_1..z_k) = sum over nu of s_nu(z_1..z_(k-1)) * z_k^(|mu| - |nu|)

    over the nu interlacing mu.  Each shape is built once per number of
    variables, the tableaux are never listed one by one, and the loop
    runs nvars levels deep whatever the number of boxes.  While building,
    an exponent vector is one integer with ``width`` bits per variable
    (a horizontal strip has at most one box per column, so no exponent
    exceeds lam_1), and adding z_k's exponent is one addition, not a copy
    of the vector.
    """
    _validate(lam, nvars)
    _check_tableaux(lam, nvars)
    levels = [{lam.parts}]
    for k in range(nvars, 0, -1):
        levels.append({nu for mu in levels[-1] for nu in _interlacing(mu, k)})
    width = max(lam.part(0).bit_length(), 1)
    built = {(): {0: 1}}
    for k, shapes in enumerate(reversed(levels[:-1]), 1):
        shift = width * (k - 1)
        below, built = built, {}
        for mu in shapes:
            weight, terms = sum(mu), {}
            for nu in _interlacing(mu, k):
                last = weight - sum(nu) << shift
                for key, c in below[nu].items():
                    terms[key + last] = terms.get(key + last, 0) + c
            built[mu] = terms
    mask = (1 << width) - 1
    shifts = range(0, width * nvars, width)
    return SparsePoly(nvars, {
        tuple(key >> s & mask for s in shifts): c for key, c in built[lam.parts].items()
    })


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
    """Schur polynomial via the determinant in elementary symmetric
    polynomials, refused where the tableau sum is."""
    _validate(lam, nvars)
    # the column guard of schur_from_elementary keeps its place before the size guards
    check_depth(lam.part(0), "Jacobi-Trudi columns")
    _check_tableaux(lam, nvars)
    cache: dict = {}

    def e_of(k: int) -> SparsePoly:
        if k not in cache:
            cache[k] = elementary_symmetric(k, nvars)
        return cache[k]

    return schur_from_elementary(lam, e_of, nvars)


def schur_squared_args(mu: Partition, nvars: int) -> SparsePoly:
    """s_mu evaluated at squared variables: s_mu(t_1^2, ..., t_n^2), from
    the tableau sum."""
    return schur_tableaux(mu, nvars).square_variables()

