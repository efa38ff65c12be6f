"""Schur polynomials by two independent constructions, and the division of
alternants by the Vandermonde.

* bialternant ratio: det(z_c^(lam_r + d - r)) / prod_{i<j}(z_i - z_j)
* generating sum over semistandard Young tableaux, built by the branching
  rule: the entries equal to k form a horizontal strip, so one variable
  is added at a time and no tableau is listed one by one

Both agree exactly and produce the standard Schur polynomial with
non-negative integer coefficients.  ``alternant_quotient`` divides a sum
of alternants by the Vandermonde in the monomial-symmetric basis, so no
alternant is written out as its n! terms: it computes the bialternant
ratio and the residue path's division.  The push-forward engine expands
no Schur class on its residue path (it starts from the alternant of
lam + delta); the closed form's s_mu(t^2) comes from the tableau sum, and
the fixed-point sum evaluates s_lam as a determinant of its own; neither
calls the division.  The bialternant serves ``schur --via bialternant``
and the tests.

One budget, MAX_STEPS, bounds both constructions.  Before any work, a
lower bound on the number of terms times the variables must fit in it;
the tableau sum then counts its steps and checks, before each phase,
that the phase keeps the count within the budget.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import comb, prod
from operator import add, sub
from typing import Mapping

from .errors import ExplicitSizeLimit, InexactDivision, InvalidPartition
from .partitions import Partition
from .poly import SparsePoly

# No computation here is n!-sized; the fixed-point sum over 2^n points
# is what bounds the rank.  Larger ranks are refused.
MAX_RANK = 8
# The budget of a Schur construction.  A step of the tableau sum is one
# (mu, nu) pair or one term read from s_nu; with T tableaux and n
# variables there are at most 2*n*T of them, so every shape with
# n*T <= 2^25 fits.  The output's terms times n must fit too.  The
# slowest shapes it admits, two long rows in three variables, take
# about 40 s.
MAX_STEPS = 1 << 26

_ONE = Fraction(1)


def _validate(lam: Partition, nvars: int):
    if nvars < 1:
        raise InvalidPartition(f"need at least one variable, got {nvars}")
    if lam.length > nvars:
        raise InvalidPartition(f"partition {lam} has more than {nvars} parts")


def check_rank(nvars: int):
    """The rank guard of every push-forward and Schur construction."""
    if nvars > MAX_RANK:
        raise ExplicitSizeLimit(f"rank limited to {MAX_RANK}, got {nvars}")


def _check_budget(what: str, least: int):
    if least > MAX_STEPS:
        raise ExplicitSizeLimit(f"{what} limited to {MAX_STEPS}, got at least {least}")


def _check_terms(lam: Partition, nvars: int):
    """Refuse, before any work, a validated lam whose s_lam has more terms
    times variables than the budget; else return the lower bound on the
    terms.

    Two lower bounds on the terms: the distinct permutations of lam padded
    to nvars parts, and C(lam_1 - lam_2 + nvars - 1, nvars - 1), the
    monomials z^(lam_2, lam_2, lam_3, ..., lam_n) * z^alpha with
    |alpha| = lam_1 - lam_2, all dominated by lam.  The second is taken
    only once the first fits, which keeps nvars small where it is large.
    """
    least, free = 1, nvars
    for repeats in Counter(lam.parts).values():
        least *= comb(free, repeats)
        free -= repeats
    if least * nvars <= MAX_STEPS:
        gap = lam.part(0) - lam.part(1)
        least = max(least, comb(gap + nvars - 1, min(gap, nvars - 1)))
    _check_budget("Schur terms times variables", least * nvars)
    return least


def check_size(lam: Partition, nvars: int):
    """The part-count and rank guards of every Schur computation."""
    _validate(lam, nvars)
    check_rank(nvars)


def monomial_symmetric(lam: Partition, nvars: int) -> SparsePoly:
    """m_lam: the sum of all distinct permutations of the exponent vector."""
    _validate(lam, nvars)
    return SparsePoly(nvars, dict.fromkeys(distinct_permutations(lam.padded(nvars)), _ONE))


def distinct_permutations(values):
    """Each distinct rearrangement of ``values`` once, in increasing lex
    order: the next one is found in place, so a vector with repeated
    entries costs its distinct rearrangements, not all of them."""
    a = sorted(values)
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def straighten(exponents) -> tuple:
    """(gamma, sign): the exponents sorted decreasingly, and the sign of
    that sort, so that the alternant det(z_c^(exponents_r)) is sign times
    the alternant of gamma; sign is 0 when an exponent repeats."""
    gamma = list(exponents)
    sign = 1
    # insertion sort: an alternant's shifted exponents come nearly sorted
    for i in range(1, len(gamma)):
        k = gamma[i]
        j = i
        while j and gamma[j - 1] < k:
            gamma[j] = gamma[j - 1]
            j -= 1
            sign = -sign
        if j and gamma[j - 1] == k:
            return None, 0
        gamma[j] = k
    return tuple(gamma), sign


def alternant_quotient(coeffs: Mapping, scale, nvars: int, squared: bool = False) -> SparsePoly:
    """scale * sum(c * a_gamma) over ``coeffs`` (gamma -> integer c),
    divided exactly by the Vandermonde a_delta = prod_{i<j}(x_i - x_j), or
    by prod_{i<j}(x_i^2 - x_j^2) when ``squared``.  a_gamma is the
    alternant det(x_c^(gamma_r)) of a strictly decreasing gamma.

    The quotient is peeled off in the monomial-symmetric basis: with alpha
    over the distinct permutations of a partition beta,
    m_beta * a_delta = sum of a_(alpha + delta), whose lex-largest
    alternant is a_(beta + delta) and every other one lex-smaller.  So the
    lex-largest gamma left, with coefficient q, gives q * m_(gamma - delta),
    and the straightened a_(alpha + delta) of every alpha != beta are
    subtracted.  No alternant is expanded: the work is one straightening
    per term of the quotient.  When ``squared``, the same holds in the
    squares with every exponent doubled, and an odd exponent raises
    :class:`InexactDivision`.  A gamma that is not strictly decreasing
    raises ``ValueError``.
    """
    step = 2 if squared else 1
    delta = range(step * (nvars - 1), -1, -step)
    if any(a <= b for gamma in coeffs for a, b in zip(gamma, gamma[1:])):
        raise ValueError("alternants are taken on strictly decreasing exponents")
    if squared and any(k & 1 for gamma in coeffs for k in gamma):
        raise InexactDivision("the dividend is not a polynomial in the squares")
    left = dict(coeffs)
    # a max-heap of the gammas left, as negated vectors; a gamma whose
    # coefficient cancels to 0 stays, and is skipped when popped
    heap = [tuple(-k for k in gamma) for gamma in left]
    heapify(heap)
    scale = Fraction(scale)
    out: dict = {}
    while heap:
        gamma = tuple(-k for k in heappop(heap))
        q = left.pop(gamma, 0)
        if not q:
            continue
        beta = tuple(map(sub, gamma, delta))
        alphas = list(distinct_permutations(beta))
        out.update(dict.fromkeys(alphas, q * scale))
        alphas.pop()  # beta itself, the lex-largest
        for alpha in alphas:
            key, sign = straighten(map(add, alpha, delta))
            if not sign:
                continue
            if key not in left:
                heappush(heap, tuple(-k for k in key))
            left[key] = left.get(key, 0) - sign * q
    return SparsePoly._raw(nvars, out)


def schur_bialternant(lam: Partition, nvars: int) -> SparsePoly:
    """Alternant det(z_c^(lam_r + nvars - r)) divided exactly by the
    Vandermonde prod_{i<j}(z_i - z_j)."""
    check_size(lam, nvars)
    _check_terms(lam, nvars)
    shifted = tuple(lam.part(r) + nvars - 1 - r for r in range(nvars))
    return alternant_quotient({shifted: 1}, 1, nvars)


def _interlacing(mu: tuple, k: int):
    """The partitions nu with at most k - 1 parts such that mu/nu is a
    horizontal strip: mu_1 >= nu_1 >= mu_2 >= nu_2 >= ... >= 0."""
    for nu in product(*(range(lo, hi + 1) for lo, hi in zip(mu[1:] + (0,), mu[:k - 1]))):
        while nu and not nu[-1]:
            nu = nu[:-1]
        yield nu


def _interlacing_count(mu: tuple, k: int) -> int:
    """How many nu ``_interlacing(mu, k)`` yields: a product of row gaps."""
    return prod(hi - lo + 1 for lo, hi in zip(mu[1:] + (0,), mu[:k - 1]))


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

    A shape with one term, empty or nvars equal rows, is returned at once:
    its nvars levels of one shape each are work the step budget would not
    bound.  Every other shape has nvars >= 2.  Its steps are counted
    against MAX_STEPS before each phase: the (mu, nu) pairs of a level
    before they are listed, and the terms a level reads from s_nu, each
    s_nu counted once per mu it interlaces, before they are read.  s_lam
    reads each s_mu of the level below it once, and s_mu has at most as
    many terms as it reads; so the last two levels count twice the reads
    of level nvars - 1, and each s_mu of that level is folded into s_lam
    as soon as it is built, never held with the others.
    """
    _validate(lam, nvars)
    if _check_terms(lam, nvars) == 1:
        return SparsePoly(nvars, {lam.padded(nvars): 1})
    steps = 0
    levels = [Counter([lam.parts])]
    for k in range(nvars, 0, -1):
        steps += sum(_interlacing_count(mu, k) for mu in levels[-1])
        _check_budget("tableau-sum steps", steps)
        levels.append(Counter(nu for mu in levels[-1] for nu in _interlacing(mu, k)))
    levels.reverse()
    width = max(lam.part(0).bit_length(), 1)

    def branch(mu, k, below):
        """s_mu(z_1..z_k), packed, from s_nu(z_1..z_(k-1)) = below(nu)."""
        shift, weight, terms = width * (k - 1), sum(mu), {}
        for nu in _interlacing(mu, k):
            last = weight - sum(nu) << shift
            for key, c in below(nu).items():
                terms[key + last] = terms.get(key + last, 0) + c
        return terms

    def reads(k):
        return sum(parents * len(built[nu]) for nu, parents in levels[k - 1].items())

    built = {(): {0: 1}}
    for k in range(1, nvars - 1):
        steps += reads(k)
        _check_budget("tableau-sum steps", steps)
        built = {mu: branch(mu, k, built.__getitem__) for mu in levels[k]}
    steps += 2 * reads(nvars - 1)
    _check_budget("tableau-sum steps", steps)
    top = branch(lam.parts, nvars, lambda mu: branch(mu, nvars - 1, built.__getitem__))
    mask = (1 << width) - 1
    shifts = range(0, width * nvars, width)
    return SparsePoly(nvars, {
        tuple(key >> s & mask for s in shifts): c for key, c in top.items()
    })


def schur_squared_args(mu: Partition, nvars: int) -> SparsePoly:
    """s_mu evaluated at squared variables: s_mu(t_1^2, ..., t_n^2), from
    the tableau sum."""
    return schur_tableaux(mu, nvars).square_variables()

