"""Division references that the program does not use: leading-term
elimination by any divisor, the Vandermonde as a list of binomial
factors, the alternant written out as its n! permutation terms, and the
prefix-sum division of such terms by the Vandermonde.  The tests compare
``gysin.schur.alternant_quotient`` with them."""

import heapq
from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from operator import add, getitem, neg, sub

from gysin.errors import InexactDivision, InvalidPartition, VariableCountMismatch
from gysin.poly import SparsePoly


def _negated(exps):
    return tuple(map(neg, exps))


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


def exact_div(dividend: SparsePoly, divisor: SparsePoly) -> SparsePoly:
    """Exact quotient q with q * divisor == dividend.

    Iterated leading-term elimination in the canonical order; the
    division is exact iff the eliminated remainder reaches zero, and any
    stuck leading term raises :class:`InexactDivision`.
    """
    return exact_quotient(dividend, [divisor])


def exact_quotient(dividend: SparsePoly, divisors) -> SparsePoly:
    """dividend / (d_1 * d_2 * ...), dividing by one divisor after another.

    Raises :class:`InexactDivision` as soon as one division is not exact.
    The chain runs on integer coefficients: each polynomial is scaled once
    to a common denominator, and the quotient becomes ``Fraction`` once,
    at the end.
    """
    divisors = list(divisors)
    for divisor in divisors:
        if not isinstance(divisor, SparsePoly) or divisor.nvars != dividend.nvars:
            raise VariableCountMismatch("divisor has a different variable count")
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
    terms, den = dividend.integer_terms()
    scale = Fraction(1, den)
    for divisor in divisors:
        divisor_terms, divisor_den = divisor.integer_terms()
        terms = divide_terms(terms, divisor_terms)
        scale *= divisor_den
    return SparsePoly(dividend.nvars, {e: c * scale for e, c in terms.items()})


def divide_terms(dividend: dict, divisor: dict) -> dict:
    """Leading-term elimination on term maps with integer coefficients.  A
    quotient coefficient stays an int while the divisor's leading
    coefficient divides it and becomes a Fraction where it does not."""
    lead = max(divisor)
    lead_c = divisor[lead]
    tail = [(e, c) for e, c in divisor.items() if e != lead]
    rem = dict(dividend)
    heap = [_negated(e) for e in rem]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    out: dict = {}
    while rem:
        exps = _negated(pop(heap))
        c = rem.pop(exps, None)
        if c is None:
            continue  # stale heap entry
        q_exps = tuple(map(sub, exps, lead))
        if min(q_exps, default=0) < 0:
            raise InexactDivision(f"leading term with exponents {exps} is not divisible")
        q_c, r = divmod(c, lead_c)
        if r:
            q_c = Fraction(c, lead_c)
        out[q_exps] = q_c
        for e, dc in tail:
            ke = tuple(map(add, q_exps, e))
            v = rem.get(ke)
            if v is None:
                rem[ke] = -q_c * dc
                push(heap, _negated(ke))
            else:
                v = v - q_c * dc
                if v:
                    rem[ke] = v
                else:
                    del rem[ke]
    return out


def permutation_sign(perm) -> int:
    """(-1)^(number of inversions) of a sequence of distinct values."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def alternant(exponents, nvars: int) -> dict:
    """det(z_c^(exponents_r)) as integer terms (exponents -> +-1): a signed
    sum over all permutations, empty when an exponent repeats."""
    if len(exponents) != nvars:
        raise InvalidPartition(f"need {nvars} exponents, got {len(exponents)}")
    if len(set(exponents)) < nvars:
        return {}
    # permutations() runs in lexicographic order, and a permutation of
    # range(m) starting with f has f inversions more than its tail
    signs = [1]
    for m in range(2, nvars + 1):
        signs = [-s if f & 1 else s for f in range(m) for s in signs]
    return dict(zip(permutations(exponents), signs))


def vandermonde_quotient(terms: dict, scale, nvars: int, squared: bool = False) -> SparsePoly:
    """scale * sum(c * x^e) over the integer ``terms`` (exponents -> c),
    divided exactly by the Vandermonde prod_{i<j}(x_i - x_j), or by
    prod_{i<j}(x_i^2 - x_j^2) when ``squared``.

    Raises :class:`InexactDivision` when the quotient is not a polynomial,
    and when ``squared`` and an exponent is odd.
    """
    half = 1 if squared else 0
    columns = [set(column) for column in zip(*terms)]
    if squared and any(k & 1 for column in columns for k in column):
        raise InexactDivision("the dividend is not a polynomial in the squares")
    top = max(map(max, columns), default=0) >> half
    # An exponent vector is packed into one integer, a field of ``width``
    # bits per variable, wide enough for the sum of two exponents; when
    # squared, the fields hold the halved exponents.
    width = max((2 * top).bit_length(), 1)
    shifts = range(0, width * nvars, width)
    fields = [{k: k >> half << s for k in column} for s, column in zip(shifts, columns)]
    packed = {sum(map(getitem, fields, e)): c for e, c in terms.items() if c}
    mask = (1 << width) - 1
    # all the differences x_i - x_j of one i before those of the next: at
    # rank 8 this handles half the terms that ordering by j does
    for i, si in enumerate(shifts):
        for sj in shifts[i + 1:]:
            packed = _divide_difference(packed, si, sj, mask)
    scale = Fraction(scale)
    return SparsePoly(nvars, {
        tuple((key >> s & mask) << half for s in shifts): c * scale
        for key, c in packed.items()
    })


def _divide_difference(packed: dict, si: int, sj: int, mask: int) -> dict:
    # Exact division by x_i - x_j of packed terms, whose fields for x_i and
    # x_j start at bits si < sj.  Multiplying by x_i - x_j keeps every other
    # exponent and a_i + a_j, so the terms split into groups on those: the
    # keys base + a_j * step.  In a group, sorted by a_j, the quotient's
    # coefficient at a_j = k is the prefix sum of the coefficients at
    # a_j <= k, and the division is exact iff the whole group sums to zero.
    # The quotient's key at a_j = k, with a_i = a_i + a_j - 1 - k, is
    # base + k * step - (1 << si).
    step = (1 << sj) - (1 << si)
    groups = defaultdict(list)
    for key in packed:
        groups[key - (key >> sj & mask) * step].append(key)
    low = 1 << si
    out: dict = {}
    for column in groups.values():
        column.sort()
        total = 0
        for key in column:
            if total:
                if key - last == step:
                    out[last - low] = total
                else:
                    out.update(dict.fromkeys(range(last - low, key - low, step), total))
            total += packed[key]
            last = key
        if total:
            raise InexactDivision("the dividend is not divisible by the Vandermonde")
    return out
