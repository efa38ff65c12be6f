"""Division references that the program does not use: leading-term
elimination by any divisor, and the Vandermonde as a list of binomial
factors.  The tests compare ``gysin.poly.vandermonde_quotient`` with
them."""

import heapq
from fractions import Fraction
from operator import add, neg, sub

from gysin.errors import InexactDivision, VariableCountMismatch
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
