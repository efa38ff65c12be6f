"""The fixed-point oracle's determinant as its n! signed permutation terms,
a reference that the program does not use.  The tests compare the Laplace
totals and the Schur fixed-point sum of ``gysin.localization`` with it."""

from fractions import Fraction
from itertools import permutations
from math import prod

from gysin.localization import euler_factor, fixed_points
from gysin.spaces import SpaceKind


def cycle_sign(perm) -> int:
    """(-1)^(n - number of cycles) of a permutation of range(n): each
    element after the first of a cycle is one transposition."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        j = perm[start]
        while not seen[j] and j != start:
            seen[j] = True
            sign = -sign
            j = perm[j]
        seen[start] = True
    return sign


def permutation_terms(lam, n: int) -> dict:
    """det(x_j^(a_i)), a = lam + delta with delta = (n-1, ..., 0), as a map
    exponents -> sign: the permutation ``perm`` gives the term
    prod_j x_j^(a_perm[j])."""
    a = [lam.part(i) + n - 1 - i for i in range(n)]
    return dict(zip(permutations(a), map(cycle_sign, permutations(range(n)))))


def parity_totals(lam, n: int, x) -> list:
    """The terms of ``permutation_terms`` at the numbers ``x``, totalled per
    parity mask: the variables with odd exponents."""
    totals = [0] * (1 << n)
    for exps, sign in permutation_terms(lam, n).items():
        mask = sum(1 << j for j, k in enumerate(exps) if k & 1)
        totals[mask] += sign * prod(y ** k for y, k in zip(x, exps))
    return totals


def permutation_sum(lam, space, at) -> Fraction:
    """The fixed-point sum of s_lam: at every sign vector, the determinant
    over the Vandermonde and the Euler class, in Fractions; halved on
    og-even."""
    n = space.n
    terms = permutation_terms(lam, n)
    total = Fraction(0)
    for fp in fixed_points(space):
        y = [s * v for s, v in zip(fp.signs, at.values)]
        det = sum(sign * prod(v ** k for v, k in zip(y, exps)) for exps, sign in terms.items())
        vandermonde = prod((y[i] - y[j] for i in range(n) for j in range(i + 1, n)),
                           start=Fraction(1))
        total += det / (vandermonde * euler_factor(space, fp, at))
    return total / 2 if space.kind is SpaceKind.ORTHOGONAL_EVEN else total
