"""Fixed-point localization: the independent ground truth.

The push-forward of a class restricting to V at the torus fixed points is
the sum over fixed points of V(eps_1*t_1, ..., eps_n*t_n) divided by the
equivariant Euler class of the tangent space there.  Everything here is
exact rational arithmetic at explicitly chosen generic parameter points;
no residue machinery is involved, which is what makes it usable as an
oracle for the residue engine.

The sum runs over the 2^n sign masks (the bits are the negated
coordinates): V's signed values at all of them come from one
Walsh-Hadamard transform of its totals per parity mask, and they are
added over the least common multiple of the integer Euler numerators.
``cross_check`` computes the point-independent part of V's terms
(integer coefficients, degree deficits, parity masks, exponents) once for
all its points; nothing is cached between calls.

A Schur class s_lam is never expanded: ``schur_localization_sum`` and
``schur_cross_check`` evaluate it at each sign mask as the bialternant
ratio det(x_j^(a_i)) / prod_{i<j}(x_i - x_j), a = lam + delta, the n!
permutation terms of the determinant going through the same transform,
and divide each mask's value by its Vandermonde and Euler numerators.
These permutations are built here, apart from the residue path's
alternant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm

from .errors import DegenerateEulerClass, ExplicitSizeLimit, VariableCountMismatch
from .partitions import Partition
from .poly import SparsePoly
from .schur import check_size
from .spaces import Space, SpaceKind

_ZERO = Fraction(0)

# The sum raises the point's integer numerators to powers up to the degree
# of the class; a power of more bits than this is refused.  At this size
# one rank-1 comparison at three points takes about a second.
MAX_POWER_BITS = 1 << 20


def _show(values) -> str:
    return f"({', '.join(str(v) for v in values)})"


@dataclass(frozen=True)
class FixedPoint:
    """Torus fixed point encoded by a sign vector; +1 in slot i means the
    i-th isotropic coordinate plane is taken positively."""

    signs: tuple

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be +-1, got {self.signs}")


class GenericPoint:
    """Rational parameter point at which no Euler factor can vanish.

    Entries must be nonzero with pairwise distinct absolute values.
    ``values[i] == numerators[i] / scale``, where ``scale`` is the least
    common denominator of the entries.
    """

    __slots__ = ("values", "scale", "numerators")

    def __init__(self, values):
        vals = tuple(Fraction(v) for v in values)
        if any(not v for v in vals):
            raise DegenerateEulerClass(f"zero coordinate in {_show(vals)}")
        if len({abs(v) for v in vals}) != len(vals):
            raise DegenerateEulerClass(
                f"coordinates with equal absolute value in {_show(vals)}"
            )
        self.values = vals
        self.scale = lcm(*(v.denominator for v in vals))
        self.numerators = tuple(v.numerator * (self.scale // v.denominator) for v in vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, GenericPoint):
            return self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"GenericPoint{_show(self.values)}"


def default_point(n: int) -> GenericPoint:
    """The reproducible default t = (1, 2, ..., n)."""
    return GenericPoint(range(1, n + 1))


def seeded_points(n: int, count: int, seed: int) -> list:
    """Deterministic pseudo-random generic rational points."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        values = []
        for _ in range(n):
            numerator = rng.randrange(1, 400)
            denominator = rng.randrange(1, 8)
            sign = 1 if rng.randrange(2) else -1
            values.append(Fraction(sign * numerator, denominator))
        if len({abs(v) for v in values}) == n:
            out.append(GenericPoint(values))
    return out


def fixed_points(space: Space) -> list:
    """All 2^n torus fixed points (sign vectors), in a fixed order.

    The set is the same on every space.  On og-even it covers both
    connected components of OG(n, 2n), and the push-forward computed by
    the residue engine is the mean of the two component sums, which is
    why ``localization_sum`` halves the og-even total.
    """
    return [FixedPoint(s) for s in product((1, -1), repeat=space.n)]


def euler_factor(space: Space, point: FixedPoint, at: GenericPoint) -> Fraction:
    """Equivariant Euler class of the tangent space at the fixed point.

    LG:      prod_{i<=j} (eps_i t_i + eps_j t_j)   (i == j gives 2 eps_i t_i)
    og-even: prod_{i<j}  (eps_i t_i + eps_j t_j)
    og-odd:  prod_{i<j}  (eps_i t_i + eps_j t_j) * prod_i eps_i t_i
    """
    if len(point.signs) != space.n or len(at.values) != space.n:
        raise VariableCountMismatch("fixed point or parameter point has wrong length")
    negatives = sum(1 << i for i, s in enumerate(point.signs) if s < 0)
    return Fraction(_euler_numerator(space, negatives, at), at.scale ** space.dimension)


def _signed_numerators(negatives: int, at: GenericPoint) -> list:
    """The point's integer numerators, negated where ``negatives`` has a bit."""
    return [-x if negatives >> i & 1 else x for i, x in enumerate(at.numerators)]


def _euler_numerator(space: Space, negatives: int, at: GenericPoint) -> int:
    """The Euler class times ``at.scale ** space.dimension`` at the sign
    vector whose negative entries are the set bits of ``negatives``."""
    signed = _signed_numerators(negatives, at)
    result = 1
    for i, x in enumerate(signed):
        for y in signed[i + 1:]:
            result *= x + y
    if not result:
        signs = tuple(-1 if negatives >> k & 1 else 1 for k in range(space.n))
        raise DegenerateEulerClass(f"tangent weight vanished at signs={signs}, t={_show(at.values)}")
    if space.kind is SpaceKind.LAGRANGIAN:
        for x in signed:
            result *= 2 * x
    elif space.kind is SpaceKind.ORTHOGONAL_ODD:
        for x in signed:
            result *= x
    return result


def _point_free_terms(V: SparsePoly) -> tuple:
    """What no parameter point changes in V's terms, term by term:
    (common denominator of the coefficients, largest degree, integer
    coefficients over it, degree deficits to the largest degree, one
    exponent column per variable, parity masks whose set bits are the
    variables with odd exponents)."""
    terms, coeff_scale = V.integer_terms()
    degrees = list(map(sum, terms))
    max_degree = max(degrees, default=0)
    columns = list(zip(*terms))
    masks = [0] * len(degrees)
    for i, column in enumerate(columns):
        bit = 1 << i
        masks = [m | bit if k & 1 else m for m, k in zip(masks, column)]
    return (coeff_scale, max_degree, list(terms.values()),
            [max_degree - d for d in degrees], columns, masks)


def _check_power_bits(degree: int, at: GenericPoint):
    """The exponent guard of the fixed-point sum, before any power is taken.

    A monomial of the given degree at this point is a product of powers of
    the point's integer numerators and common denominator; their bit
    lengths times the degree bound the bits of any such power.
    """
    bits = degree * max(x.bit_length() for x in (at.scale, *at.numerators))
    if bits > MAX_POWER_BITS:
        raise ExplicitSizeLimit(f"fixed-point powers limited to {MAX_POWER_BITS} bits, got {bits}")


def _check_point(space: Space, at: GenericPoint):
    if len(at) != space.n:
        raise VariableCountMismatch(f"point has {len(at)} coordinates, space rank is {space.n}")


def _term_values(values: list, columns, numerators) -> list:
    """Each term's value times the power of every variable's integer
    numerator, one exponent column per variable."""
    for x, column in zip(numerators, columns):
        powers = {k: x ** k for k in set(column)}
        values = [v * powers[k] for v, k in zip(values, column)]
    return values


def _at_sign_masks(values: list, masks: list, n: int) -> list:
    """The sum of the terms at every sign mask.

    The terms are totalled per parity mask; the Walsh-Hadamard transform
    turns these totals into the sum at each sign mask, where a term changes
    sign when its mask and the negated coordinates share an odd number of
    bits.
    """
    size = 1 << n
    signed = [0] * size
    for mask, value in zip(masks, values):
        signed[mask] += value
    step = 1
    while step < size:
        for start in range(0, size, 2 * step):
            for i in range(start, start + step):
                a, b = signed[i], signed[i + step]
                signed[i], signed[i + step] = a + b, a - b
        step *= 2
    return signed


def _fixed_point_total(values: list, denominators: list, factor: Fraction,
                       space: Space) -> Fraction:
    """factor times the sum of values[m] / denominators[m] over the sign
    masks m, added over the least common multiple of the denominators;
    halved on og-even, whose fixed points are those of both components."""
    common = lcm(*denominators)
    total = Fraction(sum(value * (common // d) for value, d in zip(values, denominators)), common)
    total *= factor
    return total / 2 if space.kind is SpaceKind.ORTHOGONAL_EVEN else total


def _sum_at(terms: tuple, space: Space, at: GenericPoint) -> Fraction:
    _check_point(space, at)
    coeff_scale, max_degree, coeffs, deficits, columns, masks = terms
    if not coeffs:
        return _ZERO
    _check_power_bits(max_degree, at)
    scale = at.scale
    scale_powers = {d: scale ** d for d in set(deficits)}
    values = [c * scale_powers[d] for c, d in zip(coeffs, deficits)]
    signed = _at_sign_masks(_term_values(values, columns, at.numerators), masks, space.n)
    euler = [_euler_numerator(space, negatives, at) for negatives in range(1 << space.n)]
    factor = Fraction(scale ** space.dimension, coeff_scale * scale ** max_degree)
    return _fixed_point_total(signed, euler, factor, space)


def _check_class(V: SparsePoly, space: Space):
    if V.nvars != space.n:
        raise VariableCountMismatch(f"class has {V.nvars} variables, space rank is {space.n}")


def localization_sum(V: SparsePoly, space: Space, at: GenericPoint) -> Fraction:
    """Exact fixed-point sum of V(eps * t) / Euler factor.

    The sum runs over all 2^n sign vectors; on og-even it covers both
    components and is halved.  The restrictions at the fixed points differ
    only by signs of the monomial values, and a monomial's sign depends
    only on which of its exponents are odd.  So each monomial is scaled
    once to an integer over a common denominator, the values are totalled
    per parity mask, one Walsh-Hadamard transform gives the signed total
    at every fixed point, and these are added over the least common
    multiple of the integer Euler numerators.  Powers whose bits would
    exceed MAX_POWER_BITS raise ExplicitSizeLimit before any is taken.
    """
    _check_class(V, space)
    return _sum_at(_point_free_terms(V), space, at)


def cross_check(V: SparsePoly, space: Space, value: SparsePoly, points) -> bool:
    """True if the fixed-point sum of V equals ``value`` at every point.

    ``value`` is a push-forward computed some other way, as a polynomial
    in t; only the values are compared.  The point-independent part of
    V's terms is computed once, and only the powers are taken per point.
    """
    _check_class(V, space)
    terms = _point_free_terms(V)
    return all(_sum_at(terms, space, pt) == value.evaluate(pt.values) for pt in points)


def _cycle_sign(perm) -> int:
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


def _alternant_terms(lam: Partition, n: int) -> tuple:
    """What no parameter point changes in det(x_j^(a_i)), a = lam + delta
    with delta = (n-1, ..., 0): (its degree, |lam|, the sign of each of the
    n! permutation terms, one exponent column per variable, parity masks).

    The term of the permutation ``perm`` is prod_j x_j^(a_perm[j]).
    """
    check_size(lam, n)
    a = [lam.part(i) + n - 1 - i for i in range(n)]
    signs, rows = [], []
    for perm in permutations(range(n)):
        signs.append(_cycle_sign(perm))
        rows.append([a[i] for i in perm])
    masks = [sum(1 << j for j, k in enumerate(row) if k & 1) for row in rows]
    return sum(a), lam.weight, signs, list(zip(*rows)), masks


def _vandermonde_numerator(negatives: int, at: GenericPoint) -> int:
    """prod_{i<j} (x_i - x_j) times ``at.scale ** (n(n-1)/2)`` at the sign
    vector whose negative entries are the set bits of ``negatives``."""
    signed = _signed_numerators(negatives, at)
    result = 1
    for i, x in enumerate(signed):
        for y in signed[i + 1:]:
            result *= x - y
    return result


def _schur_sum_at(terms: tuple, space: Space, at: GenericPoint) -> Fraction:
    _check_point(space, at)
    degree, weight, signs, columns, masks = terms
    _check_power_bits(degree, at)
    det = _at_sign_masks(_term_values(signs, columns, at.numerators), masks, space.n)
    denominators = [_vandermonde_numerator(negatives, at) * _euler_numerator(space, negatives, at)
                    for negatives in range(1 << space.n)]
    factor = Fraction(at.scale ** space.dimension, at.scale ** weight)
    return _fixed_point_total(det, denominators, factor, space)


def schur_localization_sum(lam: Partition, space: Space, at: GenericPoint) -> Fraction:
    """Exact fixed-point sum of s_lam(eps * t) / Euler factor, without
    expanding s_lam.

    At each sign vector s_lam(x) is the bialternant ratio
    det(x_j^(a_i)) / prod_{i<j}(x_i - x_j) with a = lam + delta.  The n!
    terms of the determinant are totalled per parity mask and transformed
    as in ``localization_sum``; each mask's determinant is divided by its
    Vandermonde numerator times its Euler numerator, and the quotients are
    added over their least common multiple.  The power guard counts the
    determinant's degree |lam| + n(n-1)/2.
    """
    return _schur_sum_at(_alternant_terms(lam, space.n), space, at)


def schur_cross_check(lam: Partition, space: Space, value: SparsePoly, points) -> bool:
    """True if the fixed-point sum of s_lam equals ``value`` at every point;
    the determinant's point-independent part is built once."""
    terms = _alternant_terms(lam, space.n)
    return all(_schur_sum_at(terms, space, pt) == value.evaluate(pt.values) for pt in points)
