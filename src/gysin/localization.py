"""Fixed-point localization: the independent ground truth.

The push-forward of a class restricting to V at the torus fixed points is
the sum over fixed points of V(eps_1*t_1, ..., eps_n*t_n) divided by the
equivariant Euler class of the tangent space there.  Everything here is
exact rational arithmetic at explicitly chosen generic parameter points;
no residue machinery is involved, which is what makes it usable as an
oracle for the residue engine.

The fixed points are the 2^n sign vectors, each written as the mask of its
negated coordinates; on og-even they cover both components of OG(n, 2n)
and the total is halved.  The sum starts from a map of integer terms: V's
coefficients over their common denominator, or, for a Schur class s_lam,
the n! signed permutation terms of det(x_j^(a_i)), a = lam + delta, which
is s_lam times the Vandermonde prod_{i<j}(x_i - x_j), so s_lam is never
expanded.  At a point, each term is scaled to an integer over a common
power of the point's denominator.  A term changes sign at a mask sharing
an odd number of bits with its parity mask (the variables with odd
exponents), so the terms are totalled per parity mask and one
Walsh-Hadamard transform gives the signed total at every mask.  For a
general class, each total is divided by that mask's integer Euler
numerator, and the quotients are added over their least common multiple.
For a Schur class, the Euler numerator times the Vandermonde numerator is
the same product D at every mask, up to a sign sigma(m), so the totals
times sigma(m) are added and divided by D once.  Before any power is
taken, powers of more than MAX_POWER_BITS bits are refused.

The point-independent part of the terms (coefficients, degree deficits,
exponent columns, parity masks) is built once per class and shared by
all the points of a cross-check; nothing is cached between calls.  The
determinant's permutations are built here, apart from the residue path's
alternant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm, prod

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


def _point_free_terms(terms: dict, denominator: int, pairs: int) -> tuple:
    """What no parameter point changes in the class ``terms`` (exponents ->
    integer coefficient) over ``denominator``, divided by the Vandermonde
    when ``pairs``, its degree, is nonzero: (denominator, pairs, largest
    degree, coefficients, one exponent column per variable, parity masks
    whose set bits are the variables with odd exponents).

    A class that is not homogeneous gets one more column, each term's
    degree deficit to the largest degree: the exponent of the point's
    common denominator that brings the term to that degree.
    """
    degrees = list(map(sum, terms))
    max_degree = max(degrees, default=0)
    columns = list(zip(*terms))
    masks = [0] * len(degrees)
    for i, column in enumerate(columns):
        bit = 1 << i
        masks = [m | bit if k & 1 else m for m, k in zip(masks, column)]
    if any(d != max_degree for d in degrees):
        columns.append([max_degree - d for d in degrees])
    return denominator, pairs, max_degree, list(terms.values()), columns, masks


def _class_terms(V: SparsePoly, space: Space) -> tuple:
    if V.nvars != space.n:
        raise VariableCountMismatch(f"class has {V.nvars} variables, space rank is {space.n}")
    return _point_free_terms(*V.integer_terms(), 0)


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
    """The point-free terms of det(x_j^(a_i)), a = lam + delta with
    delta = (n-1, ..., 0), over the Vandermonde: the permutation ``perm``
    gives the term prod_j x_j^(a_perm[j])."""
    check_size(lam, n)
    a = [lam.part(i) + n - 1 - i for i in range(n)]
    terms = dict(zip(permutations(a), map(_cycle_sign, permutations(range(n)))))
    return _point_free_terms(terms, 1, n * (n - 1) // 2)


def _check_power_bits(degree: int, at: GenericPoint):
    """The exponent guard of the fixed-point sum, before any power is taken.

    A monomial of the given degree at this point is a product of powers of
    the point's integer numerators and common denominator; their bit
    lengths times the degree bound the bits of any such power.
    """
    bits = degree * max(x.bit_length() for x in (at.scale, *at.numerators))
    if bits > MAX_POWER_BITS:
        raise ExplicitSizeLimit(f"fixed-point powers limited to {MAX_POWER_BITS} bits, got {bits}")


def _term_values(values: list, columns, bases) -> list:
    """Each term's value times the power of each base given by its column;
    bases without a column are skipped."""
    for x, column in zip(bases, columns):
        powers = {k: x ** k for k in set(column)}
        values = [v * powers[k] for v, k in zip(values, column)]
    return values


def _at_sign_masks(values: list, masks: list, n: int) -> list:
    """The sum of the terms at every sign mask: their totals per parity
    mask, Walsh-Hadamard transformed."""
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


def _over_vandermonde(signed: list, space: Space, at: GenericPoint) -> Fraction:
    """The sum over the sign masks m of signed[m] / (E(m) * V(m)), with E(m)
    the Euler numerator and V(m) = prod_{i<j}(x_i - x_j) at the point's
    integer numerators x, negated on the bits of m.

    E(m) * V(m) = sigma(m) * D at every mask: D = prod_{i<j}(x_i^2 - x_j^2),
    times prod 2*x_i on lg and prod x_i on og-odd, and sigma(m) is
    (-1)^(bits of m) on those two spaces, +1 on og-even.  So the sum has
    one denominator.
    """
    x = at.numerators
    common = prod(a * a - b * b for i, a in enumerate(x) for b in x[i + 1:])
    if space.kind is SpaceKind.ORTHOGONAL_EVEN:
        return Fraction(sum(signed), common)
    common *= prod(2 * a for a in x) if space.kind is SpaceKind.LAGRANGIAN else prod(x)
    return Fraction(sum(-v if bin(m).count("1") & 1 else v for m, v in enumerate(signed)), common)


def _sum_at(terms: tuple, space: Space, at: GenericPoint) -> Fraction:
    if len(at) != space.n:
        raise VariableCountMismatch(f"point has {len(at)} coordinates, space rank is {space.n}")
    denominator, pairs, max_degree, coeffs, columns, masks = terms
    if not coeffs:
        return _ZERO
    _check_power_bits(max_degree, at)
    scale = at.scale
    values = _term_values(coeffs, columns, (*at.numerators, scale))
    signed = _at_sign_masks(values, masks, space.n)
    if pairs:
        total = _over_vandermonde(signed, space, at)
    else:
        divisors = [_euler_numerator(space, m, at) for m in range(1 << space.n)]
        common = lcm(*divisors)
        total = Fraction(sum(v * (common // d) for v, d in zip(signed, divisors)), common)
    total *= Fraction(scale ** (space.dimension + pairs), denominator * scale ** max_degree)
    return total / 2 if space.kind is SpaceKind.ORTHOGONAL_EVEN else total


def _matches(terms: tuple, space: Space, value: SparsePoly, points) -> bool:
    return all(_sum_at(terms, space, pt) == value.evaluate(pt.values) for pt in points)


def localization_sum(V: SparsePoly, space: Space, at: GenericPoint) -> Fraction:
    """Exact fixed-point sum of V(eps * t) / Euler factor over all 2^n sign
    vectors, halved on og-even.  Raises VariableCountMismatch when V or
    ``at`` does not have n variables, and ExplicitSizeLimit before taking
    a power of more than MAX_POWER_BITS bits."""
    return _sum_at(_class_terms(V, space), space, at)


def cross_check(V: SparsePoly, space: Space, value: SparsePoly, points) -> bool:
    """True if ``localization_sum`` of V equals ``value``, a push-forward
    computed some other way, at every point."""
    return _matches(_class_terms(V, space), space, value, points)


def schur_localization_sum(lam: Partition, space: Space, at: GenericPoint) -> Fraction:
    """``localization_sum`` of s_lam, without expanding s_lam.  The size
    guard of ``schur.check_size`` comes first, and the power guard counts
    the degree |lam| + n(n-1)/2 of s_lam times the Vandermonde."""
    return _sum_at(_alternant_terms(lam, space.n), space, at)


def schur_cross_check(lam: Partition, space: Space, value: SparsePoly, points) -> bool:
    """True if ``schur_localization_sum`` of lam equals ``value`` at every
    point."""
    return _matches(_alternant_terms(lam, space.n), space, value, points)
