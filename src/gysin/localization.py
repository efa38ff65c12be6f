"""Fixed-point localization: the independent ground truth.

The push-forward of a class restricting to V at the torus fixed points is
the sum over fixed points of V(eps_1*t_1, ..., eps_n*t_n) divided by the
equivariant Euler class of the tangent space there.  Everything here is
exact rational arithmetic at explicitly chosen generic parameter points;
no residue machinery is involved, which is what makes it usable as an
oracle for the residue engine.

The fixed points are the 2^n sign vectors, each written as the mask of its
negated coordinates; on og-even they cover both components of OG(n, 2n)
and the total is halved.  A term changes sign at a mask sharing an odd
number of bits with its parity mask (the variables with odd exponents), so
at a point the sum starts from the totals per parity mask, over a common
power of the point's denominator, and one Walsh-Hadamard transform gives
the signed total at every mask.

For a general class V the totals come from V's coefficients over their
common denominator.  For a Schur class s_lam they come from det(X),
X[i][j] = x_j^(a_i) with a = lam + delta, which is s_lam times the
Vandermonde prod_{i<j}(x_i - x_j), so s_lam is never expanded.  The
determinant is not written out as its n! terms: split by the parity of
a_i, its terms with parity mask P add up to the Laplace product of the
odd rows' minor on the columns P and the even rows' minor on the rest,
and all these minors come from one expansion over column subsets, about
n * 2^(n-1) products per point.

The Euler numerator E(m) times the Vandermonde numerator V(m) is the same
product D at every mask m, up to a sign sigma(m).  So the Schur totals
times sigma(m), and a general class's totals times sigma(m) * V(m), are
added and divided by D once per point.  Before any power is taken, powers
of more than MAX_POWER_BITS bits are refused.

The point-independent part (coefficients, degree deficits, exponent
columns, parity masks, or the determinant's expansion plan) is built once
per call and shared by all the points of a cross-check, which compares
integer cross-products; nothing is cached between calls.  The determinant
is built here, apart from the residue path's alternant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, compress, product
from math import lcm, prod
from operator import mul

from .errors import DegenerateEulerClass, ExplicitSizeLimit, VariableCountMismatch
from .partitions import Partition
from .poly import SparsePoly
from .schur import check_size
from .spaces import Space, SpaceKind

# The sum raises the point's integer numerators to powers up to the degree
# of the class; a power of more bits than this is refused.  At this size
# one rank-1 comparison at three points takes about a second.
MAX_POWER_BITS = 1 << 20

# The most seeded points one call may ask for.  Each point costs one
# fixed-point sum per class compared: at this count the default verify
# sweep takes about 4 s.
MAX_POINTS = 1 << 10


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
    """Deterministic pseudo-random generic rational points.  More than
    MAX_POINTS is refused before any is built."""
    if count > MAX_POINTS:
        raise ExplicitSizeLimit(f"seeded points limited to {MAX_POINTS}, got {count}")
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


def _point_free_terms(terms: dict, denominator: int) -> tuple:
    """What no parameter point changes in the polynomial ``terms``
    (exponents -> integer coefficient) over ``denominator``: (denominator,
    largest degree, coefficients, one exponent column per variable, parity
    masks whose set bits are the variables with odd exponents).

    A polynomial that is not homogeneous gets one more column, each term's
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
    return denominator, max_degree, list(terms.values()), columns, masks


def _class_terms(V: SparsePoly, space: Space) -> tuple:
    """The point-free part of a class V: (denominator, 0, largest degree,
    the function giving its terms' totals per parity mask at a point).
    The 0 is the degree of the Vandermonde factor in the terms."""
    if V.nvars != space.n:
        raise VariableCountMismatch(f"class has {V.nvars} variables, space rank is {space.n}")
    denominator, max_degree, coeffs, columns, masks = _point_free_terms(*V.integer_terms())
    return denominator, 0, max_degree, partial(_term_totals, coeffs, columns, masks)


def _term_totals(coeffs: list, columns: list, masks: list, x: tuple, scale: int) -> list:
    """The terms' values at the integer numerators ``x`` over ``scale``,
    totalled per parity mask: the variables with odd exponents."""
    totals = [0] * (1 << len(x))
    for mask, value in zip(masks, _term_values(coeffs, columns, (*x, scale))):
        totals[mask] += value
    return totals


def _expansion_plan(n: int, levels: int) -> list:
    """How the minors of up to ``levels`` rows on n columns expand, each
    level along its last row.  Level l lists, for every l-subset S of the
    columns (a bitmask), the pairs (column j, S without j) whose products
    are added and those subtracted: the cofactor of j is negative when an
    odd number of S's columns exceed j."""
    plan = []
    for size in range(1, levels + 1):
        level = []
        for columns in combinations(range(n), size):
            subset = sum(1 << j for j in columns)
            steps = ([], [])
            for position, j in enumerate(columns):
                steps[(size - 1 - position) & 1].append((j, subset ^ 1 << j))
            level.append((subset, *steps))
        plan.append(level)
    return plan


def _minors(rows: list, plan: list) -> dict:
    """The minors of ``rows`` (rows of a matrix, in order) on every column
    subset of their number, keyed by the subset's bitmask."""
    minors = {0: 1}
    for row, level in zip(rows, plan):
        below, minors = minors, {}
        for subset, added, subtracted in level:
            total = 0
            for j, rest in added:
                total += row[j] * below[rest]
            for j, rest in subtracted:
                total -= row[j] * below[rest]
            minors[subset] = total
    return minors


def _alternant_terms(lam: Partition, n: int) -> tuple:
    """The point-free part of det(X), X[i][j] = x_j^(a_i), a = lam + delta
    with delta = (n-1, ..., 0), which is s_lam times the Vandermonde:
    (1, n(n-1)/2, |a|, the function giving its terms' totals per parity
    mask at a point).

    A term's parity mask is the set P of columns that the odd rows O take,
    so its total is the Laplace product (-1)^(sum O + sum P) *
    det(X[O, P]) * det(X[E, P^c]), E the even rows; masks with another
    number of bits than O total 0.  The expansion plan of the minors and
    the list of products are built here, once per call.
    """
    check_size(lam, n)
    a = [lam.part(i) + n - 1 - i for i in range(n)]
    odd = [i for i, k in enumerate(a) if k & 1]
    full = (1 << n) - 1
    products = []
    for columns in combinations(range(n), len(odd)):
        subset = sum(1 << j for j in columns)
        products.append((subset, full ^ subset, (sum(odd) + sum(columns)) & 1))
    plan = _expansion_plan(n, max(len(odd), n - len(odd)))
    rows = [k for k in a if k & 1], [k for k in a if not k & 1]
    return 1, n * (n - 1) // 2, sum(a), partial(_laplace_totals, *rows, plan, products)


def _laplace_totals(odd: list, even: list, plan: list, products: list, x: tuple,
                    scale: int) -> list:
    """The totals per parity mask of det(X) at the integer numerators
    ``x``, from the minors of its ``odd`` and ``even`` exponent rows.  The
    terms are homogeneous, so ``scale`` is not needed."""
    upper = _minors([[y ** k for y in x] for k in odd], plan)
    lower = _minors([[y ** k for y in x] for k in even], plan)
    totals = [0] * (1 << len(x))
    for subset, rest, negative in products:
        total = upper[subset] * lower[rest]
        totals[subset] = -total if negative else total
    return totals


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


def _walsh_hadamard(signed: list) -> list:
    """Turn the terms' totals per parity mask, in place, into their sum at
    every sign mask: a term changes sign at the masks sharing an odd
    number of bits with its parity mask."""
    size = len(signed)
    step = 1
    while step < size:
        for start in range(0, size, 2 * step):
            for i in range(start, start + step):
                a, b = signed[i], signed[i + step]
                signed[i], signed[i + step] = a + b, a - b
        step *= 2
    return signed


def _parities(n: int) -> list:
    """The parity of the number of set bits of every n-bit mask."""
    parities = [0]
    for _ in range(n):
        parities += [p ^ 1 for p in parities]
    return parities


def _vandermondes(x: tuple) -> list:
    """V(m) = prod_{i<j}(y_i - y_j) at every mask m, y being ``x`` negated
    on the bits of m, built one variable at a time."""
    values = [1]
    for k, z in enumerate(x):
        # prod_{i<k}(y_i - z) and prod_{i<k}(y_i + z) at every mask of k bits
        minus, plus = [1], [1]
        for w in x[:k]:
            minus = [p * (w - z) for p in minus] + [p * (-w - z) for p in minus]
            plus = [p * (w + z) for p in plus] + [p * (z - w) for p in plus]
        values = list(map(mul, values, minus)) + list(map(mul, values, plus))
    return values


def _over_vandermonde(signed: list, space: Space, at: GenericPoint) -> tuple:
    """(numerator, D) with numerator / D the sum over the sign masks m of
    signed[m] / (E(m) * V(m)), with E(m) the Euler numerator and V(m) =
    prod_{i<j}(x_i - x_j) at the point's integer numerators x, negated on
    the bits of m.

    E(m) * V(m) = sigma(m) * D at every mask: D = prod_{i<j}(x_i^2 - x_j^2),
    times prod 2*x_i on lg and prod x_i on og-odd, and sigma(m) is
    (-1)^(bits of m) on those two spaces, +1 on og-even.  So the sum has
    one denominator.
    """
    x = at.numerators
    common = prod(a * a - b * b for i, a in enumerate(x) for b in x[i + 1:])
    if space.kind is SpaceKind.ORTHOGONAL_EVEN:
        return sum(signed), common
    common *= prod(2 * a for a in x) if space.kind is SpaceKind.LAGRANGIAN else prod(x)
    return sum(signed) - 2 * sum(compress(signed, _parities(len(x)))), common


def _sum_at(terms: tuple, space: Space, at: GenericPoint) -> tuple:
    """The fixed-point sum of ``terms`` at ``at`` as (numerator, denominator).

    A class without the Vandermonde in its terms is multiplied by V(m) at
    each mask m, since 1/E(m) = sigma(m) * V(m) / D; so every class ends in
    the one division by D.
    """
    if len(at) != space.n:
        raise VariableCountMismatch(f"point has {len(at)} coordinates, space rank is {space.n}")
    denominator, pairs, degree, totals = terms
    _check_power_bits(degree, at)
    signed = _walsh_hadamard(totals(at.numerators, at.scale))
    if not pairs:
        signed = list(map(mul, signed, _vandermondes(at.numerators)))
    num, den = _over_vandermonde(signed, space, at)
    shift = space.dimension + pairs - degree
    if shift < 0:
        den *= at.scale ** -shift
    else:
        num *= at.scale ** shift
    den *= 2 * denominator if space.kind is SpaceKind.ORTHOGONAL_EVEN else denominator
    return num, den


def _matches(terms: tuple, space: Space, value: SparsePoly, points) -> bool:
    """True if the sum of ``terms`` equals ``value`` at every point, compared
    as integer cross-products."""
    if value.nvars != space.n:
        raise VariableCountMismatch(f"value has {value.nvars} variables, space rank is {space.n}")
    denominator, degree, coeffs, columns, _ = _point_free_terms(*value.integer_terms())
    for at in points:
        num, den = _sum_at(terms, space, at)
        expected = sum(_term_values(coeffs, columns, (*at.numerators, at.scale)))
        if num * denominator * at.scale ** degree != expected * den:
            return False
    return True


def localization_sum(V: SparsePoly, space: Space, at: GenericPoint) -> Fraction:
    """Exact fixed-point sum of V(eps * t) / Euler factor over all 2^n sign
    vectors, halved on og-even.  Raises VariableCountMismatch when V or
    ``at`` does not have n variables, and ExplicitSizeLimit before taking
    a power of more than MAX_POWER_BITS bits."""
    return Fraction(*_sum_at(_class_terms(V, space), space, at))


def cross_check(V: SparsePoly, space: Space, value: SparsePoly, points) -> bool:
    """True if ``localization_sum`` of V equals ``value``, a push-forward
    computed some other way, at every point."""
    return _matches(_class_terms(V, space), space, value, points)


def schur_localization_sum(lam: Partition, space: Space, at: GenericPoint) -> Fraction:
    """``localization_sum`` of s_lam, without expanding s_lam.  The size
    guard of ``schur.check_size`` comes first, and the power guard counts
    the degree |lam| + n(n-1)/2 of s_lam times the Vandermonde."""
    return Fraction(*_sum_at(_alternant_terms(lam, space.n), space, at))


def schur_cross_check(lam: Partition, space: Space, value: SparsePoly, points) -> bool:
    """True if ``schur_localization_sum`` of lam equals ``value`` at every
    point."""
    return _matches(_alternant_terms(lam, space.n), space, value, points)
