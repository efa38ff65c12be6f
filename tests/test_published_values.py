"""Push-forwards with values known from the literature.

None of the three methods uses these numbers, so a convention they share
(the og-even factor 1/2, the 2^(n-1) constant) would show here:

* the top Chern class of the tangent bundle pushes forward to the Euler
  characteristic, the number of fixed points: 2^n on lg(n) and og-odd(n),
  2^(n-1) on og-even(n);
* e_1^dim pushes forward to the degree in the Plucker embedding, for the
  spinor embedding of the orthogonal Grassmannians scaled by 2^dim.
  With dim = n(n+1)/2 and d(n) = dim! * prod_{i=1..n} (i-1)!/(2i-1)!,
  this is 2^(n(n-1)/2) d(n) on lg(n) and 2^dim d(n) on og-odd(n);
  og-even(n) is isomorphic to og-odd(n-1);
* Pragacz-Ratajski's normalization of their Q~-polynomials: with
  rho(k) = (k, k-1, ..., 1), Q~_rho(n) pushes forward to 1 on lg(n) and
  to 2^n on og-odd(n), and Q~_rho(n-1) to 2^(n-1) on og-even(n).
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from gysin.localization import default_point, localization_sum
from gysin.poly import SparsePoly
from gysin.pushforward import pushforward_symmetric
from gysin.partitions import rho
from gysin.spaces import lg, og_even, og_odd
from schur_reference import elementary_symmetric

DEGREE_E1 = {
    "lg": [1, 2, 16, 768, 292864],
    "og-odd": [2, 8, 128, 12288, 9371648],
    "og-even": [1, 2, 8, 128, 12288],
}
SPACES = {"lg": lg, "og-odd": og_odd, "og-even": og_even}


def d(n):
    dim = n * (n + 1) // 2
    return factorial(dim) * prod(
        Fraction(factorial(i - 1), factorial(2 * i - 1)) for i in range(1, n + 1))


def test_degree_table_matches_the_formula():
    for n in range(1, 6):
        dim = n * (n + 1) // 2
        assert DEGREE_E1["lg"][n - 1] == 2 ** (n * (n - 1) // 2) * d(n)
        assert DEGREE_E1["og-odd"][n - 1] == 2 ** dim * d(n)
        assert DEGREE_E1["og-even"][n - 1] == 2 ** (dim - n) * d(n - 1)


def top_chern_class(kind, n):
    z = [SparsePoly.variable(n, i) for i in range(n)]
    c = SparsePoly.constant(n, 1)
    for i in range(n):
        for j in range(i if kind == "lg" else i + 1, n):
            c = c * (z[i] + z[j])
    return c * prod(z) if kind == "og-odd" else c


def check(V, space, expected):
    assert pushforward_symmetric(V, space) == expected
    if space.n <= 4:
        assert localization_sum(V, space, default_point(space.n)) == expected


@pytest.mark.parametrize("kind", sorted(SPACES))
@pytest.mark.parametrize("n", range(1, 6))
def test_e1_to_the_dimension_gives_the_degree(kind, n):
    space = SPACES[kind](n)
    check(elementary_symmetric(1, n) ** space.dimension, space, DEGREE_E1[kind][n - 1])


@pytest.mark.parametrize("kind", sorted(SPACES))
@pytest.mark.parametrize("n", range(1, 6))
def test_top_chern_class_gives_the_euler_characteristic(kind, n):
    euler = 2 ** (n - 1) if kind == "og-even" else 2 ** n
    check(top_chern_class(kind, n), SPACES[kind](n), euler)


def q_tilde(parts, n):
    """Q~_parts(z_1..z_n): the Pfaffian of the Q~_{parts_a, parts_b}, a < b,
    with Q~_{i,j} = e_i e_j + 2 sum_{k=1..j} (-1)^k e_{i+k} e_{j-k} and
    Q~_{i,0} = e_i; a part 0 pads an odd length."""
    def e(k):
        return elementary_symmetric(k, n)

    def pair(i, j):
        if j == 0:
            return e(i)
        return e(i) * e(j) + sum((2 * (-1) ** k * e(i + k) * e(j - k) for k in range(1, j + 1)),
                                 SparsePoly.zero(n))

    parts = list(parts) + [0] * (len(parts) % 2)

    def pfaffian(rows):
        if not rows:
            return SparsePoly.constant(n, 1)
        total = SparsePoly.zero(n)
        for pos in range(1, len(rows)):
            term = pair(parts[rows[0]], parts[rows[pos]]) * pfaffian(rows[1:pos] + rows[pos + 1:])
            total = total + term if pos % 2 else total - term
        return total

    return pfaffian(tuple(range(len(parts))))


@pytest.mark.parametrize("kind", sorted(SPACES))
@pytest.mark.parametrize("n", range(1, 6))
def test_q_tilde_of_the_staircase_gives_the_normalization(kind, n):
    if kind == "og-even":
        parts, expected = rho(n - 1).parts, 2 ** (n - 1)
    else:
        parts, expected = rho(n).parts, 1 if kind == "lg" else 2 ** n
    check(q_tilde(parts, n), SPACES[kind](n), expected)
