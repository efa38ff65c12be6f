from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from gysin import localization, poly, pushforward, schur
from gysin.errors import DegenerateEulerClass, ExplicitSizeLimit, VariableCountMismatch
from gysin.localization import (
    MAX_POWER_BITS,
    FixedPoint,
    GenericPoint,
    cross_check,
    default_point,
    euler_factor,
    fixed_points,
    localization_sum,
    schur_cross_check,
    schur_localization_sum,
    seeded_points,
)
from gysin.partitions import Partition, partitions_up_to_weight
from gysin.poly import SparsePoly
from gysin.pushforward import pushforward_symmetric, schur_residue
from gysin.schur import monomial_symmetric, schur_bialternant
from gysin.spaces import SpaceKind, lg, og_even, og_odd
from localization_reference import parity_totals, permutation_sum


# -- points ---------------------------------------------------------------

def test_generic_point_validation():
    with pytest.raises(DegenerateEulerClass):
        GenericPoint([0, 1])
    with pytest.raises(DegenerateEulerClass):
        GenericPoint([2, -2])
    assert GenericPoint([1, Fraction(-1, 2)]).values == (1, Fraction(-1, 2))


def test_default_point():
    assert default_point(3).values == (1, 2, 3)


def test_seeded_points_are_deterministic_and_generic():
    a = seeded_points(3, 5, seed=11)
    b = seeded_points(3, 5, seed=11)
    assert [p.values for p in a] == [p.values for p in b]
    for p in a:
        assert len({abs(v) for v in p.values}) == 3


# -- fixed points -----------------------------------------------------------

def test_fixed_points_lagrangian():
    assert [fp.signs for fp in fixed_points(lg(2))] == [
        (1, 1), (1, -1), (-1, 1), (-1, -1),
    ]
    assert len(fixed_points(lg(1))) == 2


def test_fixed_points_og_even_has_all_sign_vectors():
    # both components of OG(n, 2n), the same set as on the other spaces
    assert [fp.signs for fp in fixed_points(og_even(2))] == [
        (1, 1), (1, -1), (-1, 1), (-1, -1),
    ]
    assert len(fixed_points(og_even(3))) == 8


def test_fixed_points_og_odd():
    assert len(fixed_points(og_odd(3))) == 8


# -- Euler factors ------------------------------------------------------------

def test_euler_factor_lg1():
    assert euler_factor(lg(1), FixedPoint((1,)), GenericPoint([5])) == 10


def test_euler_factor_lg2():
    value = euler_factor(lg(2), FixedPoint((1, -1)), GenericPoint([1, 2]))
    assert value == (2 * 1) * (-4) * (1 - 2)


def test_euler_factor_og_odd():
    assert euler_factor(og_odd(1), FixedPoint((-1,)), GenericPoint([3])) == -3


def test_euler_factor_og_even():
    value = euler_factor(og_even(2), FixedPoint((-1, -1)), GenericPoint([1, 2]))
    assert value == -3


@given(st.sampled_from([lg, og_even, og_odd]), st.integers(1, 5), st.integers(0, 1000))
def test_euler_factor_equals_product_formula(space_factory, n, seed):
    # the docstring's products of tangent weights, in Fractions, at every
    # sign vector and a point with a negative rational coordinate
    space = space_factory(n)
    values = seeded_points(n, 1, seed)[0].values
    point = GenericPoint((-abs(values[0]),) + values[1:])
    for num, v in zip(point.numerators, point.values):
        assert Fraction(num, point.scale) == v
    first = 0 if space.kind is SpaceKind.LAGRANGIAN else 1
    for fp in fixed_points(space):
        x = [s * v for s, v in zip(fp.signs, point.values)]
        expected = prod((x[i] + x[j] for i in range(n) for j in range(i + first, n)),
                        start=Fraction(1))
        if space.kind is SpaceKind.ORTHOGONAL_ODD:
            expected *= prod(x)
        assert euler_factor(space, fp, point) == expected


@pytest.mark.parametrize("space_factory", [lg, og_even, og_odd])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_euler_factor_times_vandermonde_is_one_product_up_to_sign(space_factory, n):
    # E(m) * prod_{i<j}(x_i - x_j) == sigma(m) * D at every sign vector:
    # D = prod_{i<j}(t_i^2 - t_j^2), times prod 2*t_i on lg and prod t_i on
    # og-odd, sigma(m) = prod eps_i on lg and og-odd, +1 on og-even.  So
    # 1/E(m) = sigma(m) * V(m) / D, and every class's fixed-point sum
    # divides once per point.
    space = space_factory(n)
    point = seeded_points(n, 1, seed=n)[0]
    t = point.values
    D = prod((t[i] ** 2 - t[j] ** 2 for i in range(n) for j in range(i + 1, n)),
             start=Fraction(1))
    if space.kind is SpaceKind.LAGRANGIAN:
        D *= prod(2 * v for v in t)
    elif space.kind is SpaceKind.ORTHOGONAL_ODD:
        D *= prod(t)
    pairs = n * (n - 1) // 2
    signed = [(-1) ** m * (3 * m + 1) for m in range(1 << n)]
    vandermondes = localization._vandermondes(point.numerators)
    expected = Fraction(0)
    for fp in fixed_points(space):
        x = [s * v for s, v in zip(fp.signs, t)]
        vandermonde = prod(x[i] - x[j] for i in range(n) for j in range(i + 1, n))
        sigma = 1 if space.kind is SpaceKind.ORTHOGONAL_EVEN else prod(fp.signs)
        assert euler_factor(space, fp, point) * vandermonde == sigma * D
        mask = sum(1 << i for i, s in enumerate(fp.signs) if s < 0)
        # the integer Vandermondes of every mask, built one variable at a time
        assert vandermondes[mask] == vandermonde * point.scale ** pairs
        scaled = euler_factor(space, fp, point) * vandermonde * point.scale ** (
            space.dimension + pairs)
        expected += signed[mask] / scaled
    # the sum over integer numerators divides once and agrees with the
    # sum of the per-mask quotients
    assert Fraction(*localization._over_vandermonde(signed, space, point)) == expected


def test_reciprocal_euler_factors_sum_to_zero():
    # the fixed-point sum of the constant class 1 on a positive-dimensional
    # space vanishes
    for space in (lg(1), lg(2), lg(3), lg(4), og_odd(1), og_odd(2), og_odd(3),
                  og_even(2), og_even(3), og_even(4)):
        point = default_point(space.n)
        total = sum(
            Fraction(1) / euler_factor(space, fp, point)
            for fp in fixed_points(space)
        )
        assert total == 0, space.label()


# -- localization sums ----------------------------------------------------------

def test_localization_sum_lg1_cube():
    V = SparsePoly.monomial(1, (3,))
    assert localization_sum(V, lg(1), GenericPoint([5])) == 25


def test_localization_sum_lg2_schur21():
    V = schur_bialternant(Partition([2, 1]), 2)
    assert localization_sum(V, lg(2), GenericPoint([1, 2])) == 1


def test_localization_sum_constant_vanishes():
    V = SparsePoly.constant(2, 1)
    assert localization_sum(V, lg(2), GenericPoint([1, 2])) == 0


def test_localization_sum_wrong_nvars():
    with pytest.raises(VariableCountMismatch):
        localization_sum(SparsePoly.constant(3, 1), lg(2), GenericPoint([1, 2]))


@pytest.mark.parametrize("values", [[1], [1, 2, 3]], ids=["short", "long"])
def test_localization_sum_wrong_point_length(values):
    V = schur_bialternant(Partition([2, 1]), 2)
    point = GenericPoint(values)
    with pytest.raises(VariableCountMismatch):
        localization_sum(V, lg(2), point)
    with pytest.raises(VariableCountMismatch):
        cross_check(V, lg(2), pushforward_symmetric(V, lg(2)), [point])
    with pytest.raises(VariableCountMismatch):
        schur_localization_sum(Partition([2, 1]), lg(2), point)
    with pytest.raises(VariableCountMismatch):
        schur_cross_check(Partition([2, 1]), lg(2), pushforward_symmetric(V, lg(2)), [point])


def test_power_guard_comes_before_any_power():
    # at t = 1 every power is 1, but the guard counts degree times bits,
    # so the refusal does not depend on which point is asked
    assert localization_sum(SparsePoly.monomial(1, (MAX_POWER_BITS - 1,)), lg(1),
                            GenericPoint([1])) == 1
    for degree, at in ((MAX_POWER_BITS + 1, [1]), (MAX_POWER_BITS // 2 + 1, [Fraction(3, 2)]),
                       (10 ** 20, [5])):
        V = SparsePoly.monomial(1, (degree,))
        with pytest.raises(ExplicitSizeLimit, match="^fixed-point powers limited to "):
            localization_sum(V, lg(1), GenericPoint(at))
        with pytest.raises(ExplicitSizeLimit):
            cross_check(V, lg(1), SparsePoly.zero(1), [GenericPoint(at), default_point(1)])
        with pytest.raises(ExplicitSizeLimit, match="^fixed-point powers limited to "):
            schur_localization_sum(Partition([degree]), lg(1), GenericPoint(at))
    # the Schur sum counts the determinant's degree |lambda| + n(n-1)/2, two
    # bits a power at t = (1, 2)
    with pytest.raises(ExplicitSizeLimit, match=f"got {MAX_POWER_BITS + 2}$"):
        schur_localization_sum(Partition([MAX_POWER_BITS // 2]), lg(2), default_point(2))


def test_scaling_covariance():
    # homogeneous V of degree d scales like c^(d - dim)
    V = schur_bialternant(Partition([4, 1]), 2)  # degree 5, dim LG(2) = 3
    base = GenericPoint([1, 2])
    scaled = GenericPoint([3, 6])
    lhs = localization_sum(V, lg(2), scaled)
    assert lhs == 3 ** 2 * localization_sum(V, lg(2), base)


@pytest.mark.parametrize("space_factory", [lg, og_even, og_odd])
def test_localization_matches_residue_on_random_symmetric_classes(space_factory):
    for n in (1, 2, 3):
        space = space_factory(n)
        points = [default_point(n)] + seeded_points(n, 2, seed=5)
        for lam in partitions_up_to_weight(n, 5):
            V = monomial_symmetric(lam, n)
            residue = pushforward_symmetric(V, space)
            for pt in points:
                assert localization_sum(V, space, pt) == residue.evaluate(pt.values)


@given(
    st.sampled_from([lg, og_even, og_odd]),
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * n),
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            max_size=8,
        ),
        st.integers(0, 1000),
    )),
)
def test_localization_sum_equals_plain_evaluation(space_factory, case):
    # rational coefficients, mixed degrees and rational points: the scaled,
    # parity-grouped integer sum against evaluating V at every fixed point
    n, terms, seed = case
    space, V = space_factory(n), SparsePoly(n, terms)
    point = seeded_points(n, 1, seed)[0]
    plain = sum(
        (V.evaluate([s * v for s, v in zip(fp.signs, point.values)])
         / euler_factor(space, fp, point) for fp in fixed_points(space)),
        Fraction(0),
    )
    if space_factory is og_even:
        plain /= 2
    assert localization_sum(V, space, point) == plain


# The two sign conventions a sign mask can get wrong show at a point with a
# negative and a fractional coordinate.
NEGATIVE_FRACTIONAL = (Fraction(-1, 2), 3, Fraction(5, 3), -7, Fraction(9, 4))


@given(
    st.sampled_from([lg, og_even, og_odd]),
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 6), max_size=n), st.integers(0, 1000))),
)
def test_schur_localization_sum_equals_the_expanded_sum(space_factory, case):
    # the determinant over the Vandermonde at each sign mask against the
    # mask-grouped sum of the expanded bialternant
    n, parts, seed = case
    space, lam = space_factory(n), Partition(sorted(parts, reverse=True))
    V = schur_bialternant(lam, n)
    points = [default_point(n), GenericPoint(NEGATIVE_FRACTIONAL[:n])] + seeded_points(n, 2, seed)
    for pt in points:
        assert schur_localization_sum(lam, space, pt) == localization_sum(V, space, pt)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 6), max_size=n), st.integers(0, 1000))))
def test_laplace_totals_equal_the_permutation_terms(case):
    # the parity-split Laplace products against the n! signed permutation
    # terms of det(x_j^(a_i)), totalled per parity mask, at every mask
    n, parts, seed = case
    lam = Partition(sorted(parts, reverse=True))
    totals = localization._alternant_terms(lam, n)[3]
    for pt in [GenericPoint(NEGATIVE_FRACTIONAL[:n])] + seeded_points(n, 2, seed):
        assert totals(pt.numerators, pt.scale) == parity_totals(lam, n, pt.numerators)


@given(
    st.sampled_from([lg, og_even, og_odd]),
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 6), max_size=n), st.integers(0, 1000))),
)
def test_schur_localization_sum_equals_the_permutation_sum(space_factory, case):
    # the integer sum with one division per point against the determinant
    # of n! terms over the Vandermonde and the Euler class at each fixed
    # point, in Fractions
    n, parts, seed = case
    space, lam = space_factory(n), Partition(sorted(parts, reverse=True))
    points = [GenericPoint(NEGATIVE_FRACTIONAL[:n])] + seeded_points(n, 2, seed)
    for pt in points:
        assert schur_localization_sum(lam, space, pt) == permutation_sum(lam, space, pt)


# -- cross_check ------------------------------------------------------------------

@given(
    st.sampled_from([lg, og_even, og_odd]),
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 6), max_size=n), st.integers(0, 1000))),
)
def test_schur_cross_check_accepts_the_residue_and_only_it(space_factory, case):
    # the determinant oracle against the residue path, which shares none of
    # its code, at points with negative and fractional coordinates
    n, parts, seed = case
    space, lam = space_factory(n), Partition(sorted(parts, reverse=True))
    value = schur_residue(lam, space)
    points = [default_point(n), GenericPoint(NEGATIVE_FRACTIONAL[:n])] + seeded_points(n, 2, seed)
    assert schur_cross_check(lam, space, value, points)
    assert not schur_cross_check(lam, space, value + 1, points)


@given(
    st.sampled_from([lg, og_even, og_odd]),
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.lists(st.integers(0, 6), max_size=n),
                           st.fractions(min_value=-9, max_value=9, max_denominator=6)),
                 max_size=3),
        st.integers(0, 1000),
    )),
)
def test_cross_check_shares_terms_across_points(space_factory, case):
    # the point-free part of V is computed once for all points; the
    # one-point sums at each point are the reference
    n, summands, seed = case
    space = space_factory(n)
    V = SparsePoly.zero(n)
    for parts, c in summands:
        V = V + c * monomial_symmetric(Partition(sorted(parts, reverse=True)), n)
    points = [default_point(n)] + seeded_points(n, 3, seed)
    value = pushforward_symmetric(V, space)
    assert [localization_sum(V, space, pt) for pt in points] == [
        value.evaluate(pt.values) for pt in points]
    assert cross_check(V, space, value, points)
    assert not cross_check(V, space, value + 1, points)


@pytest.mark.parametrize("space_factory", [lg, og_even, og_odd])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_schur_cross_check_at_high_rank(space_factory, n):
    # 2*(1) + rho, a nonzero class whose a = lam + delta has one parity, and
    # (3, 1), whose rows split into odd and even ones
    space = space_factory(n)
    top = n - 1 if space_factory is og_even else n
    points = [default_point(n)] + seeded_points(n, 2, seed=n)
    for parts, nonzero in (([top + 2, *range(top - 1, 0, -1)], True), ([3, 1], False)):
        lam = Partition(parts)
        value = schur_residue(lam, space)
        assert bool(value) is nonzero
        assert schur_cross_check(lam, space, value, points)
        assert not schur_cross_check(lam, space, value + 1, points)


def test_schur_oracle_builds_its_own_determinant(monkeypatch):
    # the residue path's straightening and division are not called
    lam, space = Partition([6, 3, 2, 1]), og_odd(4)
    value = schur_residue(lam, space)
    assert value

    def refuse(*args, **kwargs):
        raise AssertionError(f"called with {args}")

    for module in (schur, poly, pushforward, localization):
        for name in ("alternant_quotient", "straighten", "distinct_permutations",
                     "schur_bialternant"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    points = [default_point(4)] + seeded_points(4, 2, seed=3)
    assert schur_cross_check(lam, space, value, points)
    assert schur_localization_sum(lam, space, points[1]) == value.evaluate(points[1].values)


def test_cross_check_value_with_wrong_nvars():
    with pytest.raises(VariableCountMismatch):
        schur_cross_check(Partition([2, 1]), lg(2), SparsePoly.zero(3), [default_point(2)])
    with pytest.raises(VariableCountMismatch):
        cross_check(SparsePoly.constant(2, 1), lg(2), SparsePoly.zero(1), [default_point(2)])


def lg2_points(trials, seed):
    return [default_point(2)] + seeded_points(2, trials, seed)


def test_cross_check_all_match():
    V = schur_bialternant(Partition([4, 1]), 2)
    value = pushforward_symmetric(V, lg(2))
    assert cross_check(V, lg(2), value, lg2_points(20, 0))
    assert schur_cross_check(Partition([4, 1]), lg(2), value, lg2_points(20, 0))


def test_cross_check_zero_case():
    V = schur_bialternant(Partition([3, 1]), 2)
    points = lg2_points(5, 0)
    assert all(localization_sum(V, lg(2), pt) == 0 for pt in points)
    assert cross_check(V, lg(2), SparsePoly.zero(2), points)


def test_cross_check_detects_corrupted_result():
    V = schur_bialternant(Partition([4, 1]), 2)
    corrupted = pushforward_symmetric(V, lg(2)) + 1
    points = lg2_points(3, 0)
    assert not cross_check(V, lg(2), corrupted, points)
    assert not any(cross_check(V, lg(2), corrupted, [pt]) for pt in points)
    assert not schur_cross_check(Partition([4, 1]), lg(2), corrupted, points)
    assert not any(schur_cross_check(Partition([4, 1]), lg(2), corrupted, [pt]) for pt in points)
