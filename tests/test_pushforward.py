import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, strategies as st

from gysin import cli, localization, pushforward, schur, verification
from gysin.errors import (
    ExplicitSizeLimit,
    InexactDivision,
    InvalidPartition,
    NotSymmetric,
    VariableCountMismatch,
)
from gysin.localization import (
    cross_check,
    default_point,
    localization_sum,
    schur_cross_check,
    seeded_points,
)
from gysin.partitions import Partition, decompose, partitions_up_to_weight, rho
from gysin.poly import SparsePoly
from gysin.pushforward import (
    closed_form,
    pushforward_numerator,
    pushforward_schur,
    pushforward_symmetric,
    schur_residue,
)
from gysin.schur import (
    alternant_quotient,
    monomial_symmetric,
    schur_bialternant,
    schur_squared_args,
)
from gysin.spaces import Space, SpaceKind, lg, og_even, og_odd

from division_reference import exact_div, permutation_sign, vandermonde_factors

z1 = SparsePoly.monomial(2, (1, 0))
z2 = SparsePoly.monomial(2, (0, 1))


def antisymmetrize(exponents, nvars, coeff=1):
    """Signed sum over permutations of a strictly decreasing exponent vector."""
    terms = {}
    for perm in permutations(range(nvars)):
        e = [0] * nvars
        for r, var in enumerate(perm):
            e[var] = exponents[r]
        terms[tuple(e)] = permutation_sign(perm) * coeff
    return SparsePoly(nvars, terms)


def staircase_lambda(mu, n, staircase):
    return Partition([2 * m + s for m, s in zip(mu.padded(n), staircase.padded(n))])


# -- pushforward_numerator ------------------------------------------------

def test_numerator_lg2_hook():
    W = z1 * z2 ** 3 - z1 ** 3 * z2  # s_(2,1) * (z2 - z1)
    assert pushforward_numerator(W, lg(2)) == 1


def test_numerator_reads_only_the_all_odd_terms():
    # terms with an even exponent are dropped before the division, whatever
    # their shape; the hook's odd terms still give 1
    W = z1 * z2 ** 3 - z1 ** 3 * z2 + 5 * z1 ** 2 * z2 - z2 ** 4 + 7
    assert pushforward_numerator(W, lg(2)) == 1


def test_numerator_no_all_odd_terms():
    assert pushforward_numerator(z2 ** 2 - z1 ** 2, lg(2)) == 0


def test_numerator_lg1_cube():
    W = SparsePoly.monomial(1, (3,))
    assert pushforward_numerator(W, lg(1)) == SparsePoly.monomial(1, (2,))


def test_numerator_og_even_prefactor():
    assert pushforward_numerator(z2 ** 2 - z1 ** 2, og_even(2)) == 2


def test_numerator_wrong_nvars():
    with pytest.raises(VariableCountMismatch):
        pushforward_numerator(SparsePoly.constant(3, 1), lg(2))


def test_numerator_inexact_for_bad_shape():
    # all-odd but not an antisymmetric product: division cannot be exact
    with pytest.raises(InexactDivision):
        pushforward_numerator(z1 * z2 ** 3 + z1 ** 3 * z2, lg(2))
    # shifted, z1^4 - z1^2*z2^2 = z1^2 * (z1^2 - z2^2) divides by the
    # Vandermonde in the squares, but is not antisymmetric
    with pytest.raises(InexactDivision):
        pushforward_numerator(z1 ** 5 * z2 - z1 ** 3 * z2 ** 3, lg(2))


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * n), st.integers(-5, 5).filter(bool), min_size=1,
    max_size=4))), st.sampled_from([lg, og_odd]))
def test_numerator_refuses_a_divisible_odd_part_that_is_not_antisymmetric(case, space):
    # W = z1*...*zn * U(z^2) * prod_{i<j}(z_i^2 - z_j^2) is all odd, and its
    # shifted terms are U times the Vandermonde in the squares; W is
    # V * prod_{i<j}(z_j - z_i) with V symmetric only when U is symmetric
    n, terms = case
    U = SparsePoly(n, terms)
    assume(not U.is_symmetric())
    W = SparsePoly.monomial(n, (1,) * n) * U.square_variables()
    for factor in vandermonde_factors(n, squared=True):
        W = W * factor
    with pytest.raises(InexactDivision):
        pushforward_numerator(W, space(n))


# -- pushforward_symmetric --------------------------------------------------

def test_symmetric_schur_21():
    V = schur_bialternant(Partition([2, 1]), 2)
    assert pushforward_symmetric(V, lg(2)) == 1


def test_symmetric_constant_class_vanishes():
    for n in (1, 2, 3):
        assert pushforward_symmetric(SparsePoly.constant(n, 1), lg(n)) == 0


def test_symmetric_schur_41():
    V = schur_bialternant(Partition([4, 1]), 2)
    expected = SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    assert pushforward_symmetric(V, lg(2)) == expected


def test_symmetric_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric):
        pushforward_symmetric(z1 ** 2 * z2, lg(2))


def test_symmetric_rejects_laurent_input():
    with pytest.raises(ValueError):
        pushforward_symmetric(SparsePoly(1, {(-1,): 1}), lg(1))


def test_rank_guard_comes_before_any_work():
    # an asymmetric input: without the guard first, the symmetry check or
    # the n!-sized expansion would run instead
    for n in (9, 12):
        V = SparsePoly.monomial(n, (1,) + (0,) * (n - 1))
        for push in (pushforward_symmetric, pushforward_numerator):
            for space in (lg(n), og_even(n), og_odd(n)):
                with pytest.raises(ExplicitSizeLimit, match=f"^rank limited to 8, got {n}$"):
                    push(V, space)


@st.composite
def symmetric_classes(draw):
    """(space, V): a rational combination of monomial symmetric classes
    on a space of rank at most 4."""
    n = draw(st.integers(1, 4))
    space = Space(draw(st.sampled_from(list(SpaceKind))), n)
    V = SparsePoly.zero(n)
    for _ in range(draw(st.integers(0, 3))):
        parts = sorted(draw(st.lists(st.integers(0, 8), max_size=n)), reverse=True)
        c = draw(st.fractions(min_value=-20, max_value=20, max_denominator=12)
                 .filter(lambda c: c.denominator > 1))
        V = V + c * monomial_symmetric(Partition(parts), n)
    return space, V


@example((lg(2), SparsePoly.zero(2)))
@example((og_even(3), SparsePoly.constant(3, Fraction(-5, 3))))
@example((og_odd(4), SparsePoly.constant(4, Fraction(1, 2))))
@example((lg(1), monomial_symmetric(Partition([2001]), 1)))
@example((lg(2), monomial_symmetric(Partition([2002, 2001]), 2)))
@given(symmetric_classes())
def test_straightened_numerator_matches_the_full_product(case):
    # the odd part of V * prod_{i<j}(z_j - z_i) is straightened onto
    # alternants; the full product, binomial by binomial, is the reference
    space, V = case
    W = V
    for factor in vandermonde_factors(space.n, reverse=True):
        W = W * factor
    assert pushforward_symmetric(V, space) == pushforward_numerator(W, space)


def test_straightening_expands_only_strictly_decreasing_alternants(monkeypatch):
    # a term whose shifted exponents repeat contributes nothing; it must be
    # dropped, not handed to the division as an alternant that is zero
    divided = []

    def recording(coeffs, *args, **kwargs):
        divided.extend(coeffs)
        return alternant_quotient(coeffs, *args, **kwargs)

    monkeypatch.setattr(pushforward, "alternant_quotient", recording)
    for n in (1, 2, 3, 4):
        V = sum((monomial_symmetric(lam, n) for lam in partitions_up_to_weight(n, 5)),
                SparsePoly.zero(n))
        W = V
        for factor in vandermonde_factors(n, reverse=True):
            W = W * factor
        for space in (lg(n), og_even(n), og_odd(n)):
            assert pushforward_symmetric(V, space) == pushforward_numerator(W, space)
    assert divided
    assert all(all(a > b for a, b in zip(g, g[1:])) for g in divided)


def test_linearity():
    a, b = Fraction(3, 2), Fraction(-5)
    V1 = schur_bialternant(Partition([4, 1]), 2)
    V2 = schur_bialternant(Partition([2, 1]), 2)
    combined = pushforward_symmetric(a * V1 + b * V2, lg(2))
    assert combined == a * pushforward_symmetric(V1, lg(2)) + b * pushforward_symmetric(V2, lg(2))


@pytest.mark.parametrize(
    "space,expected_dim",
    [(lg(2), 3), (lg(3), 6), (og_odd(2), 3), (og_even(2), 1), (og_even(3), 3)],
)
def test_degree_law(space, expected_dim):
    assert space.dimension == expected_dim
    n = space.n
    for lam in partitions_up_to_weight(n, 6):
        V = schur_bialternant(lam, n)
        result = pushforward_symmetric(V, space)
        if result:
            assert result.homogeneous_degree() == lam.weight - space.dimension
        elif lam.weight < space.dimension:
            assert result == 0


def test_results_are_even_and_symmetric():
    for space in (lg(2), lg(3), og_odd(2), og_even(2)):
        n = space.n
        for lam in partitions_up_to_weight(n, 7):
            result = pushforward_symmetric(schur_bialternant(lam, n), space)
            assert result.is_symmetric()
            assert all(k % 2 == 0 for e in result.terms() for k in e)


# -- pushforward_schur --------------------------------------------------------

def test_schur_pushforward_with_decomposition():
    result = pushforward_schur(Partition([2, 1]), lg(2))
    assert result.value == 1
    assert result.mu == Partition()
    assert result.constant == 1


def test_schur_pushforward_zero():
    result = pushforward_schur(Partition([3, 1]), lg(2))
    assert result.value == 0
    assert result.mu is None and result.constant is None


def test_schur_pushforward_og_odd():
    result = pushforward_schur(Partition([3]), og_odd(1))
    assert result.value == SparsePoly.monomial(1, (2,), 2)
    assert result.mu == Partition([1])
    assert result.constant == 2


def test_schur_pushforward_guards():
    with pytest.raises(InvalidPartition):
        pushforward_schur(Partition([1, 1, 1]), lg(2))
    with pytest.raises(ExplicitSizeLimit):
        pushforward_schur(Partition([1]), lg(9))


@st.composite
def schur_cases(draw):
    """(lam, space): a partition with at most n parts, on a space of rank
    at most 4."""
    n = draw(st.integers(1, 4))
    space = Space(draw(st.sampled_from(list(SpaceKind))), n)
    parts = sorted(draw(st.lists(st.integers(0, 9), max_size=n)), reverse=True)
    return Partition(parts), space


@example((Partition(), lg(1)))
@example((Partition([2]), og_even(1)))
@example((Partition([7, 4, 1]), lg(3)))
@example((Partition([6, 3, 1]), og_even(4)))
@given(schur_cases())
def test_schur_residue_equals_the_expanded_class(case):
    # the residue starts from the one alternant of lam + delta; the
    # straightening of the expanded bialternant is the reference
    lam, space = case
    expected = pushforward_symmetric(schur_bialternant(lam, space.n), space)
    assert pushforward_schur(lam, space).value == expected


def test_schur_pushforward_and_closed_form_never_expand_s_lambda(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    points = [default_point(3)] + seeded_points(3, 2, seed=4)
    cases = [(space, lam) for space in (lg(3), og_even(3), og_odd(3))
             for lam in partitions_up_to_weight(3, 8)]
    residues = [schur_residue(lam, space) for space, lam in cases]
    for module in (schur, pushforward, verification, cli):
        monkeypatch.setattr(module, "schur_bialternant", refuse, raising=False)
    # the tableau sum and the fixed-point sum never reach the residue's
    # division, which only pushforward's own binding still calls
    for module in (schur, localization):
        monkeypatch.setattr(module, "alternant_quotient", refuse, raising=False)
    for (space, lam), value in zip(cases, residues):
        assert pushforward_schur(lam, space).value == value == closed_form(lam, space).value
        assert verification.evaluate_case(space, lam, points).ok
    assert verification.run_verification(n_max=3, weight_max=6).all_ok
    for method in ("abbv", "all"):
        assert cli.main(["pushforward", "--space", "og-odd", "--n", "4", "--lambda", "6,3,2,1",
                         "--method", method]) == 0
    assert "oracle: 480\n" in capsys.readouterr().out
    # without the division anywhere, the closed form and the fixed-point
    # sum still reproduce every residue
    monkeypatch.setattr(pushforward, "alternant_quotient", refuse)
    for (space, lam), value in zip(cases, residues):
        assert closed_form(lam, space).value == value
        assert schur_cross_check(lam, space, value, points)


# -- closed_form ------------------------------------------------------------------

def test_closed_form_examples():
    assert closed_form(Partition([4, 1]), lg(2)).value == SparsePoly(
        2, {(2, 0): 1, (0, 2): 1}
    )
    assert closed_form(Partition([2, 2]), lg(2)).value == 0
    result = closed_form(Partition([1]), og_odd(1))
    assert result.value == 2 and result.mu == Partition() and result.constant == 2


def test_closed_form_og_even_rank_one():
    # og-even(1) is a point: the push-forward of a constant is that constant,
    # and every even lambda decomposes against the empty staircase
    assert closed_form(Partition(), og_even(1)).value == 1
    assert closed_form(Partition([2]), og_even(1)).value == SparsePoly.monomial(1, (2,))
    assert closed_form(Partition([1]), og_even(1)).value == 0
    assert pushforward_schur(Partition([2]), og_even(1)).value == SparsePoly.monomial(1, (2,))


def test_closed_form_matches_residue_path():
    for space in (lg(1), lg(2), lg(3), og_odd(2), og_even(2), og_even(3)):
        for lam in partitions_up_to_weight(space.n, 7):
            residue = pushforward_symmetric(
                schur_bialternant(lam, space.n), space
            )
            assert residue == closed_form(lam, space).value, (space.label(), lam)


def test_og_odd_constant_is_2_to_n():
    for n in (1, 2, 3):
        for mu in partitions_up_to_weight(n, 3):
            lam = staircase_lambda(mu, n, rho(n))
            result = pushforward_schur(lam, og_odd(n))
            assert result.constant == 2 ** n
            assert result.value == 2 ** n * schur_squared_args(mu, n)


def test_og_even_constant_is_2_to_n_minus_1():
    for n in (2, 3):
        for mu in partitions_up_to_weight(n, 3):
            lam = staircase_lambda(mu, n, rho(n - 1))
            result = pushforward_schur(lam, og_even(n))
            assert result.constant == 2 ** (n - 1)
            assert result.value == 2 ** (n - 1) * schur_squared_args(mu, n)


# -- parity special case -----------------------------------------------------------

def test_parity_all_even_vanishes():
    assert pushforward_numerator(z1 ** 2 * z2 ** 2, lg(2)) == 0


def test_parity_all_odd_example():
    W = z1 * z2 ** 3 - z1 ** 3 * z2
    assert pushforward_numerator(W, lg(2)) == 1


def symmetric_part(W, n):
    """V with W == V * prod_{i<j}(z_j - z_i)."""
    for factor in vandermonde_factors(n, reverse=True):
        W = exact_div(W, factor)
    return W


def test_parity_matches_numerator_on_random_cases():
    # all-even numerators push to 0; an all-odd W = V * prod_{i<j}(z_j - z_i)
    # pushes to the fixed-point sum of V
    rng = random.Random(99)
    for case in range(50):
        n = rng.randrange(1, 4)
        space = lg(n) if rng.randrange(2) else og_odd(n)
        if case % 2 == 0:
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                e = tuple(2 * rng.randrange(0, 4) for _ in range(n))
                terms[e] = terms.get(e, 0) + rng.randrange(-5, 6)
            W = SparsePoly(n, terms)
            assert pushforward_numerator(W, space) == 0
        else:
            odds = sorted(rng.sample([1, 3, 5, 7, 9], n), reverse=True)
            W = antisymmetrize(tuple(odds), n, rng.randrange(1, 7))
            value = pushforward_numerator(W, space)
            assert cross_check(symmetric_part(W, n), space, value, [default_point(n)])


def test_parity_og_even_delegates():
    # the z1..zn prefactor flips parity: all-odd inputs land on 0 and
    # antisymmetric all-even inputs on the generic extraction
    W_odd = antisymmetrize((3, 1), 2, 2)
    assert pushforward_numerator(W_odd, og_even(2)) == 0
    W_even = antisymmetrize((4, 2), 2, 3)
    value = pushforward_numerator(W_even, og_even(2))
    assert value != 0
    assert cross_check(symmetric_part(W_even, 2), og_even(2), value, [default_point(2)])


# -- oracle agreement on the orthogonal spaces ---------------------------------------

def test_og_even_oracle_agrees_on_decomposable_partitions():
    for n in (2, 3):
        space = og_even(n)
        points = [default_point(n)] + seeded_points(n, 2, seed=7)
        for mu in partitions_up_to_weight(n, 3):
            lam = staircase_lambda(mu, n, rho(n - 1))
            V = schur_bialternant(lam, n)
            residue = pushforward_symmetric(V, space)
            for pt in points:
                assert localization_sum(V, space, pt) == residue.evaluate(pt.values)
