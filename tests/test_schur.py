import importlib
import pkgutil
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import gysin
from gysin import schur
from gysin.errors import ExplicitSizeLimit, InexactDivision, InvalidPartition
from gysin.partitions import Partition, enumerate_ssyt, partitions_up_to_weight
from gysin.poly import SparsePoly
from gysin.schur import (
    alternant_quotient,
    distinct_permutations,
    monomial_symmetric,
    schur_bialternant,
    schur_squared_args,
    schur_tableaux,
)
from division_reference import alternant, vandermonde_factors, vandermonde_quotient
from schur_reference import (
    elementary_symmetric,
    schur_from_elementary,
    schur_jacobi_trudi,
    tableau_count,
)

z1 = SparsePoly.monomial(2, (1, 0))
z2 = SparsePoly.monomial(2, (0, 1))


def test_elementary_symmetric():
    assert elementary_symmetric(0, 3) == 1
    assert elementary_symmetric(1, 2) == z1 + z2
    assert elementary_symmetric(2, 2) == z1 * z2
    assert elementary_symmetric(3, 2) == 0
    assert elementary_symmetric(-1, 2) == 0


def test_monomial_symmetric():
    assert monomial_symmetric(Partition([2]), 2) == z1 ** 2 + z2 ** 2
    assert monomial_symmetric(Partition([2, 1]), 2) == z1 ** 2 * z2 + z1 * z2 ** 2
    assert monomial_symmetric(Partition(), 2) == 1


@given(st.lists(st.integers(0, 3), max_size=6))
def test_distinct_permutations_lists_each_rearrangement_once_in_lex_order(values):
    assert list(distinct_permutations(values)) == sorted(set(permutations(values)))


@st.composite
def alternant_sums(draw):
    """(n, coeffs): integer coefficients on strictly decreasing exponent
    vectors in n <= 5 variables."""
    n = draw(st.integers(1, 5))
    gammas = st.sets(st.integers(0, 9), min_size=n, max_size=n).map(
        lambda g: tuple(sorted(g, reverse=True)))
    return n, draw(st.dictionaries(gammas, st.integers(-6, 6), max_size=4))


@given(alternant_sums(), st.booleans(),
       st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool))
def test_alternant_quotient_matches_the_prefix_sum_division(case, squared, scale):
    # peeling in the monomial basis against dividing the written-out
    # alternants binomial by binomial; squared, every exponent is doubled
    n, coeffs = case
    if squared:
        coeffs = {tuple(2 * k for k in gamma): c for gamma, c in coeffs.items()}
    terms = {}
    for gamma, c in coeffs.items():
        for e, sign in alternant(gamma, n).items():
            terms[e] = terms.get(e, 0) + sign * c
    quotient = alternant_quotient(coeffs, scale, n, squared)
    assert quotient == vandermonde_quotient(terms, scale, n, squared)
    assert all(type(v) is Fraction for v in quotient.terms().values())


def test_alternant_quotient_squared_refuses_an_odd_exponent():
    # the alternant of (3, 1) is x1^3*x2 - x1*x2^3, no polynomial in the squares
    with pytest.raises(InexactDivision):
        alternant_quotient({(3, 1): 1}, 1, 2, squared=True)
    assert alternant_quotient({(2, 0): 1}, 1, 2, squared=True) == 1
    assert alternant_quotient({(3, 1): 1}, 1, 2) == z1 ** 2 * z2 + z1 * z2 ** 2
    # exponents that are not strictly decreasing are refused, not peeled
    for gamma in ((1, 1), (0, 2)):
        with pytest.raises(ValueError):
            alternant_quotient({gamma: 1}, 1, 2)


def test_no_alternant_is_written_out_in_the_program():
    assert not hasattr(schur, "alternant")
    assert not hasattr(schur, "permutation_sign")
    names = [info.name for info in pkgutil.iter_modules(gysin.__path__)]
    assert "localization" in names
    for name in names:
        if name != "__main__":
            module = importlib.import_module(f"gysin.{name}")
            assert getattr(module, "permutations", None) is not permutations, name


def test_vandermonde_factors_product():
    product = SparsePoly.constant(3, 1)
    for factor in vandermonde_factors(3):
        product = product * factor
    # prod_{i<j} (z_i - z_j) at (3, 2, 1) is (3-2)(3-1)(2-1) = 2
    assert product.evaluate([3, 2, 1]) == 2
    reverse = SparsePoly.constant(3, 1)
    for factor in vandermonde_factors(3, reverse=True):
        reverse = reverse * factor
    assert reverse == -1 * product


def test_bialternant_examples():
    assert schur_bialternant(Partition([1]), 2) == z1 + z2
    assert schur_bialternant(Partition([2, 1]), 2) == z1 ** 2 * z2 + z1 * z2 ** 2
    assert schur_bialternant(Partition([2]), 2) == z1 ** 2 + z1 * z2 + z2 ** 2
    assert schur_bialternant(Partition(), 4) == 1


def test_tableaux_examples():
    assert schur_tableaux(Partition([1, 1]), 2) == z1 * z2
    assert schur_tableaux(Partition([2, 1]), 2) == z1 ** 2 * z2 + z1 * z2 ** 2
    assert schur_tableaux(Partition(), 3) == 1


def test_dual_jacobi_trudi_examples():
    assert schur_jacobi_trudi(Partition([1]), 2) == z1 + z2
    assert schur_jacobi_trudi(Partition([1, 1]), 2) == z1 * z2
    # det [[e2, e3], [1, e1]] with e3 = 0 for two variables
    assert schur_jacobi_trudi(Partition([2, 1]), 2) == z1 ** 2 * z2 + z1 * z2 ** 2


def test_squared_args_examples():
    assert schur_squared_args(Partition([1]), 2) == z1 ** 2 + z2 ** 2
    assert schur_squared_args(Partition(), 3) == 1
    assert schur_squared_args(Partition([1, 1]), 2) == z1 ** 2 * z2 ** 2


def test_partition_must_fit():
    with pytest.raises(InvalidPartition):
        schur_bialternant(Partition([1, 1, 1]), 2)
    with pytest.raises(InvalidPartition):
        schur_tableaux(Partition([1, 1, 1]), 2)


def test_size_guard():
    with pytest.raises(ExplicitSizeLimit):
        schur_bialternant(Partition([1]), 9)
    # s_(1000) in 8 variables has at least C(1007, 7) terms, counted before
    # any work by both constructions
    for build in (schur_bialternant, schur_tableaux):
        with pytest.raises(ExplicitSizeLimit, match="^Schur terms times variables limited to "
                                                    "67108864, got at least 1632260264733563608$"):
            build(Partition([1000]), 8)


def test_tableau_steps_are_checked_before_each_phase(monkeypatch):
    # s_(20,10) in 3 variables: 121, 1331 and 21 (mu, nu) pairs listed from
    # the top, then 21 terms read at level 1 and twice the 1331 read at
    # level 2, 4156 steps in all; a budget one step short of a phase's
    # running total refuses before that phase starts
    lam = Partition([20, 10])
    monkeypatch.setattr(schur, "MAX_STEPS", 4156)
    assert schur_tableaux(lam, 3) == schur_bialternant(lam, 3)
    for total in (1452, 1473, 1494, 4156):
        monkeypatch.setattr(schur, "MAX_STEPS", total - 1)
        with pytest.raises(ExplicitSizeLimit, match="^tableau-sum steps limited to "
                                                    f"{total - 1}, got at least {total}$"):
            schur_tableaux(lam, 3)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 12), max_size=n))))
def test_tableau_steps_stay_within_twice_n_times_the_tableaux(case):
    # each level lists at most T pairs and reads at most T terms, so a
    # budget of 2*n*T steps never refuses; the up-front count of terms is
    # a lower bound
    nvars, parts = case
    lam = Partition(sorted(parts, reverse=True))
    value = schur_bialternant(lam, nvars)
    assert schur._check_terms(lam, nvars) <= value.num_terms()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schur, "MAX_STEPS", 2 * nvars * tableau_count(lam, nvars))
        assert schur_tableaux(lam, nvars) == value


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_triple_equality_small(nvars):
    for lam in partitions_up_to_weight(nvars, 6):
        b = schur_bialternant(lam, nvars)
        assert b == schur_tableaux(lam, nvars)
        assert b == schur_jacobi_trudi(lam, nvars)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 17), max_size=n))))
def test_tableaux_match_bialternant_across_packing_widths(case):
    # parts up to 17 take 1 to 5 bits per packed exponent, including the
    # all-ones values 1, 3, 7 and 15 that fill their width
    nvars, parts = case
    lam = Partition(sorted(parts, reverse=True))
    assert schur_tableaux(lam, nvars) == schur_bialternant(lam, nvars)


@pytest.mark.parametrize("nvars", [2, 3])
def test_schur_is_symmetric_homogeneous_positive(nvars):
    for lam in partitions_up_to_weight(nvars, 5):
        s = schur_bialternant(lam, nvars)
        assert s.is_symmetric()
        assert {sum(e) for e in s.terms()} == ({lam.weight} if s else set())
        assert all(
            coeff > 0 and coeff.denominator == 1 for _, coeff in s.sorted_terms()
        )


def test_ssyt_count_matches_schur_at_ones():
    for nvars in (2, 3):
        for lam in partitions_up_to_weight(nvars, 5):
            count = len(enumerate_ssyt(lam, nvars))
            assert count == schur_bialternant(lam, nvars).evaluate([1] * nvars)
            assert count == tableau_count(lam, nvars)


def test_e_to_c_substitution_reproduces_squared_schur():
    # replacing each e_i by (-1)^i c_{2i} in the e-presentation of s_mu
    # gives exactly s_mu at squared variables; c_{2i} = (-1)^i e_i(t^2) is
    # the degree-2i part of prod_i (1 - t_i^2)
    for nvars in (1, 2, 3):
        for mu in partitions_up_to_weight(nvars, 4):
            def substituted(k, n=nvars):
                sign = 1 if k % 2 == 0 else -1
                return sign * (sign * elementary_symmetric(k, n).square_variables())

            assert schur_from_elementary(mu, substituted, nvars) == schur_squared_args(
                mu, nvars
            )
