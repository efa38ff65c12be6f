from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import gysin.poly
from gysin.errors import InexactDivision, VariableCountMismatch
from gysin.poly import SparsePoly

from division_reference import exact_div, exact_quotient, vandermonde_factors, vandermonde_quotient


def P(nvars, terms):
    return SparsePoly(nvars, terms)


z1 = SparsePoly.monomial(2, (1, 0))
z2 = SparsePoly.monomial(2, (0, 1))


# -- strategies ---------------------------------------------------------

coefficients = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).filter(lambda c: c != 0)


def polys(nvars, max_exp=4, max_terms=5):
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exps, coefficients, max_size=max_terms).map(
        lambda d: SparsePoly(nvars, d)
    )


# -- construction and equality ------------------------------------------

def test_zero_coefficients_are_dropped():
    assert P(2, {(1, 0): 0, (0, 1): 2}).terms() == {(0, 1): Fraction(2)}


def test_equality_is_term_map_equality():
    assert P(2, {(1, 0): 1}) == z1
    assert P(2, {(1, 0): 1}) != P(2, {(1, 0): 2})
    assert P(1, {(1,): 1}) != z1  # different variable counts


def test_scalar_equality():
    assert SparsePoly.zero(3) == 0
    assert SparsePoly.constant(3, 5) == 5
    assert z1 != 0


def test_wrong_exponent_length_rejected():
    with pytest.raises(VariableCountMismatch):
        P(2, {(1,): 1})


# -- add ----------------------------------------------------------------

def test_add_cancellation():
    assert z1 + (-z1) == 0


def test_add_collects_terms():
    assert (z1 + z2) + z2 == P(2, {(1, 0): 1, (0, 1): 2})


def test_add_zero_is_identity():
    p = P(2, {(3, 1): Fraction(7, 2), (0, 0): -1})
    assert p + SparsePoly.zero(2) == p


def test_add_mismatched_nvars():
    with pytest.raises(VariableCountMismatch):
        z1 + SparsePoly.monomial(3, (1, 0, 0))


# -- mul ----------------------------------------------------------------

def test_mul_difference_of_squares():
    assert (z1 + z2) * (z2 - z1) == z2 ** 2 - z1 ** 2


def test_mul_one_is_identity():
    p = P(2, {(2, 1): 3, (0, 0): Fraction(-1, 3)})
    assert p * SparsePoly.constant(2, 1) == p
    assert 1 * p == p


def test_mul_mismatched_nvars():
    with pytest.raises(VariableCountMismatch):
        z1 * SparsePoly.monomial(1, (1,))


# -- exact_div ----------------------------------------------------------

def test_exact_div_linear():
    assert exact_div(z2 ** 2 - z1 ** 2, z2 - z1) == z1 + z2


def test_exact_div_derived_example():
    # (z1^2*z2 + z1*z2^2)(z1 - z2) expands to z1^3*z2 - z1*z2^3
    quotient = z1 ** 2 * z2 + z1 * z2 ** 2
    assert exact_div(z1 ** 3 * z2 - z1 * z2 ** 3, z1 - z2) == quotient


def test_exact_div_inexact_raises():
    with pytest.raises(InexactDivision):
        exact_div(z1 + 1, z2)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(z1, SparsePoly.zero(2))


def test_exact_div_rejects_laurent_input():
    # a Laurent dividend cannot be built, so division never sees one
    with pytest.raises(ValueError):
        exact_div(P(2, {(-1, 0): 1}), z1)


@given(polys(2, max_exp=3), polys(2, max_exp=3))
def test_exact_div_roundtrip(q, d):
    if not d:
        return
    assert exact_div(q * d, d) == q


def non_unit_leading(p):
    return abs(p.leading_term()[1]) != 1


def non_constant(p):
    return any(sum(e) for e in p.terms())


@given(polys(3, max_exp=2), polys(3, max_exp=2, max_terms=3).filter(bool)
       .filter(non_unit_leading).filter(non_constant), coefficients)
def test_exact_div_integer_kernel_with_rational_divisor(q, d, c):
    # the reference divides integers; a leading coefficient other than +-1
    # takes the Fraction fallback, and the API still returns Fractions
    quotient = exact_div(q * d, d)
    assert quotient == q
    assert all(type(v) is Fraction for v in quotient.terms().values())
    # d has positive degree, so it does not divide q*d plus a constant
    with pytest.raises(InexactDivision):
        exact_div(q * d + c, d)


# -- vandermonde_quotient -----------------------------------------------

def vandermonde_multiples(min_n=1):
    """(n, q): a rank up to 4 and a rational polynomial q in n variables."""
    return st.integers(min_n, 4).flatmap(lambda n: st.tuples(st.just(n), polys(n, max_exp=3)))


def times_vandermonde(q, n, **form):
    W = q
    for factor in vandermonde_factors(n, **form):
        W = W * factor
    return W


@given(vandermonde_multiples(), st.booleans(), st.booleans())
def test_vandermonde_quotient_matches_the_heap_division(case, reverse, squared):
    # the prefix-sum kernel against leading-term elimination by each binomial;
    # the reversed product is the plain one times (-1)^(n(n-1)/2), and the
    # squared form divides polynomials in the squares
    n, q = case
    if squared:
        q = q.square_variables()
    W = times_vandermonde(q, n, reverse=reverse, squared=squared)
    terms, den = W.integer_terms()
    sign = -1 if reverse and n * (n - 1) // 2 % 2 else 1
    quotient = vandermonde_quotient(terms, Fraction(sign, den), n, squared)
    factors = vandermonde_factors(n, reverse=reverse, squared=squared)
    assert quotient == exact_quotient(W, factors) == q
    assert all(type(v) is Fraction for v in quotient.terms().values())


@given(vandermonde_multiples(min_n=2), st.booleans(), st.data())
def test_vandermonde_quotient_refuses_a_changed_coefficient(case, squared, data):
    # a multiple of the Vandermonde plus a monomial is no multiple: the
    # monomial does not vanish where two variables (or squares) are equal
    n, q = case
    terms, _ = times_vandermonde(q, n, squared=squared).integer_terms()
    e = data.draw(st.sampled_from(sorted(terms)) if terms else
                  st.tuples(*[st.integers(0, 6)] * n))
    terms[e] = terms.get(e, 0) + data.draw(st.integers(-3, 3).filter(bool))
    with pytest.raises(InexactDivision):
        vandermonde_quotient(terms, 1, n, squared)


def test_vandermonde_quotient_squared_refuses_an_odd_exponent():
    # x1^3 - x1*x2^2 is x1 * (x1^2 - x2^2), but x1 is no polynomial in the squares
    with pytest.raises(InexactDivision):
        vandermonde_quotient({(3, 0): 1, (1, 2): -1}, 1, 2, squared=True)
    assert vandermonde_quotient({(2, 0): 1, (0, 2): -1}, 1, 2, squared=True) == 1


def test_heap_division_is_gone_from_the_program():
    assert not hasattr(SparsePoly, "exact_div")
    for name in ("exact_quotient", "_divide_terms", "vandermonde_quotient", "_divide_difference"):
        assert not hasattr(gysin.poly, name)


# -- evaluate -----------------------------------------------------------

def test_evaluate_simple():
    assert (z2 ** 2 - z1 ** 2).evaluate([1, 2]) == 3


def test_evaluate_zero_polynomial():
    assert SparsePoly.zero(2).evaluate([5, Fraction(1, 7)]) == 0


def fraction_loop(p, point):
    """The value of p at point, one Fraction product per term."""
    total = Fraction(0)
    for exps, coeff in p.terms().items():
        for x, k in zip(point, exps):
            coeff *= Fraction(x) ** k
        total += coeff
    return total


coordinates = st.one_of(st.just(0), st.integers(-9, 9),
                        st.fractions(min_value=-9, max_value=9, max_denominator=12))


@example((P(2, {(2, 1): 3, (1, 0): Fraction(-1, 2), (0, 0): 5}), [Fraction(1, 3), -2]))
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    polys(n, max_exp=5, max_terms=6), st.lists(coordinates, min_size=n, max_size=n))))
def test_evaluate_matches_the_per_term_fraction_loop(case):
    # inhomogeneous polynomials at points with a common denominator: each
    # term is brought to the largest degree by the degree-deficit column
    p, point = case
    assert p.evaluate(point) == fraction_loop(p, point)


@given(polys(2), polys(2), st.tuples(coefficients, coefficients))
def test_evaluate_is_ring_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


# -- ring axioms --------------------------------------------------------

@given(polys(3, max_exp=2, max_terms=3), polys(3, max_exp=2, max_terms=3),
       polys(3, max_exp=2, max_terms=3))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# -- substitutions ------------------------------------------------------

def test_square_variables():
    assert (z1 + z2).square_variables() == z1 ** 2 + z2 ** 2
    assert SparsePoly.constant(2, 5).square_variables() == 5
    assert P(2, {(1, 3): 1}).square_variables() == P(2, {(2, 6): 1})


@given(polys(2), st.tuples(coefficients, coefficients))
def test_square_variables_matches_evaluation_at_squares(p, point):
    squared = [x * x for x in point]
    assert p.square_variables().evaluate(point) == p.evaluate(squared)


def test_is_symmetric():
    assert (z1 + z2).is_symmetric()
    assert (z1 * z2).is_symmetric()
    assert not (z1 - z2).is_symmetric()
    assert not (z1 ** 2 * z2).is_symmetric()


# -- degree helpers -----------------------------------------------------

def test_homogeneous_degree():
    assert (z1 ** 2 * z2 + z1 * z2 ** 2).homogeneous_degree() == 3
    assert (z1 + z1 ** 2).homogeneous_degree() is None
    assert SparsePoly.zero(2).homogeneous_degree() is None


# -- serialization and rendering ----------------------------------------

def test_records_are_canonically_ordered():
    p = P(2, {(0, 2): 1, (2, 0): 1, (1, 1): Fraction(-1, 2)})
    records = p.to_records()
    assert [r["exp"] for r in records] == [[2, 0], [1, 1], [0, 2]]
    assert records[1]["coeff"] == "-1/2"


def test_records_roundtrip_examples():
    p = P(3, {(4, 0, 2): Fraction(10**40, 3), (0, 1, 0): -7})
    assert SparsePoly.from_records(3, p.to_records()) == p


@given(polys(3, max_exp=5))
def test_records_roundtrip(p):
    assert SparsePoly.from_records(3, p.to_records()) == p


@given(
    polys(3),
    st.tuples(*[st.integers(-4, 4)] * 3).filter(lambda e: min(e) < 0),
    coefficients,
)
def test_negative_exponents_rejected(p, bad, coeff):
    # one Laurent term among ordinary ones is refused by either constructor
    with pytest.raises(ValueError):
        SparsePoly(3, {**p.terms(), bad: coeff})
    records = p.to_records() + [{"coeff": str(coeff), "exp": list(bad)}]
    with pytest.raises(ValueError):
        SparsePoly.from_records(3, records)


def test_from_records_rejects_duplicates():
    with pytest.raises(ValueError):
        SparsePoly.from_records(1, [{"coeff": "1", "exp": [2]}, {"coeff": "2", "exp": [2]}])


def test_render():
    assert SparsePoly.zero(2).render("t") == "0"
    assert SparsePoly.constant(2, 1).render() == "1"
    assert (z1 ** 2 * z2 + z1 * z2 ** 2).render() == "z1^2*z2 + z1*z2^2"
    assert P(1, {(2,): 2}).render("t") == "2*t1^2"
    assert (z2 ** 2 - z1 ** 2).render("t") == "-t1^2 + t2^2"
    assert P(2, {(1, 0): Fraction(1, 2)}).render() == "1/2*z1"
