"""Acceptance suite: every criterion is an exact-equality check, no tolerances.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output).  Shared heavyweight computations
are module-scoped fixtures so the whole suite stays fast.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from gysin.localization import default_point, localization_sum, seeded_points
from gysin.partitions import (
    Partition,
    partitions_up_to_weight,
    rho,
)
from gysin.poly import SparsePoly
from gysin.pushforward import (
    closed_form,
    pushforward_numerator,
    pushforward_schur,
    pushforward_symmetric,
)
from gysin.schur import (
    monomial_symmetric,
    schur_bialternant,
    schur_squared_args,
    schur_tableaux,
)
from gysin.spaces import lg, og_even, og_odd
from schur_reference import elementary_symmetric, schur_from_elementary, schur_jacobi_trudi

SEED = 0
LG_RANKS = (1, 2, 3, 4)
MAX_PART = 6


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def lg_residues():
    """Residue-path results for every lambda with length <= n <= 4, parts <= 6."""
    results = {}
    for n in LG_RANKS:
        for lam in partitions_up_to_weight(n, n * MAX_PART, MAX_PART):
            value = pushforward_symmetric(schur_bialternant(lam, n), lg(n))
            results[(n, lam)] = value
    return results


@pytest.fixture(scope="module")
def oracle_points():
    return {n: [default_point(n)] + seeded_points(n, 20, SEED) for n in LG_RANKS}


def staircase_lambda(mu, n, staircase):
    return Partition([2 * m + s for m, s in zip(mu.padded(n), staircase.padded(n))])


def test_lagrangian_closed_form_reproduction(lg_residues):
    # residue path == closed form for every lambda in the box, constant +1
    with criterion("lagrangian closed-form reproduction"):
        start = time.time()
        for (n, lam), residue in lg_residues.items():
            expected = closed_form(lam, lg(n))
            assert residue == expected.value, (n, lam)
            if expected.mu is not None:
                assert expected.constant == 1
                assert residue == schur_squared_args(expected.mu, n)
            else:
                assert residue == 0
        elapsed = time.time() - start
        assert elapsed < 60, f"took {elapsed:.1f}s, budget is 60s"


def test_cross_method_oracle(lg_residues, oracle_points):
    # residue result evaluated at 1 default + 20 seeded generic points
    # equals the fixed-point sum, exactly, for every case
    with criterion("cross-method oracle"):
        for (n, lam), residue in lg_residues.items():
            V = schur_bialternant(lam, n)
            for point in oracle_points[n]:
                assert localization_sum(V, lg(n), point) == residue.evaluate(
                    point.values
                ), (n, lam, point)


def test_og_odd_reproduction():
    # lambda = 2*mu + rho(n), |mu| <= 4: residue == 2^n * s_mu(t^2);
    # non-decomposable lambda vanish exactly
    with criterion("og-odd reproduction"):
        for n in range(1, 5):
            for mu in partitions_up_to_weight(n, 4):
                lam = staircase_lambda(mu, n, rho(n))
                residue = pushforward_symmetric(schur_bialternant(lam, n), og_odd(n))
                assert residue == 2 ** n * schur_squared_args(mu, n), (n, mu)
            staircase = rho(n)
            for lam in partitions_up_to_weight(n, 9):
                from gysin.partitions import decompose

                if decompose(lam, n, staircase) is None:
                    residue = pushforward_symmetric(
                        schur_bialternant(lam, n), og_odd(n)
                    )
                    assert residue == 0, (n, lam)


def test_og_even_proportionality():
    # lambda = 2*mu + rho(n-1), |mu| <= 4: one constant per rank, equal to
    # 2^(n-1); the 2^n variant is not what the residue formula yields
    with criterion("og-even proportionality"):
        for n in (2, 3, 4):
            constants = set()
            for mu in partitions_up_to_weight(n, 4):
                lam = staircase_lambda(mu, n, rho(n - 1))
                residue = pushforward_symmetric(schur_bialternant(lam, n), og_even(n))
                reference = schur_squared_args(mu, n)
                exps, lead = reference.leading_term()
                measured = residue.coefficient(exps) / lead
                assert residue == measured * reference, (n, mu)
                constants.add(measured)
            assert constants == {Fraction(2 ** (n - 1))}, (n, constants)
            print(f"  og-even n={n}: measured constant {2 ** (n - 1)} = 2^(n-1), not 2^n")


def test_general_numerator_formula():
    # 30 seeded monomial-symmetric classes, degree <= 8, n <= 3:
    # residue == fixed-point sum at 10 generic points each
    with criterion("general numerator formula"):
        rng = random.Random(SEED)
        cases = 0
        while cases < 30:
            n = rng.randrange(1, 4)
            weight = rng.randrange(0, 9)
            choices = [
                lam for lam in partitions_up_to_weight(n, weight)
                if lam.weight == weight
            ]
            if not choices:
                continue
            lam = rng.choice(choices)
            V = monomial_symmetric(lam, n)
            residue = pushforward_symmetric(V, lg(n))
            points = [default_point(n)] + seeded_points(n, 9, cases)
            for point in points:
                assert localization_sum(V, lg(n), point) == residue.evaluate(
                    point.values
                ), (n, lam)
            cases += 1


def test_parity_special_cases():
    # all-even numerators push to exactly 0 (25 seeded cases, n <= 3, on
    # the parity-preserving spaces)
    with criterion("parity special cases"):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randrange(1, 4)
            space = lg(n) if rng.randrange(2) else og_odd(n)
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                e = tuple(2 * rng.randrange(0, 4) for _ in range(n))
                terms[e] = terms.get(e, 0) + rng.randrange(-5, 6)
            W = SparsePoly(n, terms)
            assert pushforward_numerator(W, space) == 0


def test_schur_triple_equality():
    # bialternant == tableaux == dual Jacobi-Trudi, coefficients are
    # non-negative integers, and the tableau count is s_lambda(1, ..., 1)
    with criterion("schur triple equality"):
        from gysin.partitions import enumerate_ssyt

        for n in range(1, 5):
            for lam in partitions_up_to_weight(n, 8):
                b = schur_bialternant(lam, n)
                assert b == schur_tableaux(lam, n), (n, lam)
                assert b == schur_jacobi_trudi(lam, n), (n, lam)
                assert all(
                    c > 0 and c.denominator == 1 for _, c in b.sorted_terms()
                ), (n, lam)
                assert len(enumerate_ssyt(lam, n)) == b.evaluate([1] * n), (n, lam)


def test_e_to_c_substitution():
    # e_i -> (-1)^i c_{2i} with c_{2i} = (-1)^i e_i(t^2) turns the
    # e-presentation of s_mu into s_mu(t^2)
    with criterion("e-to-c substitution"):
        for n in range(1, 5):
            for mu in partitions_up_to_weight(n, 5):
                def substituted(k, nvars=n):
                    sign = 1 if k % 2 == 0 else -1
                    chern = sign * elementary_symmetric(k, nvars).square_variables()
                    return sign * chern

                assert schur_from_elementary(mu, substituted, n) == schur_squared_args(
                    mu, n
                ), (n, mu)


def test_structural_invariants(lg_residues):
    # evenness, symmetry, the degree law d - dim, and linearity over the
    # verification range
    with criterion("structural invariants"):
        for (n, lam), residue in lg_residues.items():
            assert residue.is_symmetric(), (n, lam)
            assert all(k % 2 == 0 for e in residue.terms() for k in e), (n, lam)
            if residue:
                assert {sum(e) for e in residue.terms()} == {lam.weight - lg(n).dimension}
        # linearity on a rational combination of Schur classes
        a, b = Fraction(7, 3), Fraction(-2)
        for n in (2, 3):
            V1 = schur_bialternant(Partition([4, 1]), n)
            V2 = schur_bialternant(Partition([2, 1]), n)
            lhs = pushforward_symmetric(a * V1 + b * V2, lg(n))
            rhs = a * pushforward_symmetric(V1, lg(n)) + b * pushforward_symmetric(
                V2, lg(n)
            )
            assert lhs == rhs
        # og-odd and og-even structural checks over the same weight range
        for space in (og_odd(2), og_odd(3), og_even(2), og_even(3)):
            for lam in partitions_up_to_weight(space.n, 9):
                residue = pushforward_symmetric(
                    schur_bialternant(lam, space.n), space
                )
                assert residue.is_symmetric()
                assert all(k % 2 == 0 for e in residue.terms() for k in e)
                if residue:
                    assert {sum(e) for e in residue.terms()} == {lam.weight - space.dimension}


def test_performance_smoke():
    # one rank-5 push-forward with a nontrivial decomposition, under 10s
    with criterion("performance smoke"):
        mu = Partition([2, 2, 1])
        lam = staircase_lambda(mu, 5, rho(5))
        start = time.time()
        result = pushforward_schur(lam, lg(5))
        elapsed = time.time() - start
        assert result.value == closed_form(lam, lg(5)).value
        assert result.mu == mu and result.constant == 1
        assert elapsed < 10, f"took {elapsed:.1f}s, budget is 10s"
