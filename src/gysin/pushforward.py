"""Push-forward to a point via parity-filtered coefficient extraction.

The iterated residue at infinity that computes the push-forward reduces,
after the substitution z -> 1/z and a geometric-series expansion, to
extracting coefficients of an ordinary polynomial.  Concretely, with W
the numerator (the class times the antisymmetrizing product
prod_{i<j}(z_j - z_i) and the space prefactor): a term a * z^k
contributes a * t^(k-1) when every component of k is odd and nothing
otherwise, and the collected contributions are divided exactly by
prod_{i<j}(t_j^2 - t_i^2).  The straightened numerators below take the
Vandermonde as prod_{i<j}(z_i - z_j) and divide by prod_{i<j}(t_i^2 - t_j^2),
which drops the sign (-1)^(n(n-1)/2) from both.

For a symmetric class V, W is antisymmetric, so its all-odd part is a sum
of alternants over strictly decreasing exponent vectors, straightened from
V's terms one by one; the full product W never exists, and no alternant
is written out: ``schur.alternant_quotient`` divides the sum in the
monomial-symmetric basis.  ``pushforward_numerator`` takes a given W,
filters its odd terms and straightens them, refusing a W whose odd terms
do not form whole alternants.

A Schur class s_lam is never expanded: s_lam times the Vandermonde is the
single alternant of lam + delta, so ``schur_residue`` hands that one
alternant to the same division as the general path.

For Schur classes there is also a closed form: the result vanishes unless
lam = 2*mu + staircase, and then equals a space constant times
s_mu(t_1^2, ..., t_n^2), built from semistandard tableaux.  Every Schur
push-forward computed here verifies itself against that closed form; the
two share no Schur construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InexactDivision, InternalInconsistency, NotSymmetric, VariableCountMismatch
from .partitions import Partition, decompose
from .poly import SparsePoly
from .schur import alternant_quotient, check_rank, check_size, schur_squared_args, straighten
from .spaces import Space


@dataclass(frozen=True)
class PushforwardResult:
    """Push-forward value in t, with its closed-form decomposition when the
    staircase decomposition lam = 2*mu + rho exists: then
    value == constant * s_mu(t^2)."""

    value: SparsePoly
    mu: Partition | None = None
    constant: Fraction | None = None

    def decomposition(self) -> dict:
        """JSON fields "mu" (parts) and "constant"; both None without one."""
        if self.mu is None:
            return {"mu": None, "constant": None}
        return {"mu": list(self.mu.parts), "constant": str(self.constant)}

    def decomposition_text(self) -> dict:
        """The same fields as display text; empty without a decomposition."""
        if self.mu is None:
            return {}
        return {"mu": self.mu.to_text(), "constant": str(self.constant)}


def _check_numerator(p: SparsePoly, space: Space):
    if p.nvars != space.n:
        raise VariableCountMismatch(
            f"polynomial has {p.nvars} variables, space rank is {space.n}"
        )
    check_rank(space.n)


def _extract_and_divide(W: SparsePoly, n: int) -> SparsePoly:
    # a * z^k with all k odd -> a * t^(k-1), straightened onto alternants
    # and divided by prod_{i<j}(t_j^2 - t_i^2), the reverse of the kernel's.
    # W is antisymmetric only if every orbit of these terms is complete
    # and carries the signs of its alternant.
    shifted = SparsePoly(n, {
        tuple(k - 1 for k in exps): coeff
        for exps, coeff in W.terms().items() if all(k & 1 for k in exps)
    })
    terms, den = shifted.integer_terms()
    coeffs: dict = {}
    for f, c in terms.items():
        gamma, sign = straighten(f)
        if not sign or coeffs.setdefault(gamma, sign * c) != sign * c:
            raise InexactDivision("the numerator is not antisymmetric")
    if len(terms) != factorial(n) * len(coeffs):
        raise InexactDivision("the numerator is not antisymmetric")
    sign = (-1) ** (n * (n - 1) // 2)
    return alternant_quotient(coeffs, Fraction(sign, den), n, squared=True)


def _numerator_shift(space: Space) -> tuple:
    """(shift, c): shift = delta + p - 1 with delta = (n-1, ..., 0), and
    c * z^p the space prefactor."""
    n = space.n
    p, constant = space.numerator_prefactor().leading_term()
    return [n - 2 - i + k for i, k in enumerate(p)], constant


def _straightened_numerator(V: SparsePoly, space: Space) -> tuple:
    """(coeffs, scale): the all-odd terms a * z^k of
    V * prod_{i<j}(z_i - z_j) * prefactor, already shifted to a * t^(k-1),
    as scale times the sum of c * a_gamma over coeffs (gamma -> integer c).

    With the prefactor c * z^p and delta = (n-1, ..., 0), a term b * z^e of
    the symmetric V contributes c * b * sign(sort) * a_gamma when
    f = e + delta + p - 1 has even, distinct entries, gamma being f sorted
    decreasingly, and nothing otherwise.
    """
    n = space.n
    shift, constant = _numerator_shift(space)
    terms, den = V.integer_terms()
    coeffs: dict = {}
    for e, b in terms.items():
        f = [a + s for a, s in zip(e, shift)]
        if any(k & 1 for k in f):
            continue
        gamma, sign = straighten(f)
        if sign:
            coeffs[gamma] = coeffs.get(gamma, 0) + sign * b
    return coeffs, constant / den


def schur_residue(lam: Partition, space: Space) -> SparsePoly:
    """Residue-path push-forward of s_lam, without expanding s_lam.

    s_lam * prod_{i<j}(z_i - z_j) is the alternant of lam + delta, and the
    prefactor's z^p adds p to every exponent, so the numerator is the one
    alternant of gamma = lam + delta + p - 1: zero when an entry of gamma
    is odd, else c times the alternant of gamma, divided as for any class.
    """
    n = space.n
    check_size(lam, n)
    shift, constant = _numerator_shift(space)
    gamma = tuple(lam.part(i) + s for i, s in enumerate(shift))
    if any(k & 1 for k in gamma):
        return SparsePoly.zero(n)
    return alternant_quotient({gamma: 1}, constant, n, squared=True)


def pushforward_numerator(W: SparsePoly, space: Space) -> SparsePoly:
    """Push-forward from the numerator W = V * prod_{i<j}(z_j - z_i).

    The space prefactor is multiplied in first.  Only the all-odd terms
    contribute, and they must be antisymmetric, as they are for every W of
    this form; otherwise InexactDivision is raised.
    """
    _check_numerator(W, space)
    return _extract_and_divide(W * space.numerator_prefactor(), space.n)


def pushforward_symmetric(V: SparsePoly, space: Space) -> SparsePoly:
    """Push-forward of the class whose fixed-point restriction is V.

    The numerator is straightened onto alternants, which needs V symmetric;
    ``pushforward_numerator`` of the full product gives the same value.
    """
    _check_numerator(V, space)
    if not V.is_symmetric():
        raise NotSymmetric("push-forward input must be a symmetric polynomial")
    return alternant_quotient(*_straightened_numerator(V, space), space.n, squared=True)


def closed_form(lam: Partition, space: Space) -> PushforwardResult:
    """Fast path: zero unless lam = 2*mu + staircase, else the constant
    times s_mu(t^2), with no residue computation."""
    n = space.n
    check_size(lam, n)
    mu = decompose(lam, n, space.staircase())
    if mu is None:
        return PushforwardResult(SparsePoly.zero(n))
    constant = space.closed_form_constant
    return PushforwardResult(constant * schur_squared_args(mu, n), mu, constant)


def pushforward_schur(lam: Partition, space: Space) -> PushforwardResult:
    """Residue-path push-forward of the Schur class s_lam, self-checked.

    The residue value is compared against the closed form; a mismatch can
    only come from an internal defect and raises InternalInconsistency.
    """
    expected = closed_form(lam, space)  # also applies the size guards
    value = schur_residue(lam, space)
    if value != expected.value:
        raise InternalInconsistency(
            f"residue and closed form disagree for lambda={lam} on {space.label()}"
        )
    return PushforwardResult(value, expected.mu, expected.constant)

