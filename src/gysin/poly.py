"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in ``nvars`` variables is stored as a mapping from exponent
tuples (one non-negative integer per variable) to nonzero ``Fraction``
coefficients; the zero polynomial is the empty mapping.  Example, in two
variables::

    z1^2*z2 - 3  ->  {(2, 1): Fraction(1), (0, 0): Fraction(-3)}

All arithmetic is exact, nothing is ever rounded, and equality of two
polynomials is equality of their term maps.  Negative exponents are
rejected on construction: the residue engine only ever extracts
coefficients of ordinary polynomials.

The canonical term order used for rendering and serialization is
descending lexicographic on the exponent tuples.

There is no polynomial division here: the one divisor the program uses,
the Vandermonde, divides sums of alternants in the monomial-symmetric
basis (``schur.alternant_quotient``).  Every coefficient that ``terms``,
``coefficient``, ``leading_term`` and ``sorted_terms`` return is a
``Fraction``.

``evaluate`` works in integers (``integer_columns``, ``column_values``),
as the fixed-point oracle does with the same two steps.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import VariableCountMismatch

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def over_lcm(values) -> tuple:
    """(numerators, denominator): the ints or Fractions ``values`` as
    integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def column_values(values: list, columns, bases) -> list:
    """Each term's value times the power of each base given by its column;
    bases without a column are skipped."""
    for x, column in zip(bases, columns):
        powers = {k: x ** k for k in set(column)}
        values = [v * powers[k] for v, k in zip(values, column)]
    return values


def _check_exponents(e: tuple, nvars: int):
    if len(e) != nvars:
        raise VariableCountMismatch(f"exponent tuple {e} does not have {nvars} entries")
    if any(k < 0 for k in e):
        raise ValueError(f"negative exponent in {e}")


class SparsePoly:
    """An immutable sparse polynomial with ``Fraction`` coefficients.

    Instances are never mutated after construction; every operation
    returns a new polynomial in canonical form (no zero coefficients, no
    duplicate monomials), so values are safe to share between threads.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        clean: dict = {}
        if terms:
            for exps, coeff in terms.items():
                e = tuple(int(k) for k in exps)
                _check_exponents(e, nvars)
                c = _as_fraction(coeff)
                if c:
                    clean[e] = c
        self.nvars = nvars
        self._terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "SparsePoly":
        # trusted constructor: terms already canonical {tuple: nonzero Fraction}
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePoly":
        c = _as_fraction(value)
        if not c:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exponents: Iterable[int], coeff=1) -> "SparsePoly":
        return cls(nvars, {tuple(exponents): coeff})

    # -- inspection ----------------------------------------------------

    def terms(self) -> dict:
        """A copy of the term map."""
        return dict(self._terms)

    def integer_terms(self) -> tuple:
        """(terms, denominator): the term map with integer coefficients
        over the least common denominator of the coefficients."""
        numerators, den = over_lcm(self._terms.values())
        return dict(zip(self._terms, numerators)), den

    def integer_columns(self) -> tuple:
        """(coefficients, denominator, degree, columns): ``integer_terms``
        as a list, the largest term degree, and one exponent column per
        variable.  If not homogeneous, one more column holds each term's
        degree deficit: the power of a point's common denominator that
        brings the term to the largest degree."""
        terms, den = self.integer_terms()
        degrees = list(map(sum, terms))
        degree = max(degrees, default=0)
        columns = list(zip(*terms))
        if any(d != degree for d in degrees):
            columns.append([degree - d for d in degrees])
        return list(terms.values()), den, degree, columns

    def sorted_terms(self) -> list:
        """(exponents, coeff) pairs in canonical (descending lex) order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficient(self, exponents) -> Fraction:
        return self._terms.get(tuple(exponents), _ZERO)

    def leading_term(self):
        """(exponents, coeff) of the lex-largest monomial, or None for 0."""
        if not self._terms:
            return None
        e = max(self._terms)
        return e, self._terms[e]

    def num_terms(self) -> int:
        return len(self._terms)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None (zero or inhomogeneous)."""
        degrees = {sum(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return not self._terms
            return self._terms == {(0,) * self.nvars: c}
        return NotImplemented

    def __repr__(self):
        return f"<SparsePoly nvars={self.nvars}: {self.render()}>"

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return SparsePoly.constant(self.nvars, other)
        if isinstance(other, SparsePoly):
            if other.nvars != self.nvars:
                raise VariableCountMismatch(
                    f"mixing polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return SparsePoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return SparsePoly.zero(self.nvars)
            return SparsePoly._raw(self.nvars, {e: v * c for e, v in self._terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        get = out.get
        right = list(other._terms.items())
        for e1, c1 in self._terms.items():
            for e2, c2 in right:
                e = tuple(a + b for a, b in zip(e1, e2))
                v = get(e)
                if v is None:
                    out[e] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        del out[e]
        return SparsePoly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = SparsePoly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- evaluation and substitutions -----------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point (a ring homomorphism)."""
        if len(point) != self.nvars:
            raise VariableCountMismatch(
                f"point has {len(point)} coordinates, polynomial has {self.nvars}"
            )
        x, scale = over_lcm([_as_fraction(v) for v in point])
        coeffs, den, degree, columns = self.integer_columns()
        return Fraction(sum(column_values(coeffs, columns, (*x, scale))), den * scale ** degree)

    def square_variables(self) -> "SparsePoly":
        """Substitute every variable by its square (doubles all exponents)."""
        return SparsePoly._raw(
            self.nvars, {tuple(2 * k for k in e): c for e, c in self._terms.items()}
        )

    def is_symmetric(self) -> bool:
        """True if invariant under every permutation of the variables.

        Checked on adjacent transpositions, which generate them all.
        """
        terms, _ = self.integer_terms()
        for i in range(self.nvars - 1):
            for exps, coeff in terms.items():
                if exps[i] == exps[i + 1]:
                    continue
                swapped = list(exps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if terms.get(tuple(swapped)) != coeff:
                    return False
        return True

    # -- serialization and rendering -------------------------------------

    def to_records(self) -> list:
        """Canonically ordered list of {"coeff": str, "exp": [ints]} records.

        Coefficients serialize as integer strings or "p/q"; the round trip
        through :meth:`from_records` is bit-exact.
        """
        return [{"coeff": str(c), "exp": list(e)} for e, c in self.sorted_terms()]

    def to_payload(self, var: str) -> dict:
        """JSON form {"nvars", "variable", "terms": to_records()}."""
        return {"nvars": self.nvars, "variable": var, "terms": self.to_records()}

    @classmethod
    def from_records(cls, nvars: int, records: Iterable[Mapping]) -> "SparsePoly":
        terms: dict = {}
        for rec in records:
            e = tuple(int(k) for k in rec["exp"])
            _check_exponents(e, nvars)
            if e in terms:
                raise ValueError(f"duplicate monomial {e} in records")
            c = Fraction(rec["coeff"])
            if c:
                terms[e] = c
        return cls._raw(nvars, terms)

    def render(self, var: str = "z") -> str:
        """Plain-text form, canonical term order: ``z1^2*z2 + 2*z2^3``."""
        if not self._terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, k in enumerate(exps):
                if not k:
                    continue
                name = f"{var}{i + 1}"
                factors.append(name if k == 1 else f"{name}^{k}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = str(magnitude) + "*" + "*".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)
