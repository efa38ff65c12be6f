"""Cross-validation sweeps: residue path vs closed form vs fixed-point sums.

Used by the CLI ``verify`` and ``table`` commands and by the acceptance
suite.  Every case is compared by all three methods on every space, and
none of them expands s_lam: the residue starts from one alternant, the
closed form from the tableau sum of s_mu, and the fixed-point sum takes
s_lam as a determinant over the Vandermonde at each fixed point.  On
og-even the fixed-point sum runs over both components and is halved: the
residue value there is the mean of the two component sums, on every
class, decomposable or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExplicitSizeLimit
from .localization import default_point, schur_cross_check, seeded_points
from .partitions import Partition, partitions_up_to_weight
from .poly import SparsePoly
from .pushforward import PushforwardResult, closed_form, pushforward_schur, schur_residue
from .schur import MAX_RANK
from .spaces import Space, SpaceKind

ALL_KINDS = (SpaceKind.LAGRANGIAN, SpaceKind.ORTHOGONAL_EVEN, SpaceKind.ORTHOGONAL_ODD)


@dataclass(frozen=True)
class CaseResult:
    space: Space
    lam: Partition
    residue: SparsePoly
    closed: PushforwardResult
    closed_match: bool
    oracle_points: int
    oracle_match: bool
    measured_constant: Fraction | None

    @property
    def ok(self) -> bool:
        return self.closed_match and self.oracle_match

    def to_dict(self) -> dict:
        return {
            "space": self.space.kind.value,
            "n": self.space.n,
            "lambda": list(self.lam.parts),
            "value": self.residue.render("t"),
            **self.closed.decomposition(),
            "closed_match": self.closed_match,
            "oracle_points": self.oracle_points,
            "oracle_match": self.oracle_match,
            "measured_constant": (
                str(self.measured_constant) if self.measured_constant is not None else None
            ),
            "ok": self.ok,
        }


def measure_constant(value: SparsePoly, reference: SparsePoly) -> Fraction | None:
    """The scalar C with value == C * reference, or None if not proportional.

    ``reference`` must be nonzero.
    """
    exps, ref_coeff = reference.leading_term()
    ratio = value.coefficient(exps) / ref_coeff
    if value == ratio * reference:
        return ratio
    return None


def evaluate_case(space: Space, lam: Partition, points) -> CaseResult:
    expected = closed_form(lam, space)
    residue = schur_residue(lam, space)
    closed_match = residue == expected.value

    measured = None
    if expected.mu is not None and residue:
        # s_mu(t^2), nonzero; the closed form already built it
        measured = measure_constant(residue, expected.value * (1 / expected.constant))

    oracle_match = schur_cross_check(lam, space, residue, points)
    return CaseResult(
        space, lam, residue, expected, closed_match, len(points), oracle_match, measured
    )


@dataclass
class VerificationReport:
    n_max: int
    weight_max: int
    seed: int
    oracle_points: int
    cases: list

    @property
    def all_ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def og_even_constants(self) -> dict:
        """Measured og-even proportionality constant per rank.

        The value is None for a rank whose cases did not all agree on a
        single constant.
        """
        found: dict = {}
        for case in self.cases:
            if case.space.kind is not SpaceKind.ORTHOGONAL_EVEN:
                continue
            if case.measured_constant is None:
                continue
            found.setdefault(case.space.n, set()).add(case.measured_constant)
        return {n: (vals.pop() if len(vals) == 1 else None) for n, vals in found.items()}

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "weight_max": self.weight_max,
            "seed": self.seed,
            "oracle_points": self.oracle_points,
            "fault_injected": False,  # the key stays so the JSON layout is unchanged
            "all_ok": self.all_ok,
            "og_even_constants": {
                str(n): (str(c) if c is not None else None)
                for n, c in sorted(self.og_even_constants().items())
            },
            "cases": [case.to_dict() for case in self.cases],
        }


def run_verification(n_max: int = 3, weight_max: int = 9, kinds=None, seed: int = 0,
                     oracle_points: int = 2) -> VerificationReport:
    """Run residue/closed/fixed-point comparisons over all partitions with
    at most n parts and bounded weight, for every requested space kind."""
    if n_max > MAX_RANK:
        raise ExplicitSizeLimit(f"n_max limited to {MAX_RANK}, got {n_max}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if oracle_points < 0:
        raise ValueError(f"oracle_points must be non-negative, got {oracle_points}")
    if weight_max < 0:
        raise ValueError(f"weight_max must be non-negative, got {weight_max}")
    if kinds is None:
        kinds = ALL_KINDS
    cases = []
    for kind in kinds:
        for n in range(1, n_max + 1):
            space = Space(kind, n)
            points = [default_point(n)] + seeded_points(n, oracle_points, seed)
            for lam in partitions_up_to_weight(n, weight_max):
                cases.append(evaluate_case(space, lam, points))
    return VerificationReport(n_max, weight_max, seed, oracle_points, cases)


def table_rows(space: Space, weight_max: int) -> list:
    """Rows {space, n, lambda, mu, constant, value} for the self-checked
    push-forward of every s_lam with weight <= weight_max.

    ``terms`` carries the lossless serialization of the value polynomial;
    the CSV writer ignores it.
    """
    rows = []
    for lam in partitions_up_to_weight(space.n, weight_max):
        result = pushforward_schur(lam, space)
        rows.append(
            {
                "space": space.kind.value,
                "n": space.n,
                "lambda": lam.to_text(),
                "mu": "-",  # placeholders, replaced in place when lam decomposes
                "constant": "-",
                **result.decomposition_text(),
                "value": result.value.render("t"),
                "terms": result.value.to_records(),
            }
        )
    return rows
