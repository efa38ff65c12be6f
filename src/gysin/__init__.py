"""Exact equivariant push-forwards over Lagrangian and orthogonal Grassmannians.

Three mutually cross-validating computations of the push-forward to a
point of Schur-polynomial (and general symmetric-polynomial) classes:

* residue engine: parity-filtered coefficient extraction plus exact
  polynomial division (:mod:`gysin.pushforward`)
* closed form: lam = 2*mu + staircase decomposition and s_mu, a sum over
  semistandard tableaux, at squared variables
  (:func:`gysin.pushforward.closed_form`)
* fixed-point oracle: exact Atiyah-Bott style summation at generic
  rational parameter points, a Schur class entering as a determinant over
  the Vandermonde at each fixed point (:mod:`gysin.localization`)

Everything runs in exact rational arithmetic; there are no tolerances.
"""

from .errors import (
    DegenerateEulerClass,
    ExplicitSizeLimit,
    GysinError,
    InexactDivision,
    InternalInconsistency,
    InvalidPartition,
    NotSymmetric,
    VariableCountMismatch,
)
from .localization import (
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
from .partitions import (
    Partition,
    Tableau,
    decompose,
    enumerate_ssyt,
    partitions_of_weight,
    partitions_up_to_weight,
    rho,
)
from .poly import SparsePoly
from .pushforward import (
    PushforwardResult,
    closed_form,
    pushforward_numerator,
    pushforward_schur,
    pushforward_symmetric,
)
from .schur import (
    monomial_symmetric,
    schur_bialternant,
    schur_squared_args,
    schur_tableaux,
)
from .spaces import Space, SpaceKind, lg, og_even, og_odd
from .verification import run_verification, table_rows

__version__ = "0.1.0"

__all__ = [
    "DegenerateEulerClass",
    "ExplicitSizeLimit",
    "FixedPoint",
    "GenericPoint",
    "GysinError",
    "InexactDivision",
    "InternalInconsistency",
    "InvalidPartition",
    "NotSymmetric",
    "Partition",
    "PushforwardResult",
    "Space",
    "SpaceKind",
    "SparsePoly",
    "Tableau",
    "VariableCountMismatch",
    "closed_form",
    "cross_check",
    "decompose",
    "default_point",
    "enumerate_ssyt",
    "euler_factor",
    "fixed_points",
    "lg",
    "localization_sum",
    "monomial_symmetric",
    "og_even",
    "og_odd",
    "partitions_of_weight",
    "partitions_up_to_weight",
    "pushforward_numerator",
    "pushforward_schur",
    "pushforward_symmetric",
    "rho",
    "run_verification",
    "schur_bialternant",
    "schur_cross_check",
    "schur_localization_sum",
    "schur_squared_args",
    "schur_tableaux",
    "seeded_points",
    "table_rows",
    "__version__",
]
