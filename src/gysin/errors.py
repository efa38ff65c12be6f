"""Exception types shared across the package."""


class GysinError(Exception):
    """Base class for every error raised by this package."""


class VariableCountMismatch(GysinError):
    """Operands live in polynomial rings with different variable counts."""


class InexactDivision(GysinError):
    """Polynomial division left a nonzero remainder.

    Inside the push-forward pipeline this means the numerator was not of
    the required antisymmetric shape.
    """


class InvalidPartition(GysinError):
    """Sequence is not weakly decreasing and non-negative, or does not fit."""


class NotSymmetric(GysinError):
    """A polynomial expected to be symmetric in all variables is not."""


class DegenerateEulerClass(GysinError):
    """An Euler-class factor vanished: the evaluation point is not generic."""


class InternalInconsistency(GysinError):
    """Two independent computations of the same push-forward disagree."""


class ExplicitSizeLimit(GysinError):
    """Input exceeds the built-in guard for factorial-sized expansions."""
