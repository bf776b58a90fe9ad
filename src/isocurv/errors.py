"""Exception types shared across the package.

Everything raised on purpose derives from IsocurvError so callers can catch
one base class at the boundary (the CLI does exactly that).
"""

import math


def require_finite(record, *names: str) -> None:
    """Raise ValueError naming the first of record's fields that is not a
    finite number."""
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite")


def require_nonzero(record, *names: str) -> None:
    """Raise InvalidSpecError naming the first of record's fields that is
    zero, as "<class> requires <name> != 0"."""
    for name in names:
        if getattr(record, name) == 0.0:
            raise InvalidSpecError(f"{type(record).__name__} requires {name} != 0")


class IsocurvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IsocurvError):
    """Malformed expression text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier other than x, y, or a known function name."""


class EvaluationDomainError(IsocurvError):
    """Evaluation left the expression's domain (pole, ln or sqrt of a
    non-positive value)."""


class DivisionByZeroError(EvaluationDomainError):
    pass


class NumericOverflowError(IsocurvError):
    """Evaluation produced a non-finite value. Raised instead of letting
    infinities propagate so residual scans can tell a singularity from a
    large residual."""


class MixedVariableError(IsocurvError):
    """A univariate lift was asked of an expression using both x and y."""


class DegenerateWeingartenError(IsocurvError):
    """Normalization of a relation whose curvature coefficient is zero."""


class InvalidSpecError(IsocurvError):
    """A family spec violates one of its parameter constraints."""


class NoConstantPredictionError(InvalidSpecError):
    """The family has no constant curvature prediction to verify against."""


class SingularPointError(IsocurvError):
    """A closed form was evaluated at (or too close to) its pole."""


class EmptyDomainError(IsocurvError):
    """Every grid node fell inside an exclusion zone."""


class DegenerateODEError(IsocurvError):
    """The ODE right-hand side denominator vanished along the trajectory."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


class StepTooLargeError(IsocurvError):
    """A single integration step exceeded the local error limit."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t
