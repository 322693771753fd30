"""Exception types shared across the package.

Plain division by zero in a field raises the builtin ZeroDivisionError.
"""


class FieldMismatch(ValueError):
    """Operands belong to structurally different fields."""


class ModuliNotCoprime(ValueError):
    """CRT interpolation received moduli with a nontrivial common factor."""


class InsufficientModuli(ValueError):
    """Total degree of CRT moduli does not exceed the requested bound."""


class NoSolutionWithinBound(ValueError):
    """No polynomial of the requested degree takes the given value; an
    upstream bound or a reconstruction invariant is wrong."""


class NotAGenerator(ValueError):
    """Powers of the given element do not span enough of the extension."""


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible."""


class NotSquare(ValueError):
    """A square matrix was required."""


class NotMonic(ValueError):
    """A monic polynomial was required."""


class ZeroLeadingCoefficient(ValueError):
    """The leading coefficient of an operator is the zero polynomial."""


class NotInXp(ValueError):
    """A polynomial expected to involve only p-th powers of x does not."""


class PoleAtPoint(ValueError):
    """The denominator of the system vanishes at the evaluation point."""


class CharTooSmall(ValueError):
    """The characteristic must exceed the order of the input."""


class LeadingCoeffVanishes(ValueError):
    """The leading coefficient of the operator vanishes at the point."""


class SelectionFailed(RuntimeError):
    """The Monte Carlo driver could not select enough usable points."""


class EpsilonOutOfRange(ValueError):
    """Failure probability bound must lie strictly between 0 and 1."""


class ExtensionDegreeOutOfRange(ValueError):
    """The extension degree of the base field must be at least 1."""


class NonPrime(ValueError):
    """The modulus is not a prime number."""


class OperatorSyntaxError(ValueError):
    """Operator or polynomial text could not be parsed.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SystemFileError(ValueError):
    """A system file holds JSON of the wrong shape or a field of the wrong
    type."""


class ZeroOperator(ValueError):
    """The parsed operator is identically zero or has order zero."""
