"""Exception types shared across the package."""


class GparithError(Exception):
    """Base class for all package-specific errors."""


class NoRootInInterval(GparithError):
    """Isolating interval contains no root of the minimal polynomial."""


class MultipleRootsInInterval(GparithError):
    """Isolating interval contains more than one root."""


class ReducibleMinpoly(GparithError):
    """Minimal polynomial of degree 2 to 4 failed the exact irreducibility check."""


class FieldMismatch(GparithError):
    """Arithmetic attempted between elements of different number fields."""


class ExprSyntaxError(GparithError):
    """Parse failure; carries the offending position and the expected token set."""

    def __init__(self, message: str, position: int, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


class ArityTooSmall(GparithError, ValueError):
    """Operation needs more arguments than were supplied."""


class ZeroModulus(GparithError, ValueError):
    """Weak multiplication with modulus zero."""


class NotFoundWithinBudget(GparithError):
    """Search exhausted its candidate budget without a witness."""


class PreconditionViolated(GparithError):
    """Documented precondition of an operation does not hold."""


class CalibrationFailed(GparithError):
    """No constant in the calibration schedule satisfied the target property."""


class RationalInput(GparithError):
    """Operation requires an irrational argument."""


class ThetaRational(GparithError):
    """Transfer-map parameter turned out to be rational."""


class UnboundVariable(GparithError):
    """Term evaluation hit a name bound to no value or sequence."""


class RangeOverflow(GparithError):
    """Quantifier range exceeds the configured maximum."""
