"""Exception types shared across the package."""


class CiphError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CiphError):
    """Operands have incompatible dimensions."""


class DimensionTooLarge(CiphError):
    """Dimension exceeds the supported range."""


class NegativeCoefficient(CiphError):
    """A coefficient that must be nonnegative is negative."""


class NonFiniteValue(CiphError):
    """A tolerance, sampled input or polynomial coefficient is NaN or infinite."""


class ToleranceTooLarge(CiphError):
    """A relative tolerance is 1 or more, which would let a check pass vacuously."""


class EmptyDirectionSet(CiphError):
    """A direction-sampled check received no directions."""


class NonpositiveGamma(CiphError):
    """The dissipation coefficient is not strictly positive at a state."""

    def __init__(self, x, value):
        self.x = tuple(float(v) for v in x)
        self.value = float(value)
        super().__init__(f"gamma(x) = {value!r} is not strictly positive at x = {self.x}")


class TrajectoryTooShort(CiphError):
    """A trajectory has too few samples for the requested analysis."""


class FormatError(CiphError):
    """A file does not conform to the documented JSON/CSV schema."""
