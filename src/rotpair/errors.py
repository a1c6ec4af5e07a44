"""Exception hierarchy for the rotpair package.

Two broad categories matter to callers: ``ValidationError`` means the
input violated a documented precondition, ``NumericalError`` means the
input looked fine but a computation could not be completed to the
requested accuracy.  The CLI maps these to exit codes 1 and 2.
"""


class RotPairError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RotPairError):
    """An input fails a documented precondition."""


class NumericalError(RotPairError):
    """A computation could not reach the requested accuracy."""


class NotOrthogonal(ValidationError):
    """Matrix fails the orthogonality residual check."""


class NotARotation(ValidationError):
    """Orthogonal matrix whose blocks do not share a single angle."""


class NotProper(ValidationError):
    """Rotation is the identity or its negative where a proper one is needed."""


class BadAngle(ValidationError):
    """Angle argument outside its admissible range."""


class BadParameter(ValidationError):
    """Canonical-form parameter outside its admissible range."""


class BadDimension(ValidationError):
    """Ambient dimension is unusable (zero, or odd where even is required)."""


class NotOrthogonalPair(ValidationError):
    """The two operators do not form a valid pair on a common space."""


class NotIrreducible(ValidationError):
    """Block has a proper nonzero invariant subspace."""


class NotIntertwiner(ValidationError):
    """Map does not intertwine the two pairs, or is singular."""


class NotConstant(ValidationError):
    """A quantity required to be constant over the unit sphere is not."""


class ScaleNotConstant(ValidationError):
    """Map does not scale all vectors by one factor."""


class NumericalFailure(NumericalError):
    """Internal consistency check failed; carries the offending residual."""
