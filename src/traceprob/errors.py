"""Exception hierarchy shared by every module in the package."""

from contextlib import contextmanager


class TraceProbError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TraceProbError):
    """A value failed its class invariant at construction time."""


class DimensionMismatchError(TraceProbError):
    """Operands or components have incompatible dimensions."""


class NotHermitianError(TraceProbError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotUnitaryError(TraceProbError):
    """A matrix required to be unitary is not, within tolerance."""


class NotRealError(TraceProbError):
    """A matrix has significant imaginary parts under REAL mode."""


class NonCommutingError(TraceProbError):
    """Projector meet requested for a non-commuting pair; the product is not a projection."""


class NotAPartitionError(TraceProbError):
    """Projector list does not resolve the identity into orthogonal pieces."""


class UnknownLabelError(TraceProbError):
    """A set refers to an atom label the algebra does not contain."""


class NotSubsetError(TraceProbError):
    """Conditional probability requested for a set outside its conditioning set."""


class ZeroTotalMeasureError(TraceProbError):
    """The total measure is too small to normalize against."""


class ZeroConditionMeasureError(TraceProbError):
    """The conditioning set has measure too small to divide by."""


class NonFiniteError(TraceProbError):
    """Arithmetic produced a non-finite measure."""


class NumericalIntegrityError(TraceProbError):
    """A quantity violated its analytic bounds by more than floating-point dust."""


class SpecParseError(TraceProbError):
    """A system spec file is missing, malformed, or violates the schema."""


@contextmanager
def located(where: str, as_type: type[TraceProbError] | None = None):
    """Re-raise a TraceProbError from the block as ``<where>: <message>``, as ``as_type`` if given."""
    try:
        yield
    except TraceProbError as exc:
        raise (as_type or type(exc))(f"{where}: {exc}") from exc
