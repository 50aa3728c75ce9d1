"""Exception types shared across the package."""


class HVKitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HVKitError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class LayoutError(HVKitError, ValueError):
    """Coordinate names or atom sets do not fit the expected layout."""


class PreconditionError(HVKitError, ValueError):
    """A documented precondition of an operation does not hold.

    ``report`` optionally carries the failing PropertyReport when the
    precondition is a hidden-variable property.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ResourceLimitError(HVKitError, RuntimeError):
    """An enumeration or a result would exceed a documented size cap."""


class ModelFormatError(HVKitError, ValueError):
    """A model file does not conform to the serialization format."""


class InternalCheckError(HVKitError, RuntimeError):
    """Two supposedly equivalent internal computations disagreed.

    This is never expected to fire; it indicates a bug, not bad input.
    """
