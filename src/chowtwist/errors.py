"""Shared exception types."""


class ChowtwistError(Exception):
    """Base class for all package errors."""


class SizePolicyError(ChowtwistError):
    """Raised when a constructor argument is outside the supported range."""


class ResourceCapError(ChowtwistError):
    """Raised when a computation would exceed the configured cell cap.

    Carries the offending dimension so callers can report it.
    """

    def __init__(self, message, cells=None):
        super().__init__(message)
        self.cells = cells


class VerificationError(ChowtwistError):
    """Raised when a computed object fails one of its own consistency checks."""


class UnsupportedFamilyError(ChowtwistError):
    """Raised when a closed-form routine is asked about a group it does not cover."""


class HorizonError(ChowtwistError):
    """Raised when a graded computation fails to stabilize within its degree
    horizon; carries the degree reached."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree
