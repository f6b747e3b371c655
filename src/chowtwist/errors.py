"""Shared exception types, and the cell cap that ResourceCapError enforces."""

import os


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


DEFAULT_MAX_CELLS = 1 << 27  # 1 GiB of int64


def max_cells():
    env = os.environ.get("CHOWTWIST_MAX_CELLS")
    return int(env) if env else DEFAULT_MAX_CELLS


def check_cells(what, cells):
    """Raise ResourceCapError naming the matrix `what` when its cells pass
    max_cells(); call it before the matrix is allocated."""
    cap = max_cells()
    if cells > cap:
        raise ResourceCapError("%s needs %d cells, cap is %d" % (what, cells, cap),
                               cells=cells)


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
