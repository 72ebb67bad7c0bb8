"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations


class JointfeasError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(JointfeasError, ValueError):
    """Inputs violate a documented contract (domain, shape, schema).

    ``path`` optionally locates the offending field for file-based input,
    e.g. ``constraints[2].target``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class ConstraintMismatchError(ValidationError):
    """A constraint references a variable the problem does not declare."""


class SizeCapError(JointfeasError):
    """A problem exceeds a size cap: the atom cap, or the cone oracle's ray budget."""


class UnsupportedNumberError(JointfeasError, TypeError):
    """An exact operation was asked to mix incompatible algebraic numbers."""


class InfeasibleMatrixError(JointfeasError):
    """A correlation matrix has no nonnegative-spectrum completion."""
