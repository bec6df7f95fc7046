"""Exception hierarchy for the dmap package.

Three broad families map onto the CLI exit codes:

* :class:`ValidationError` — malformed or inconsistent inputs (exit code 2),
* :class:`NumericalError` — a solver could not produce a trustworthy result
  (exit code 3),
* :class:`FileFormatError` — unreadable or malformed files (exit code 4).
"""

from __future__ import annotations


class DmapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DmapError):
    """Inputs violate a documented precondition or invariant."""


class MissingClass(ValidationError):
    """A requested class has no instances in the provided labels."""


class UnknownLabel(ValidationError):
    """An instance label does not appear in the seen-class list."""


class UnknownClass(ValidationError):
    """A ground-truth class is not among the score candidates."""


class MissingInstance(ValidationError):
    """Ground truth refers to an instance the prediction does not cover."""


class DimensionMismatch(ValidationError):
    """Matrix shapes are inconsistent with the operation's contract."""


class EmptyTestSet(ValidationError):
    """Inference was requested on an empty test set."""


class InfeasibleConfig(ValidationError):
    """A synthetic-data configuration cannot be realised geometrically."""


class NumericalError(DmapError):
    """A numerical routine failed to produce a reliable result."""


class SingularSystem(NumericalError):
    """A Gram matrix is singular or too ill-conditioned to factorise."""


class FileFormatError(DmapError):
    """A file could not be read or does not follow its declared format."""


class ParseError(FileFormatError):
    """A file's content is syntactically invalid.

    Parameters
    ----------
    message : str
        Human-readable description.
    line : int, optional
        One-based line number of the offending content.
    column : int, optional
        One-based column number, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ShapeMismatch(FileFormatError):
    """A matrix file's body does not match its declared shape."""
