"""Exception hierarchy.

Everything raised on purpose by this package derives from
:class:`PartialRegError`, so callers (and the command line front end) can
catch one type and turn it into a structured diagnostic.  Where a standard
exception type is the natural fit we subclass it as well, so ``except
KeyError`` style handlers keep working.
"""


class PartialRegError(Exception):
    """Base class for all errors raised by partialreg."""


# --------------------------------------------------------------------------
# dataset construction and lookup

class UnknownColumn(PartialRegError, KeyError):
    """A referenced column name is not present in the dataset."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep plain text
        return Exception.__str__(self)


class DuplicateColumn(PartialRegError):
    """Adding a column under a name the dataset already uses."""


class LengthMismatch(PartialRegError):
    """Sequence arguments that must agree in length do not."""


class TooFewRows(PartialRegError):
    """The dataset has fewer rows than the operation requires."""


# --------------------------------------------------------------------------
# statistics

class ZeroVariance(PartialRegError):
    """A constant column was used where variation is required."""


class NumericalOvershoot(PartialRegError):
    """A correlation left its legal range by more than rounding explains."""


class DegenerateCofactor(PartialRegError):
    """The predictor block of the correlation matrix is singular."""


# --------------------------------------------------------------------------
# fitting

class SingularDesign(PartialRegError):
    """The design matrix is singular or too ill conditioned to fit."""


class CollinearPredictors(SingularDesign):
    """Two predictors are (near-)proportional, so the fit is not well posed."""


class MissingPredictorValue(PartialRegError):
    """A prediction row lacks a value for one of the fit's predictors."""


# --------------------------------------------------------------------------
# predictor transforms

class IndexOutOfRange(PartialRegError, IndexError):
    """A 1-based predictor index lies outside 1..k."""


class SingularTransform(PartialRegError):
    """The predictor transform matrix is not invertible to tolerance."""


class ShapeMismatch(PartialRegError):
    """Matrix dimensions do not match the coefficient vector."""


class NonCanonicalSubsetRows(PartialRegError):
    """Rows of an aggregation matrix for kept predictors are not unit rows."""


# --------------------------------------------------------------------------
# slope-versus-gamma analysis

class DegenerateDirection(PartialRegError):
    """The combined predictor ``x1 - gamma * x2`` is constant at this gamma."""


class ZeroLeadSlope(PartialRegError):
    """The multiple-regression slope on x1 is ~0, so -b2/b1 is undefined."""


class GridTooLarge(PartialRegError, ValueError):
    """A gamma grid would have more points than the evaluators accept."""


# --------------------------------------------------------------------------
# CSV ingestion

class IoError(PartialRegError):
    """A file could not be opened, read or written, or a dataset cannot
    be written as CSV."""


class ParseError(PartialRegError):
    """A CSV file violates the expected format.

    ``row`` and ``column`` are 1-based file coordinates (the header is row
    1) when they are known, else ``None``.
    """

    def __init__(self, message: str, row: int | None = None,
                 column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingValue(ParseError):
    """A data cell is empty."""


class NonNumericCell(ParseError):
    """A data cell does not parse as a finite number."""


class DuplicateHeader(ParseError):
    """Two header cells carry the same column name."""


class RaggedRow(ParseError):
    """A data row's cell count differs from the header's."""
