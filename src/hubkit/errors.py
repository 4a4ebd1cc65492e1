"""Exception types shared across hubkit modules.

Validation failures on in-memory data raise subclasses of ``DataError``;
file-format problems raise subclasses of ``FileFormatError``.  The CLI maps
both families to exit code 2.
"""

import operator


class HubkitError(Exception):
    """Base class for all hubkit errors."""


class DataError(HubkitError, ValueError):
    """Invalid in-memory input (shape, range, or content)."""


class NonFiniteInput(DataError):
    """Input contains NaN or Inf where finite values are required.

    Raised for NaN or Inf only; a wrong shape is ShapeMismatch.
    """


class ZeroVectorRow(DataError):
    """A row that must be normalizable is the zero vector."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} is a zero vector and cannot be normalized")


class DimMismatch(DataError):
    """Embedding dimensions disagree."""

    def __init__(self, d_left: int, d_right: int):
        self.d_left = d_left
        self.d_right = d_right
        super().__init__(f"embedding dims disagree: {d_left} vs {d_right}")


class ShapeMismatch(DataError):
    """A shape is refused: the wrong rank, an empty array, or shapes that disagree.

    Every shape refusal raises this class, except a mismatch of one named
    axis, which has its own (DimMismatch, RowMismatch, ColMismatch,
    LengthMismatch).
    """


class RowMismatch(DataError):
    """Row counts disagree between matrices that must share rows."""


class ColMismatch(DataError):
    """Column counts disagree between matrices that must share columns."""


class LengthMismatch(DataError):
    """A vector's length does not match the matrix axis it applies to."""


class NonPositiveTau(DataError):
    """Temperature must be finite and strictly positive."""

    def __init__(self, tau: float):
        self.tau = tau
        super().__init__(f"temperature must be finite and > 0, got {tau}")


class ZeroMarginalEntry(DataError):
    """Marginal vectors must have strictly positive entries."""


class KOutOfRange(DataError):
    """k is outside the valid 1..n range."""

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        super().__init__(f"k={k} out of range 1..{n}")


class IndexOutOfRange(DataError):
    """A ground-truth target index exceeds the number of columns."""


class EmptyPlan(DataError):
    """A transport plan with zero entries has no sparsity."""


def _as_index(name: str, value) -> int:
    """``value`` as an int if it is an integer (Python or numpy), else DataError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"{name} must be an integer, got {value!r}") from None


class FileFormatError(HubkitError, IOError):
    """Base class for binary/report file problems."""

    def __init__(self, path, message: str, offset: int | None = None):
        self.path = str(path)
        self.offset = offset
        where = f"{path}" if offset is None else f"{path} (byte {offset})"
        super().__init__(f"{where}: {message}")


class BadMagic(FileFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(FileFormatError):
    """File ends before the declared payload is complete."""


class SizeMismatch(FileFormatError):
    """Declared header sizes do not match the payload exactly."""


class IoFailure(FileFormatError):
    """Underlying OS-level read/write failure."""


class ZeroVarianceWarning(UserWarning):
    """Skewness of a constant distribution is reported as 0 by convention."""
