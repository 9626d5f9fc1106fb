"""Exception types shared across the package."""


class TenalignError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(TenalignError, ValueError):
    """Operands disagree on a dimension, shape, or tensor order."""


class DegenerateIterateError(TenalignError, RuntimeError):
    """An iteration produced a zero (or otherwise unusable) iterate."""


class DegenerateProblemError(TenalignError, ValueError):
    """The problem instance is degenerate, e.g. an empty motif tensor."""


class NumericalFailureError(TenalignError, ArithmeticError):
    """Non-finite values were produced or supplied where finite ones are required."""


class InputFormatError(TenalignError, ValueError):
    """An input file is malformed; the message names the file (and line)."""


class BudgetExceededError(TenalignError, ValueError):
    """A dense/enumeration budget would be exceeded by the requested operation."""
