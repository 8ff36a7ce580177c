"""Exception types shared across the package.

Resource-limit errors (anything a caller can fix by raising a budget or
cap) derive from ResourceLimitError so front ends can map them to a
distinct exit status.
"""


class BranchgfError(Exception):
    """Base class for all package-specific errors."""


class ZeroDenominatorError(BranchgfError, ZeroDivisionError):
    """Denominator polynomial is identically zero."""


class NonUnitConstantTermError(BranchgfError, ValueError):
    """Denominator has constant term 0, so no power-series expansion exists."""


class NonIntegerCoefficientError(BranchgfError, ValueError):
    """A series expansion produced a non-integer coefficient."""


class ElementNotInGroupError(BranchgfError, ValueError):
    """A permutation was passed that does not belong to the ambient group."""


class ElementNotInAlgebraError(BranchgfError, ValueError):
    """A matrix was passed that does not belong to the ambient subalgebra."""


class ResourceLimitError(BranchgfError, RuntimeError):
    """Base class for configurable resource limits."""


class StateExplosionError(ResourceLimitError):
    """Class discovery exceeded the state limit (keying is probably not self-similar)."""


class OrderLimitError(ResourceLimitError):
    """Group order exceeds the supported bound for the requested operation."""


class SizeLimitError(ResourceLimitError):
    """A ring, a configuration or a printed integer exceeds its size rule."""


class WorkBudgetError(ResourceLimitError):
    """An enumeration exceeded its work budget."""
