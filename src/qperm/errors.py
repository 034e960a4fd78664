"""Exception types shared across the package."""


class QpermError(Exception):
    """Base class for all package errors."""


class DimensionTooSmall(QpermError):
    """Requested dimension is below the smallest supported one."""


class IndexOutOfRange(QpermError):
    """A 1-based row/column index is outside 1..n."""


class NotMagic(QpermError):
    """A vector grid failed the row/column orthonormality check."""


class EmptyMonomial(QpermError):
    """An operation requires a nonempty generator word."""


class BudgetExceeded(QpermError):
    """An exhaustive scan would touch more tuples than the budget allows."""


class DegreeTooHigh(QpermError):
    """Haar evaluation is only available for reduced degree <= 4."""


class NotClassifiable(QpermError):
    """A reduced word matched no known class orbit (should never happen)."""


class MemoryCap(QpermError):
    """A state tensor would exceed the configured memory cap."""
