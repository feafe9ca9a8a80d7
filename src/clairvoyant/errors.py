"""Exceptions shared across the package."""


class BudgetError(Exception):
    """An exact computation was refused because it exceeds its size budget.

    Raised before the work passes the budget, with no partial result, so
    callers can retry with a smaller instance or a larger explicit budget.
    """


class PropertyViolation(Exception):
    """A runtime self-check failed (invalid witness, broken coupling, ...).

    This signals a bug or a corrupted input, not a statistical fluctuation.
    """
