"""Exception taxonomy shared across modules.

The CLI maps these onto exit codes: bad input (ValueError or InputError) is
2, NotApplicableError is 3, InvariantError and BudgetExceededError are 4.
"""


class DuadiqError(Exception):
    """Base class for package errors."""


class InputError(DuadiqError, ValueError):
    """Malformed or out-of-domain user input."""


class NotApplicableError(DuadiqError):
    """No construction applies; carries the failed preconditions."""

    def __init__(self, message: str, failed: list[str] | None = None):
        super().__init__(message)
        self.failed = failed or []


class BudgetExceededError(DuadiqError):
    """An exact computation was requested beyond the enumeration budget."""


class InvariantError(DuadiqError):
    """An internal invariant failed; indicates a bug or a wrong annotation."""
