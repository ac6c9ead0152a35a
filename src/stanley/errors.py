"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: contract violations on the caller's
side (bad seeds, odd or negative character targets) are input errors,
budget and overflow conditions are resource errors, and everything that
represents a negative mathematical finding (a failed verification, a
target outside the constructive method) is a verification failure.
"""

from __future__ import annotations


class StanleyError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidSeedError(StanleyError):
    """Seed violates the greedy-construction contract (AP, missing 0, ...)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OverflowLimitError(StanleyError):
    """A computed value left the supported 64-bit working range."""


class InsufficientTermsError(StanleyError):
    """Sequence has too few terms for the requested analysis depth."""


class NotModularError(StanleyError):
    """An operation required a verified modular set and did not get one."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InvalidSystemError(StanleyError):
    """Composed system violates one of its construction invariants."""


class DuplicateSumError(StanleyError):
    """Two distinct element subsets produced the same sum."""


class NotRepresentableError(StanleyError):
    """Value is not a member of the composed sequence being decomposed."""


class NotRealizableError(StanleyError):
    """Character target outside what the constructive planner handles.

    reason is one of "negative", "odd", "residue-244".  The last one is a
    negative finding (the method does not cover that class), the first two
    are caller errors.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class PlanVerificationError(StanleyError):
    """Realized sequence failed its independent greedy cross-check."""


class BudgetExceededError(StanleyError):
    """A search or exploration ran past its node budget, or a cover past its cap."""
