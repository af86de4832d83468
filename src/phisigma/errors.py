"""Exception types and the process-wide memory budget.

Every operation raises DomainError for inputs outside its mathematical
domain and ResourceError when a computation would exceed the memory
budget.  The budget is read from the PHISIGMA_MEMORY_BUDGET environment
variable (bytes) and defaults to 4 GiB.
"""

import os

DEFAULT_MEMORY_BUDGET = 4 << 30

MEMORY_BUDGET_ENV = "PHISIGMA_MEMORY_BUDGET"

ARRAY_BYTES = 256  # a small array's object, its shape and strides, and the list slots holding it


class PhiSigmaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PhiSigmaError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ResourceError(PhiSigmaError, MemoryError):
    """Computation would exceed the configured memory or scan budget."""


class BudgetExceededError(ResourceError):
    """Enumeration cap hit; the result is undetermined, never guessed."""


def memory_budget() -> int:
    """Current memory budget in bytes."""
    raw = os.environ.get(MEMORY_BUDGET_ENV)
    if not raw:
        return DEFAULT_MEMORY_BUDGET
    try:
        value = int(float(raw))
    except ValueError as exc:
        raise ResourceError(f"unparseable {MEMORY_BUDGET_ENV}={raw!r}") from exc
    if value <= 0:
        raise ResourceError(f"{MEMORY_BUDGET_ENV} must be positive, got {value}")
    return value


def check_allocation(nbytes: int, what: str) -> None:
    """Raise ResourceError if an allocation would exceed the budget."""
    budget = memory_budget()
    if nbytes > budget:
        raise ResourceError(
            f"{what} needs {nbytes} bytes, budget is {budget} "
            f"(set {MEMORY_BUDGET_ENV} to raise it)"
        )
