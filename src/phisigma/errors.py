"""Exception types and the process-wide memory budget.

Every operation raises DomainError for inputs outside its mathematical
domain and ResourceError when a computation would exceed the memory
budget or a cap on its input (such as the 10^12 input cap of every
scan and trial division).  The budget is read from the
PHISIGMA_MEMORY_BUDGET environment variable (bytes, read by parse_int)
and defaults to 4 GiB.
"""

import os
import re

DEFAULT_MEMORY_BUDGET = 4 << 30

MEMORY_BUDGET_ENV = "PHISIGMA_MEMORY_BUDGET"

ARRAY_BYTES = 256  # a small array's object, its shape and strides, and the list slots holding it


class PhiSigmaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PhiSigmaError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ResourceError(PhiSigmaError, MemoryError):
    """Computation would exceed the configured memory or scan budget."""


# an exponent of ten digits or more is past any value's range
_DECIMAL = re.compile(r"([+-]?)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d{1,9}))?")
_MAX_DIGITS = 4300  # the default limit of int() on the digits of a string


def parse_int(s: str) -> int:
    """An integer, plain or as 1e9, exactly (1e23 is 10**23, not the nearest
    double); ValueError for anything else, nan and inf included."""
    try:
        return int(s)
    except ValueError:
        pass
    m = _DECIMAL.fullmatch(s.strip())
    if m is None or not (m[2] or m[3]):  # nan and inf too
        raise ValueError(f"not a finite number: {s!r}")
    frac = m[3] or ""
    digits = (m[2] + frac).lstrip("0")
    if not digits:
        return 0
    # the value is int(mantissa) * 10**exp, the mantissa without trailing zeros
    mantissa = digits.rstrip("0")
    exp = int(m[4] or 0) - len(frac) + len(digits) - len(mantissa)
    if exp < 0:
        raise ValueError(f"not an integer: {s!r}")
    if len(mantissa) + exp > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits: {s!r}")
    return (-1 if m[1] == "-" else 1) * int(mantissa) * 10**exp


def memory_budget() -> int:
    """Current memory budget in bytes."""
    raw = os.environ.get(MEMORY_BUDGET_ENV)
    if not raw:
        return DEFAULT_MEMORY_BUDGET
    try:
        value = parse_int(raw)
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
