"""Shared exception types and the enumeration budget guard."""

from __future__ import annotations

import math

# Default ceiling on the number of items any full-space enumeration may
# touch.  Keeps desk-scale runs under minutes; override per call or via the
# CLI --budget flag.
DEFAULT_BUDGET = 1 << 26


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(
        self,
        required: int | str,
        budget: int,
        what: str = "enumeration",
        *,
        unit: str = "items",
        remedy: str | None = None,
    ):
        # required is the count, or its text when it is too large to form
        self.required = required
        self.budget = budget
        self.what = what
        count = _count_text(required)
        if remedy is None:
            remedy = f"rerun with a budget of at least {count}"
        super().__init__(
            f"{what} requires {count} {unit} but the budget is {budget}; "
            f"{remedy}"
        )


def _count_text(count: int | str) -> str:
    """count in decimal, or ~10^d if it has more digits than str() converts."""
    try:
        return str(count)
    except ValueError:
        return f"~10^{round(math.log10(count))}"


class SingularMatrixError(ValueError):
    """A matrix with determinant zero was passed where an inverse is needed."""


def check_budget(
    required: int, budget: int | None, what: str, *, unit: str = "items"
) -> int:
    """Raise BudgetExceededError if required > budget; return the effective budget."""
    effective = DEFAULT_BUDGET if budget is None else budget
    if required > effective:
        raise BudgetExceededError(required, effective, what, unit=unit)
    return effective
