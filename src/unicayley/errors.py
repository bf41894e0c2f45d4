"""Shared exception types and the enumeration budget guard."""

from __future__ import annotations

# Default ceiling on the number of items any full-space enumeration may
# touch.  Keeps desk-scale runs under minutes; override per call or via the
# CLI --budget flag.
DEFAULT_BUDGET = 1 << 26


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(
        self,
        required: int,
        budget: int,
        what: str = "enumeration",
        *,
        unit: str = "items",
        remedy: str | None = None,
    ):
        self.required = required
        self.budget = budget
        self.what = what
        if remedy is None:
            remedy = f"rerun with a budget of at least {required}"
        super().__init__(
            f"{what} requires {required} {unit} but the budget is {budget}; "
            f"{remedy}"
        )


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
