"""The budget exception and the one budget gate, check_budget."""

from __future__ import annotations

import math

# Default ceiling on the number of items any full-space enumeration may
# touch.  Keeps desk-scale runs under minutes; override per call, or on the
# CLI with --budget or $UNICAYLEY_BUDGET.
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
        at_least: bool = False,
    ):
        # required is the count, or its text when it is too large to form;
        # at_least marks it as a lower bound on the work
        self.required = required
        self.budget = budget
        self.what = what
        count = _count_text(required)
        if remedy is None:
            remedy = f"rerun with a budget of at least {count}"
        bound = "at least " if at_least else ""
        super().__init__(
            f"{what} requires {bound}{count} {unit} but the budget is {budget}; "
            f"{remedy}"
        )


def _count_text(count: int | str) -> str:
    """count in decimal, or ~10^d if it has more digits than str() converts."""
    try:
        return str(count)
    except ValueError:
        return f"~10^{round(math.log10(count))}"


def _unformable(c: int, b: int, e: int, bound: int) -> bool:
    """True when bit lengths alone show c * b^e > bound, and c * b^e would
    have at least 2^16 bits: too many to form just to compare."""
    floor = c.bit_length() - 1 + (b.bit_length() - 1) * e
    return floor >= max(bound.bit_length(), 1 << 16)


def _log10(c: int, b: int, e: int) -> tuple[int, float]:
    """log10(c * b^e) as an int plus a float, with no float of e or b^e."""
    num, den = math.log10(b).as_integer_ratio()
    whole, rest = divmod(e * num, den)
    return whole, rest / den + math.log10(c)


def check_budget(
    terms, budget: int | None, what: str, *, unit: str = "items",
    remedy: str | None = None,
) -> None:
    """Raise BudgetExceededError if the work exceeds the budget (None: default).

    The one place that compares work with a budget.  The work is the sum of
    c * b^e over terms, positive (c, b, e) such as [(n + 1, q, n * n)].  The
    first term that _unformable shows over the budget refuses at once,
    stating that term, at least ~10^d, as a lower bound on the work, so a
    lazy iterable yields its largest term first; otherwise the exact sum is
    formed and a refusal states it.
    """
    effective = DEFAULT_BUDGET if budget is None else budget
    total = 0
    for c, b, e in terms:
        if _unformable(c, b, e, effective):
            whole, part = _log10(c, b, e)
            raise BudgetExceededError(f"~10^{whole + round(part)}", effective,
                                      what, unit=unit, remedy=remedy,
                                      at_least=True)
        total += c * b ** e
    if total > effective:
        raise BudgetExceededError(total, effective, what, unit=unit, remedy=remedy)
