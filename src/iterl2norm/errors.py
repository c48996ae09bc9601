"""Exception types shared across the package, and the checks of count and
rate settings that raise them.

The CLI maps these onto its exit codes: UsageError -> 2, DataFormatError -> 3,
RangeOverflowError -> 4.
"""

import numpy as np


class UsageError(ValueError):
    """Invalid parameters or flag combinations."""


class DataFormatError(ValueError):
    """Malformed input files or inconsistent vector shapes."""


class RangeOverflowError(ArithmeticError):
    """An input value, a sum, a mean-shifted value or the squared norm
    overflowed the target format; the iteration cannot run.

    `row` is the first row of the batch whose squared norm overflowed, or
    None; the message names the first of that row's stages that did.  For
    a batch of several parts (`norm_core.shift_batches`), `row` is a row of
    the first part that has one, and `failures` holds (part, row, message)
    for the first such row of each part that has one."""

    def __init__(self, message: str, row: int | None = None,
                 failures: tuple[tuple[int, int, str], ...] = ()) -> None:
        super().__init__(message)
        self.row = row
        self.failures = failures


def check_integers(name: str, *values, at_least: int | None = None) -> None:
    """Each of `values`, the count or the counts of the setting `name`, is a
    Python or numpy integer, not a bool, and no less than `at_least` when it
    is given; anything else is a UsageError naming the setting (and the
    value, if it is not an integer)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise UsageError(f"{name}: not an integer: {v!r}")
        if at_least is not None and v < at_least:
            raise UsageError(f"{name} must be >= {at_least}")


def check_positive(name: str, value, finite: bool = True) -> None:
    """`value` is greater than 0, and less than infinity when `finite`; a
    value that is not, a bool, or a value that does not compare with
    numbers is a UsageError naming the setting `name`."""
    try:
        ok = value > 0 and (not finite or value < np.inf)
    except (TypeError, ValueError):
        ok = None
    if ok is None or isinstance(value, (bool, np.bool_)):
        raise UsageError(f"{name}: not a number: {value!r}")
    if not ok:
        raise UsageError(f"{name} must be positive" + (" and finite" if finite else ""))


def check_lambda(lambda_override) -> None:
    """An update-rate override is None (the default rate) or positive and
    finite; anything else is a UsageError."""
    if lambda_override is not None:
        check_positive("lambda override", lambda_override)
