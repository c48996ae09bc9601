"""Exception types shared across the package.

The CLI maps these onto its exit codes: UsageError -> 2, DataFormatError -> 3,
RangeOverflowError -> 4.
"""


class UsageError(ValueError):
    """Invalid parameters or flag combinations."""


class DataFormatError(ValueError):
    """Malformed input files or inconsistent vector shapes."""


class RangeOverflowError(ArithmeticError):
    """An input value or the squared norm overflowed the target format; the
    iteration cannot run.

    `row` is the first row of the batch whose squared norm overflowed, or
    None."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row
