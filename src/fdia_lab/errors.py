"""Exception types shared across the package.

The CLI maps these onto process exit codes: config 2, data 3, numerical 4.
"""


class FdiaLabError(Exception):
    """Base class for all package errors."""


class ConfigError(FdiaLabError):
    """Invalid configuration or parameter values."""


class DataError(FdiaLabError):
    """Malformed, missing, or insufficient input data."""


class DimensionError(DataError):
    """Operands with incompatible shapes."""


class NumericalError(FdiaLabError):
    """A numerical operation could not be completed reliably."""


class SingularMatrixError(NumericalError):
    """Linear solve refused: the reciprocal condition number is below tolerance."""

    def __init__(self, rcond: float, tick: int | None = None):
        self.rcond = rcond
        super().__init__(
            f"matrix is singular to working tolerance: reciprocal condition "
            f"number {rcond:.3e}" + (f" at tick {tick}" if tick is not None else "")
        )
