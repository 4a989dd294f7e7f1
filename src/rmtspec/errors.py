"""Exception hierarchy: two kinds of error for the CLI's two failure exit codes.

``RmtError`` is the common base. ``ValidationError`` (bad input: shape,
range, file format or state preconditions) doubles as ``ValueError`` so that
callers using plain ``except ValueError`` still work, and the CLI maps it to
exit code 1. ``NumericalError`` (a numerical procedure failed to produce a
trustworthy result) maps to exit code 2. The message says which check failed.
A plain ``ValueError`` from ``linalg`` (an illegal LAPACK argument, or an
eigenvalue sum that disagrees with the trace) reports a fault of the program,
not bad input.
"""


class RmtError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RmtError, ValueError):
    """Bad input: shape, range, file format or state preconditions."""


class NumericalError(RmtError, ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result."""


class ZeroVarianceRow(ValidationError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero sample variance, cannot standardize")


class BranchAmbiguity(NumericalError):
    """Two quartic roots are equally good continuations; refine the grid."""

    def __init__(self, x: float, detail: str = ""):
        self.x = x
        msg = f"ambiguous physical branch at x={x!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DisjointSupportsWarning(UserWarning):
    """Density supports do not overlap; the distance degenerates to mass sum."""
