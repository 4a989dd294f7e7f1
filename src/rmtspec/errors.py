"""Exception hierarchy.

``RmtError`` is the common base. Validation-type errors double as
``ValueError`` so that callers using plain ``except ValueError`` still work;
numerical failures derive from ``NumericalError`` (the CLI maps the former to
exit code 1 and the latter to exit code 2).
"""


class RmtError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RmtError, ValueError):
    """Bad input: shape, range, or state preconditions."""


class NumericalError(RmtError, ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result."""


# ---- matrix construction / decomposition -----------------------------------

class ZeroVarianceRow(ValidationError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero sample variance, cannot standardize")


class DimensionMismatch(ValidationError):
    pass


class LagOutOfRange(ValidationError):
    pass


class NotStandardized(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NonFiniteData(ValidationError):
    """A data matrix holds NaN or inf (a capture payload, for one)."""


class ConvergenceFailure(NumericalError):
    pass


# ---- theory -----------------------------------------------------------------

class InvalidRatio(ValidationError):
    pass


class DegenerateLeadingCoefficient(ValidationError):
    pass


class NoConvergence(NumericalError):
    pass


class BranchAmbiguity(NumericalError):
    """Two quartic roots are equally good continuations; refine the grid."""

    def __init__(self, x: float, detail: str = ""):
        self.x = x
        msg = f"ambiguous physical branch at x={x!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NegativeDensity(NumericalError):
    """The selected branch produced Im G < -1e-9, beyond clamping range."""


class NotNormalized(ValidationError):
    pass


# ---- estimation ---------------------------------------------------------------

class EmptySpectrum(ValidationError):
    pass


class BandwidthNonPositive(ValidationError):
    pass


class DegenerateSample(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class DisjointSupportsWarning(UserWarning):
    """Density supports do not overlap; the distance degenerates to mass sum."""


# ---- signal synthesis ---------------------------------------------------------

class AliasingConfig(ValidationError):
    pass


class EmptyOccupiedSet(ValidationError):
    pass


class NonPowerOfTwoLength(ValidationError):
    pass


class InsufficientSamples(ValidationError):
    pass


# ---- capture file format ------------------------------------------------------

class CaptureFormatError(ValidationError):
    pass


class BadMagic(CaptureFormatError):
    pass


class UnsupportedVersion(CaptureFormatError):
    pass


class UnsupportedDtype(CaptureFormatError):
    pass


class TruncatedPayload(CaptureFormatError):
    pass
