"""Exception types shared across the package."""

from __future__ import annotations


class MixingLabError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(MixingLabError):
    """Degree arrays are empty or have unequal lengths."""


class MismatchedSums(MixingLabError):
    """Out-degree total differs from in-degree total."""


class DegreeTooSmall(MixingLabError):
    """A prescribed degree is below the minimum of 2."""


class DegreeTooLarge(MixingLabError):
    """An out-degree exceeds the vertex count (no injective tail map exists)."""


class ModelMismatch(MixingLabError):
    """Degree data does not fit the requested model."""


class BadValue(MixingLabError):
    """A scalar argument is outside its allowed range."""


class BadRange(MixingLabError):
    """A time or vertex index is outside its allowed range."""


class ImpossibleStep(MixingLabError):
    """A trajectory step has probability zero under the given kernel."""


class NotConverged(MixingLabError):
    """Power iteration hit its iteration cap before meeting the tolerance.

    Carries the best iterate so callers can inspect or flag it instead of
    silently substituting a half-converged vector.
    """

    def __init__(self, message, best=None, residual=None, iterations=None,
                 scc_count=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
        self.scc_count = scc_count


class AllReplicatesFailed(MixingLabError):
    """Every stationary solve in an estimate failed to converge."""


class BadCurveName(BadValue):
    """Unknown limit-curve identifier."""


class BudgetExceeded(MixingLabError):
    """A kernel product or solver iteration would pass the operation budget;
    the call that would cross the cap raises it before doing that work."""


class BadGeneratorSyntax(MixingLabError):
    """A degree-sequence generator string could not be parsed."""


class MissingRequired(MixingLabError):
    """A required run parameter was not supplied by flags or config."""


class UnknownFlag(MixingLabError):
    """Unrecognized command-line flag."""
