"""Exception types raised across the package.

Every error derives from DpBayesError so callers can catch library
failures with a single except clause while letting programming errors
(TypeError, AttributeError, ...) propagate.
"""


class DpBayesError(Exception):
    """Base class for all library errors."""


class CyclicGraphError(DpBayesError):
    """The declared parent structure contains a directed cycle."""


class DimensionMismatchError(DpBayesError):
    """Record width or vector shape does not match the network."""


class MissingPriorEntryError(DpBayesError):
    """A posterior update refers to an entry with no prior."""


class MissingPosteriorEntryError(DpBayesError):
    """A computation refers to a posterior entry that was never supplied."""


class InvalidArgumentError(DpBayesError, ValueError):
    """A numeric argument lies outside its allowed range."""


class InvalidEpsilonError(DpBayesError):
    """Privacy budget must be a positive real."""


class PriorTooSmallError(DpBayesError):
    """The utility-bound evaluator needs every prior parameter >= 2."""


class InvalidTError(DpBayesError):
    """Stealth parameter t must be strictly positive."""


class MissingCoefficientError(DpBayesError):
    """A reconstruction asked for a basis coefficient that was not released."""


class NonPositivePosteriorParamError(DpBayesError):
    """A noisy reconstruction produced a Beta parameter <= 0 (stealth failure)."""

    def __init__(self, message, entries=()):
        super().__init__(message)
        self.entries = tuple(entries)


class ConditionViolatedError(DpBayesError):
    """A graph lacks the form a routine needs, or a conditioning event has no representable mass."""


class OmegaTooLargeError(DpBayesError):
    """Trim bound >= 1/2 leaves an empty or degenerate support interval."""


class SingularSystemError(DpBayesError):
    """Normal-equation matrix is not positive definite."""


class RejectionBudgetExhaustedError(DpBayesError):
    """Rejection sampler hit its attempt budget without an acceptance."""


class EmptyLevelSetError(DpBayesError):
    """Utility level set carries zero prior mass; certificate undefined."""


class BudgetExceededError(DpBayesError):
    """Requested brute-force enumeration is above the supported size."""


class LengthMismatchError(DpBayesError):
    """Paired sequences have different lengths."""


class ConfigError(DpBayesError):
    """Invalid experiment or CLI configuration."""
