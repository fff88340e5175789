"""Exception types raised across the package, and the argument rules.

Every error derives from DpBayesError so callers can catch library
failures with a single except clause while letting programming errors
(TypeError, AttributeError, ...) propagate. Every bad argument raises
InvalidArgumentError, which is both a DpBayesError and a ValueError;
InvalidEpsilonError and InvalidTError are its subclasses. Each rule on
a numeric argument is written once, as a check_* function below.
"""
import math
import operator


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


class InvalidEpsilonError(InvalidArgumentError):
    """Privacy budget outside the range its mechanism allows."""


class PriorTooSmallError(DpBayesError):
    """The utility-bound evaluator needs every prior parameter >= 2."""


class InvalidTError(InvalidArgumentError):
    """Stealth parameter t must be positive and finite."""


def check_epsilon(epsilon: float) -> None:
    if not epsilon > 0:
        raise InvalidEpsilonError(f"epsilon must be positive, got {epsilon}")


def check_map_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon < math.inf:
        raise InvalidEpsilonError(f"epsilon must be finite and non-negative, got {epsilon}")


def check_fraction(name: str, value: float) -> None:
    if not 0 < value < 1:
        raise InvalidArgumentError(f"{name} must lie in (0, 1), got {value}")


def check_t(t: float) -> None:
    if not 0 < t < math.inf:
        raise InvalidTError(f"t must be positive and finite, got {t}")


def check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise InvalidArgumentError(f"{name} must be non-negative and finite, got {value}")


def check_integer(name: str, value: int, lo: float = -math.inf, hi: float = math.inf) -> int:
    """operator.index(value), once it is known to lie in [lo, hi); a bool is no integer."""
    integral = hasattr(value, "__index__") and not isinstance(value, bool)
    index = operator.index(value) if integral else None
    if index is None or not lo <= index < hi:
        raise InvalidArgumentError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return index


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
