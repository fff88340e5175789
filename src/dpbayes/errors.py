"""Exception types raised across the package, and the argument rules.

Every error derives from DpBayesError so callers can catch library
failures with a single except clause while letting programming errors
(TypeError, AttributeError, ...) propagate. Each kind of failure has
one class: InvalidArgumentError (also a ValueError) for an argument
outside its allowed range, DimensionMismatchError for inputs that
disagree with each other or with the network, ConditionViolatedError
for a condition that fails on well-formed input, CyclicGraphError for
a parent map with a cycle, ConfigError for a bad experiment or CLI
setting, and one class for each mechanism's own failure: the trim
interval of posterior sampling (OmegaTooLargeError) and the stealth
failure of the Fourier release (NonPositivePosteriorParamError). Each
rule on a numeric argument is written once, as a check_* function below;
a value that is no real number (a bool counts as none) fails every one of them.
"""
import math
import numbers
import operator


class DpBayesError(Exception):
    """Base class for all library errors."""


class CyclicGraphError(DpBayesError):
    """The declared parent structure contains a directed cycle."""


class DimensionMismatchError(DpBayesError):
    """Inputs disagree in shape, length or keys: with the network, or with each other.

    Record width or vector shape against the network, paired sequences
    of different lengths, a release stack's seed grid of another shape,
    and an entry-keyed input (priors, theta, a posterior or released
    coefficients) that lacks a key the computation needs or has an extra one.
    """


class InvalidArgumentError(DpBayesError, ValueError):
    """A numeric argument lies outside its allowed range."""


def _check_real(name: str, value: float) -> None:
    """Refuse a value that is not an int, a float or a numpy scalar of either."""
    if type(value) is float:  # the common case, without the slower abstract-class check
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")


def check_epsilon(epsilon: float) -> None:
    _check_real("epsilon", epsilon)
    if not epsilon > 0:
        raise InvalidArgumentError(f"epsilon must be positive, got {epsilon}")


def check_map_epsilon(epsilon: float) -> None:
    _check_real("epsilon", epsilon)
    if not 0 <= epsilon < math.inf:
        raise InvalidArgumentError(f"epsilon must be finite and non-negative, got {epsilon}")


def check_fraction(name: str, value: float) -> None:
    _check_real(name, value)
    if not 0 < value < 1:
        raise InvalidArgumentError(f"{name} must lie in (0, 1), got {value}")


def check_probability(name: str, value: float) -> None:
    _check_real(name, value)
    if not 0 <= value <= 1:
        raise InvalidArgumentError(f"{name} must lie in [0, 1], got {value}")


def check_positive(name: str, value: float) -> None:
    _check_real(name, value)
    if not 0 < value < math.inf:
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    _check_real(name, value)
    if not 0 <= value < math.inf:
        raise InvalidArgumentError(f"{name} must be non-negative and finite, got {value}")


def check_integer(name: str, value: int, lo: float = -math.inf, hi: float = math.inf) -> int:
    """operator.index(value), once it is known to lie in [lo, hi); a bool is no integer."""
    integral = hasattr(value, "__index__") and not isinstance(value, bool)
    index = operator.index(value) if integral else None
    if index is None or not lo <= index < hi:
        raise InvalidArgumentError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return index


class NonPositivePosteriorParamError(DpBayesError):
    """A noisy reconstruction produced a Beta parameter <= 0 (stealth failure)."""

    def __init__(self, message, entries=()):
        super().__init__(message)
        self.entries = tuple(entries)


class ConditionViolatedError(DpBayesError):
    """A condition the computation needs fails on well-formed input.

    A graph lacks the form a routine needs, a conditioning event has no
    representable mass, a regression system is not positive definite,
    the rejection sampler exhausts its attempt budget, or a utility
    level set carries no prior mass.
    """


class OmegaTooLargeError(DpBayesError):
    """Trim bound >= 1/2 leaves an empty or degenerate support interval."""


class ConfigError(DpBayesError):
    """Invalid experiment or CLI configuration."""
