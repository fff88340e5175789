"""Private MAP point estimates via the exponential mechanism.

The parameter space is a user-chosen finite grid carrying the prior as
its base measure. A point is sampled with probability proportional to
exp(epsilon * u(theta) / (2 delta)) * prior(theta), where the utility
u is the unnormalized log-posterior; only utility differences matter,
so dropping the marginal-likelihood constant is safe. All weight
handling goes through a max-shift before exponentiation because
realistic log-posteriors overflow exp otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditionViolatedError, DimensionMismatchError, InvalidArgumentError
from .errors import check_integer, check_map_epsilon, check_positive
from .randomness import substream

_DRAW_TAG = "map-grid-draw"

Utility = Sequence[float] | np.ndarray  # one value per grid point

_MASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Finite parameter grid with its prior masses (the base measure).

    points is a read-only (size, dim) array, one row per grid point, and
    prior_mass a read-only vector of one mass per point.
    """

    points: np.ndarray
    prior_mass: np.ndarray

    def __post_init__(self) -> None:
        points, mass = self.points, np.array(self.prior_mass, dtype=np.float64)
        if not len(points):
            raise InvalidArgumentError("grid must be non-empty")
        if mass.shape != (len(points),):
            raise InvalidArgumentError("one prior mass per grid point")
        # a ragged sequence must be caught before numpy refuses it
        ragged = not isinstance(points, np.ndarray) and len(set(map(len, points))) != 1
        if ragged or np.ndim(points) != 2:
            raise InvalidArgumentError("grid points must all have one coordinate count")
        points = np.array(points, dtype=np.float64)
        if not np.isfinite(points).all():
            raise InvalidArgumentError("grid point coordinates must be finite")
        if not (mass > 0).all():
            raise InvalidArgumentError("prior masses must be positive")
        total = math.fsum(mass.tolist())
        if not abs(total - 1.0) <= _MASS_TOL:
            raise InvalidArgumentError(f"prior masses sum to {total}, expected 1 within {_MASS_TOL}")
        points.flags.writeable = mass.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "prior_mass", mass)

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def uniform(cls, points: Sequence[Sequence[float]]) -> "GridSpec":
        # no points: no masses, which the constructor rejects as an empty grid
        return cls(points=points, prior_mass=np.full(len(points), 1.0 / max(len(points), 1)))


@dataclass(frozen=True)
class MapSensitivity:
    """Utility sensitivity Δ in the mechanism's exponent, derived by the caller.

    Kind "lipschitz": Δ = sqrt(L r) for an L-Lipschitz likelihood on
    radius-r parameter support; kind "stochastic": Δ = sqrt(M / 2) from
    the stochastic route's constant M. The CLI's map delta is Δ itself.
    """

    kind: str
    delta_value: float

    def __post_init__(self) -> None:
        if self.kind not in ("lipschitz", "stochastic"):
            raise InvalidArgumentError(f"unknown sensitivity kind {self.kind!r}")
        check_positive("sensitivity", self.delta_value)


def _utility_values(grid: GridSpec, utility: Utility) -> np.ndarray:
    vals = np.asarray(utility, dtype=np.float64)
    if vals.shape != (grid.size,):
        raise DimensionMismatchError("need one utility value per grid point")
    if not np.isfinite(vals).all():
        raise InvalidArgumentError("utility must be finite on every grid point")
    return vals


def sampling_probabilities(
    grid: GridSpec, utility: Utility, epsilon: float, delta: MapSensitivity
) -> np.ndarray:
    """Exactly-normalized sampling distribution over the grid points.

    Utilities are shifted by their max before they are scaled, so an
    exponent can overflow only to -inf, a weight of 0.
    """
    check_map_epsilon(epsilon)
    u = _utility_values(grid, utility)
    with np.errstate(over="ignore"):
        gap = (u - u.max()) / (2.0 * delta.delta_value)
        expo = epsilon * gap if epsilon else np.zeros_like(gap)
    w = grid.prior_mass * np.exp(expo)
    return w / w.sum()


def exp_mechanism_indices(
    grid: GridSpec,
    utility: Utility,
    epsilon: float,
    delta: MapSensitivity,
    seed: int,
    size: int = 1,
) -> np.ndarray:
    """Indices of `size` independent draws; deterministic under seed."""
    probs = sampling_probabilities(grid, utility, epsilon, delta)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = substream(seed, _DRAW_TAG)
    idx = np.searchsorted(cum, rng.random(check_integer("size", size, 0)), side="right")
    return np.minimum(idx, grid.size - 1)


def map_utility_certificate(
    grid: GridSpec,
    utility: Utility,
    epsilon: float,
    t: float,
    sensitivity: MapSensitivity | None = None,
) -> float:
    """Tail bound on how far the drawn utility can fall below the best.

    Returns exp(-eps*t/(2Δ)) / prior(S_t) with S_t = {u > u* - t}; the
    draw then lands outside S_{2t} (utility <= u* - 2t) with at most
    that probability. With no sensitivity argument the bound is the
    plain exp(-eps*t)/prior(S_t) form, which is the Δ = 1/2 case.
    """
    check_positive("t", t)
    check_map_epsilon(epsilon)
    u = _utility_values(grid, utility)
    masses = grid.prior_mass
    level = u.max() - t
    mass = float(masses[u > level].sum() / masses.sum())
    if mass <= 0.0:
        raise ConditionViolatedError(f"no grid point has utility above {level}")
    scale = 1.0 if sensitivity is None else 2.0 * sensitivity.delta_value
    return math.exp(-epsilon * t / scale) / mass
