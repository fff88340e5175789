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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyLevelSetError, InvalidArgumentError, LengthMismatchError
from .errors import check_integer, check_map_epsilon, check_positive
from .randomness import substream

_DRAW_TAG = "map-grid-draw"

Point = tuple[float, ...]
Utility = Callable[[Point], float] | Sequence[float] | np.ndarray

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Finite parameter grid with its prior masses (the base measure)."""

    points: tuple[Point, ...]
    prior_mass: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidArgumentError("grid must be non-empty")
        if len(self.points) != len(self.prior_mass):
            raise InvalidArgumentError("one prior mass per grid point")
        if len(set(map(len, self.points))) != 1:
            raise InvalidArgumentError("grid points must all have one coordinate count")
        if not all(map(math.isfinite, itertools.chain.from_iterable(self.points))):
            raise InvalidArgumentError("grid point coordinates must be finite")
        if not all(m > 0 for m in self.prior_mass):
            raise InvalidArgumentError("prior masses must be positive")
        total = math.fsum(self.prior_mass)
        if not abs(total - 1.0) <= _MASS_TOL:
            raise InvalidArgumentError(f"prior masses sum to {total}, expected 1 within {_MASS_TOL}")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def masses(self) -> np.ndarray:
        return np.asarray(self.prior_mass, dtype=np.float64)

    @classmethod
    def uniform(cls, points: Sequence[Sequence[float]]) -> "GridSpec":
        pts = tuple(tuple(float(c) for c in p) for p in points)
        return cls(points=pts, prior_mass=(1.0 / len(pts),) * len(pts))


@dataclass(frozen=True)
class MapSensitivity:
    """Utility sensitivity Δ in the mechanism's exponent.

    Two supported derivations: sqrt(L * r) from a Lipschitz likelihood
    with radius-r parameter support, or sqrt(M / 2) from the stochastic
    route's M constant.
    """

    kind: str
    delta_value: float

    def __post_init__(self) -> None:
        if self.kind not in ("lipschitz", "stochastic"):
            raise InvalidArgumentError(f"unknown sensitivity kind {self.kind!r}")
        check_positive("sensitivity", self.delta_value)


def map_sensitivity(kind: str, L_or_M: float, r: float | None = None) -> MapSensitivity:
    """Δ = sqrt(L*r) for kind 'lipschitz', Δ = sqrt(M/2) for 'stochastic'."""
    check_positive("constant", L_or_M)
    if kind == "lipschitz":
        if r is None:
            raise InvalidArgumentError("lipschitz sensitivity needs a positive radius r")
        check_positive("radius r", r)
        return MapSensitivity(kind="lipschitz", delta_value=math.sqrt(L_or_M * r))
    if r is not None:
        raise InvalidArgumentError(f"{kind} sensitivity takes no radius")
    # MapSensitivity rejects any kind other than "stochastic" here
    return MapSensitivity(kind=kind, delta_value=math.sqrt(0.5 * L_or_M))


def _utility_values(grid: GridSpec, utility: Utility) -> np.ndarray:
    if callable(utility):
        vals = np.array([float(utility(p)) for p in grid.points], dtype=np.float64)
    else:
        vals = np.asarray(utility, dtype=np.float64)
        if vals.shape != (grid.size,):
            raise LengthMismatchError("need one utility value per grid point")
    if not np.isfinite(vals).all():
        raise InvalidArgumentError("utility must be finite on every grid point")
    return vals


def sampling_probabilities(
    grid: GridSpec, utility: Utility, epsilon: float, delta: MapSensitivity
) -> np.ndarray:
    """Exactly-normalized sampling distribution over the grid points."""
    check_map_epsilon(epsilon)
    u = _utility_values(grid, utility)
    expo = epsilon * u / (2.0 * delta.delta_value)
    expo -= expo.max()
    w = grid.masses * np.exp(expo)
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
    masses = grid.masses
    level = u.max() - t
    mass = float(masses[u > level].sum() / masses.sum())
    if mass <= 0.0:
        raise EmptyLevelSetError(f"no grid point has utility above {level}")
    scale = 1.0 if sensitivity is None else 2.0 * sensitivity.delta_value
    return math.exp(-epsilon * t / scale) / mass
