"""Exponential mechanism over parameter grids and its tail certificate."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats

from dpbayes import (
    ConditionViolatedError,
    DimensionMismatchError,
    DpBayesError,
    GridSpec,
    InvalidArgumentError,
    MapSensitivity,
    exp_mechanism_indices,
    map_utility_certificate,
    sampling_probabilities,
)
from dpbayes.verify import exp_mechanism_bruteforce_probs, exp_mechanism_worst_log_ratio

HALF = MapSensitivity(kind="stochastic", delta_value=0.5)


def ten_point_grid():
    points = [(0.1 * i,) for i in range(10)]
    masses = np.arange(1.0, 11.0)
    masses /= masses.sum()
    return GridSpec(points=tuple(points), prior_mass=tuple(masses))


# ---------------------------------------------------------------------------
# grid spec
# ---------------------------------------------------------------------------


def test_grid_mass_must_normalize():
    with pytest.raises(ValueError):
        GridSpec(points=((0.0,), (1.0,)), prior_mass=(0.5, 0.6))
    with pytest.raises(ValueError):
        GridSpec(points=((0.0,), (1.0,)), prior_mass=(1.1, -0.1))
    with pytest.raises(ValueError):
        GridSpec(points=(), prior_mass=())
    with pytest.raises(ValueError):
        GridSpec(points=((0.0,),), prior_mass=(0.5, 0.5))
    # NaN compares False both ways, so it must fail the positivity and the sum check
    with pytest.raises(InvalidArgumentError):
        GridSpec(points=((0.0,), (1.0,), (2.0,)), prior_mass=(math.nan, 0.5, 0.5))
    with pytest.raises(InvalidArgumentError):
        GridSpec(points=((0.0,), (1.0,)), prior_mass=(0.5, math.inf))


@pytest.mark.parametrize(
    "points",
    [((math.nan,), (1.0,)), ((0.0,), (math.inf,)), ((0.0, -math.inf), (1.0, 2.0)),
     ((0.0,), (1.0, 2.0)), ((0.0, 1.0), (2.0,))],
)
def test_grid_rejects_non_finite_or_ragged_points(points):
    with pytest.raises(InvalidArgumentError, match="finite|one coordinate count"):
        GridSpec(points=points, prior_mass=(0.5, 0.5))


def test_grid_uniform_constructor():
    grid = GridSpec.uniform([(0.0,), (0.5,), (1.0,)])
    assert grid.size == 3
    assert grid.prior_mass == pytest.approx([1 / 3] * 3)
    with pytest.raises(InvalidArgumentError, match="non-empty"):
        GridSpec.uniform([])


# ---------------------------------------------------------------------------
# sampling distribution
# ---------------------------------------------------------------------------


def test_probs_epsilon_zero_equals_prior():
    grid = ten_point_grid()
    probs = sampling_probabilities(grid, 100 * grid.points[:, 0], 0.0, HALF)
    expected = grid.prior_mass / grid.prior_mass.sum()
    assert np.array_equal(probs, expected)


def test_probs_match_bruteforce_normalization(rng):
    grid = ten_point_grid()
    for _ in range(20):
        u = rng.normal(size=grid.size)
        probs = sampling_probabilities(grid, u, 2.0, HALF)
        brute = exp_mechanism_bruteforce_probs(grid, u, 2.0, HALF)
        assert np.abs(probs - brute).max() < 1e-12
    # the oracle converts a callable and checks the length on its own
    probs = sampling_probabilities(grid, 3.0 * grid.points[:, 0], 2.0, HALF)
    brute = exp_mechanism_bruteforce_probs(grid, lambda p: 3.0 * p[0], 2.0, HALF)
    assert np.abs(probs - brute).max() < 1e-12
    with pytest.raises(DimensionMismatchError, match="utility values for"):
        exp_mechanism_bruteforce_probs(grid, [0.0] * 3, 2.0, HALF)


def test_probs_shift_invariance_exact(rng):
    # integer utilities, integer shift: fp arithmetic is exact, so the
    # two probability vectors must be bitwise identical
    grid = ten_point_grid()
    u = rng.integers(-8, 9, size=grid.size).astype(np.float64)
    shifted = u + 5.0
    a = sampling_probabilities(grid, u, 2.0, HALF)
    b = sampling_probabilities(grid, shifted, 2.0, HALF)
    assert np.array_equal(a, b)


def test_probs_reject_bad_inputs():
    grid = ten_point_grid()
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        sampling_probabilities(grid, np.zeros(10), -1.0, HALF)
    # eps * u with eps = inf and u = 0 is NaN; no grid point may be drawn from that
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        sampling_probabilities(grid, np.zeros(10), math.inf, HALF)
    with pytest.raises(ValueError):
        sampling_probabilities(grid, np.full(10, np.inf), 1.0, HALF)
    with pytest.raises(DimensionMismatchError, match="one utility value per grid point"):
        sampling_probabilities(grid, np.zeros(3), 1.0, HALF)


def test_probs_shift_utilities_before_scaling_them():
    # eps * u / (2 delta) overflows to inf at eps 1e308, and inf - inf is NaN
    grid = GridSpec(points=((0.2,), (0.4,), (0.6,), (0.8,)), prior_mass=(0.3, 0.2, 0.3, 0.2))
    tiny = MapSensitivity(kind="lipschitz", delta_value=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = sampling_probabilities(grid, [1.0, 2.0, 3.0, -1.0], 1e308, HALF)
        # at eps 0 the distribution is the prior, however far the scaled gaps overflow
        flat = sampling_probabilities(grid, [-1e308, 1e308, 0.0, 0.0], 0.0, tiny)
    assert probs.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert flat.tolist() == (grid.prior_mass / grid.prior_mass.sum()).tolist()


def test_probs_survive_large_log_posteriors():
    # realistic log-posterior magnitudes would overflow a direct exp
    grid = ten_point_grid()
    u = np.linspace(-4000.0, -3500.0, grid.size)
    probs = sampling_probabilities(grid, u, 2.0, HALF)
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0)
    assert probs.argmax() == grid.size - 1


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------


def test_draws_deterministic_under_seed():
    grid = ten_point_grid()
    u = np.arange(10.0)
    a = exp_mechanism_indices(grid, u, 1.0, HALF, seed=21, size=100)
    b = exp_mechanism_indices(grid, u, 1.0, HALF, seed=21, size=100)
    assert np.array_equal(a, b)


def test_draw_frequencies_chi_square(rng):
    grid = ten_point_grid()
    u = rng.normal(size=grid.size)
    n = 20000
    idx = exp_mechanism_indices(grid, u, 2.0, HALF, seed=5, size=n)
    observed = np.bincount(idx, minlength=grid.size)
    expected = sampling_probabilities(grid, u, 2.0, HALF) * n
    stat = scipy.stats.chisquare(observed, expected)
    assert stat.pvalue > 0.01


def test_softmax_limit_hits_argmax():
    grid = ten_point_grid()
    u = np.arange(10.0)
    idx = exp_mechanism_indices(grid, u, 1e6, HALF, seed=3, size=1000)
    assert (idx == 9).all()


# ---------------------------------------------------------------------------
# tail certificate
# ---------------------------------------------------------------------------


def test_certificate_whole_grid_level_set():
    grid = ten_point_grid()
    u = np.linspace(0.0, 0.9, grid.size)
    t = 2.0  # deeper than the whole utility range, so S_t is everything
    assert map_utility_certificate(grid, u, 1.0, t) == pytest.approx(math.exp(-1.0 * t))


def test_certificate_monotone_in_epsilon():
    grid = ten_point_grid()
    u = np.linspace(0.0, 0.9, grid.size)
    values = [map_utility_certificate(grid, u, e, 0.5) for e in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_certificate_level_set_mass():
    grid = ten_point_grid()
    u = np.arange(10.0)
    t = 1.5  # S_t = top two utilities
    masses = grid.prior_mass
    expected = math.exp(-2.0 * 1.5) / float(masses[-2:].sum())
    assert map_utility_certificate(grid, u, 2.0, t) == pytest.approx(expected)


def test_certificate_with_explicit_sensitivity():
    grid = ten_point_grid()
    u = np.arange(10.0)
    delta = MapSensitivity(kind="stochastic", delta_value=1.0)  # sqrt(M / 2) at M = 2
    got = map_utility_certificate(grid, u, 2.0, 1.5, sensitivity=delta)
    assert got == pytest.approx(math.exp(-2.0 * 1.5 / 2.0) / float(grid.prior_mass[-2:].sum()))


def test_certificate_empty_level_set():
    # a sub-fp-resolution t leaves no utility strictly above u* - t
    grid = ten_point_grid()
    u = np.arange(10.0)
    with pytest.raises(ConditionViolatedError, match="no grid point has utility above"):
        map_utility_certificate(grid, u, 1.0, 1e-300)


def test_certificate_requires_positive_t():
    grid = ten_point_grid()
    with pytest.raises(ValueError):
        map_utility_certificate(grid, np.arange(10.0), 1.0, 0.0)


def test_certificate_covers_monte_carlo(rng):
    # the drawn utility falls below u* - 2t at most bound-often
    grid = ten_point_grid()
    u = rng.normal(size=grid.size)
    eps, t, n = 1.0, 0.5, 20000
    bound = map_utility_certificate(grid, u, eps, t)
    idx = exp_mechanism_indices(grid, u, eps, HALF, seed=17, size=n)
    frac = float((u[idx] <= u.max() - 2 * t).mean())
    slack = 3 * math.sqrt(max(frac, 1e-4) * (1 - min(frac, 0.999)) / n)
    assert frac <= bound + slack


# ---------------------------------------------------------------------------
# exact privacy loss by corner enumeration
# ---------------------------------------------------------------------------


def _probs(grid, epsilon, delta):
    sens = MapSensitivity(kind="lipschitz", delta_value=delta)
    return lambda u: sampling_probabilities(grid, u, epsilon, sens)


def test_worst_log_ratio_two_point_hand_value():
    # p = (1/2, 1/2) at u = 0; the corner u' = (-1, 1) lowers log p_0 by
    # eps/2 + log cosh(eps/2)
    grid = GridSpec.uniform([(0.0,), (1.0,)])
    got = exp_mechanism_worst_log_ratio(_probs(grid, 1.0, 1.0), [0.0, 0.0], 1.0)
    assert got == pytest.approx(0.5 + math.log(math.cosh(0.5)), rel=1e-12)
    assert got == pytest.approx(0.62011, abs=1e-5)


def test_worst_log_ratio_catches_a_halved_delta():
    grid = GridSpec.uniform([(float(i),) for i in range(8)])
    utility = 5.0 * np.random.default_rng(3).normal(size=8)
    assert exp_mechanism_worst_log_ratio(_probs(grid, 1.0, 1.0), utility, 1.0) <= 1.0
    # calibrated at delta/2 while neighbours move each utility by delta
    assert exp_mechanism_worst_log_ratio(_probs(grid, 1.0, 0.5), utility, 1.0) > 1.0


def test_worst_log_ratio_budget():
    grid = GridSpec.uniform([(float(i),) for i in range(13)])
    with pytest.raises(InvalidArgumentError, match="limited to"):
        exp_mechanism_worst_log_ratio(_probs(grid, 1.0, 1.0), np.zeros(13), 1.0)


def test_worst_log_ratio_refuses_a_zero_probability():
    # a point whose probability underflows to 0 makes its log-ratio unbounded
    grid = GridSpec.uniform([(0.0,), (1.0,)])
    with pytest.raises(DpBayesError, match="unbounded"):
        exp_mechanism_worst_log_ratio(_probs(grid, 1.0, 1.0), [0.0, 2000.0], 1.0)
