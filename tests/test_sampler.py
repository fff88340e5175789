"""The trimmed posterior sampler, its structure factor and its predictive."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from dpbayes import (
    BayesNetGraph,
    BetaParams,
    ConditionViolatedError,
    DimensionMismatchError,
    DpBayesError,
    InvalidArgumentError,
    OmegaTooLargeError,
    nb_predictive_batch,
    sampler_predictive_batch,
    trim_bound,
    trimmed_beta_draws,
    trimmed_posterior_sample,
)
from dpbayes.graph import BetaTable
from dpbayes.randomness import substream
from dpbayes.sampler import (
    _BLOCK_BYTES,
    PROPOSAL_MASS,
    naive_bayes_class1,
    naive_bayes_params,
    trimmed_posterior_draws,
)
from dpbayes.verify import (
    max_log_ratio_per_hamming,
    trimmed_nb_predictive_quadrature,
    truncated_beta_cdf,
    truncated_beta_moment,
)

from conftest import CHAIN3


# ---------------------------------------------------------------------------
# structure factor
# ---------------------------------------------------------------------------


STRUCTURES = {
    "empty3": (BayesNetGraph(node_count=3, parents=((),) * 3), 1),
    "chain3": (CHAIN3, 2),
    "v_structure": (BayesNetGraph(node_count=3, parents=((), (), (0, 1))), 2),
    "naive_bayes3": (BayesNetGraph(node_count=4, parents=((),) + ((0,),) * 3), 4),
}


@pytest.mark.parametrize("graph, factor", STRUCTURES.values(), ids=STRUCTURES.keys())
def test_flip_bound_is_the_structure_factor(graph, factor):
    # flipping node i moves its own factor and each child's, each by at
    # most ln((1 - omega)/omega) on the trimmed interval; a theta at the
    # interval ends attains max_i (1 + children(i)) times that bound
    omega = math.exp(-1.5)
    children = [sum(i in ps for ps in graph.parents) for i in range(graph.node_count)]
    assert max(1 + c for c in children) == factor
    keys = [(i, j) for i in range(graph.node_count) for j in range(graph.config_count(i))]
    worst = max(
        max_log_ratio_per_hamming(graph, dict(zip(keys, theta)))
        for theta in itertools.product((omega, 1.0 - omega), repeat=len(keys))
    )
    assert worst == pytest.approx(factor * math.log((1.0 - omega) / omega), rel=1e-12)


# ---------------------------------------------------------------------------
# trimming
# ---------------------------------------------------------------------------


def test_trim_bound_formula():
    assert trim_bound(2.0) == pytest.approx(math.exp(-1.0))
    assert trim_bound(10.0) == pytest.approx(math.exp(-5.0))


def test_trim_bound_degenerate_interval():
    with pytest.raises(OmegaTooLargeError):
        trim_bound(2 * math.log(2.0))  # omega exactly 1/2
    with pytest.raises(OmegaTooLargeError):
        trim_bound(1.0)
    with pytest.raises(InvalidArgumentError, match="epsilon must be positive"):
        trim_bound(0.0)
    with pytest.raises(InvalidArgumentError, match="epsilon must be positive"):
        trim_bound(-3.0)


def test_trim_bound_rejects_underflowing_omega():
    # exp(-epsilon/2) is 0.0 in double precision beyond epsilon ~ 1490:
    # nothing would be trimmed, so no finite guarantee holds
    for epsilon in (1500.0, math.inf):
        with pytest.raises(InvalidArgumentError, match="underflow"):
            trim_bound(epsilon)
    assert trim_bound(1400.0) > 0.0


def test_trimmed_draws_stay_inside_interval(rng):
    omega = math.exp(-1.0)
    draws = trimmed_beta_draws(BetaParams(3.0, 2.0), omega, rng, size=5000)
    assert draws.min() >= omega        # trimmed support, lower edge
    assert draws.max() <= 1.0 - omega


def test_trimmed_draws_mean_matches_quadrature(rng):
    omega = math.exp(-1.0)
    params = BetaParams(3.0, 2.0)
    draws = trimmed_beta_draws(params, omega, rng, size=20000)
    expected = truncated_beta_moment(params, omega, 1, 0)
    assert draws.mean() == pytest.approx(expected, abs=0.01)


def test_trimmed_draws_ks_against_inverse_cdf(rng):
    omega = math.exp(-1.0)
    params = BetaParams(3.0, 2.0)
    draws = trimmed_beta_draws(params, omega, rng, size=10000)
    stat = scipy.stats.kstest(draws, lambda x: truncated_beta_cdf(params, omega, x))
    assert stat.pvalue > 0.01


def test_trimmed_draws_vanishing_trim(rng):
    # huge epsilon: conditioning is invisible, plain Beta moments return
    params = BetaParams(5.0, 3.0)
    omega = trim_bound(60.0)
    draws = trimmed_beta_draws(params, omega, rng, size=20000)
    assert draws.mean() == pytest.approx(5.0 / 8.0, abs=0.01)


TINY_MASS_CASES = {
    # (params, omega): conditioning mass about 8e-5, 7e-11, 2e-109, 2e-109
    "beta3_30": (BetaParams(3.0, 30.0), math.exp(-1.0)),  # upper tail
    "beta1_51": (BetaParams(1.0, 51.0), math.exp(-1.0)),  # upper tail
    "beta500_2": (BetaParams(500.0, 2.0), 0.4),  # lower tail
    "beta2_500": (BetaParams(2.0, 500.0), 0.4),  # upper tail, lost to 1 - CDF
}


def as_table(params):
    """A BetaTable whose row r holds params[r]."""
    return BetaTable.of(dict(enumerate(params)))


def trimmed_ks_pvalue(draws, params, omega):
    a, b = params.alpha, params.beta
    if scipy.special.betainc(a, b, omega) > 0.5:
        # the oracle's lower-tail CDF difference cancels here: test the
        # mirror image 1 - theta ~ Beta(b, a) on the same interval
        draws, params = 1.0 - draws, BetaParams(b, a)
    return scipy.stats.kstest(draws, lambda x: truncated_beta_cdf(params, omega, x)).pvalue


def assert_exact_trimmed_sample(draws, params, omega):
    assert ((draws > omega) & (draws < 1.0 - omega)).all()  # no boundary atoms
    assert trimmed_ks_pvalue(draws, params, omega) > 0.01


@pytest.mark.parametrize(
    "params, omega", TINY_MASS_CASES.values(), ids=TINY_MASS_CASES.keys()
)
def test_trimmed_draws_exact_at_tiny_mass(rng, params, omega):
    draws = trimmed_beta_draws(params, omega, rng, size=20000)
    assert_exact_trimmed_sample(draws, params, omega)


def test_trimmed_draws_mixed_tail_block(rng):
    # one call mixes a bulk entry, upper-tail and lower-tail entries
    omega = math.exp(-1.0)
    params = [BetaParams(3.0, 2.0), BetaParams(2.0, 500.0), BetaParams(500.0, 2.0), BetaParams(1.0, 51.0)]
    block = trimmed_beta_draws(as_table(params), omega, rng, size=20000)
    assert block.shape == (4, 20000)
    for row, p in zip(block, params):
        assert_exact_trimmed_sample(row, p, omega)


def trim_mass(params, omega):
    a, b = params.alpha, params.beta
    if scipy.special.betainc(a, b, omega) > 0.5:
        return scipy.special.betaincc(a, b, omega) - scipy.special.betaincc(a, b, 1.0 - omega)
    return scipy.special.betainc(a, b, 1.0 - omega) - scipy.special.betainc(a, b, omega)


def envelope(params, omega):
    """Tangent point x0, log-slope g and acceptance of a row's envelope on I."""
    a, b = params.alpha, params.beta
    lo, hi = omega, 1.0 - omega
    mode = (a - 1.0) / (a + b - 2.0) if a + b > 2.0 else 0.5
    x0 = min(max(mode, lo), hi)
    g = 0.0 if x0 == mode else (a - 1.0) / x0 - (b - 1.0) / (1.0 - x0)
    area = hi - lo if g == 0.0 else (math.exp(g * (hi - x0)) - math.exp(g * (lo - x0))) / g
    return x0, g, trim_mass(params, omega) / (scipy.stats.beta.pdf(x0, a, b) * area)


def takes_envelope(params, omega):
    a, b = params.alpha, params.beta
    return (
        a >= 1.0 and b >= 1.0
        and trim_mass(params, omega) < PROPOSAL_MASS <= envelope(params, omega)[2]
    )


def envelope_proposals(params, omega, v):
    """Each slot's envelope position X and acceptance, from its (V, V') pair."""
    x0, g, _ = envelope(params, omega)
    width = 1.0 - 2.0 * omega
    if g == 0.0:
        x = omega + v[:, 0] * width
    else:
        t = -np.log1p(v[:, 0] * np.expm1(-abs(g) * width)) / abs(g)
        x = 1.0 - omega - t if g > 0.0 else omega + t
    h = scipy.stats.beta.logpdf(x0, params.alpha, params.beta) + g * (x - x0)
    return x, np.log(v[:, 1]) <= scipy.stats.beta.logpdf(x, params.alpha, params.beta) - h


HYBRID_BLOCKS = {
    # rows with mass >= PROPOSAL_MASS come first: the e^-1 proposal rows
    # miss on both sides and mostly above; the e^-5 ones miss below and
    # above; the rest take the tangent envelope, and its misses are
    # inverted in the lower and the upper tail
    "omega=e^-1": (
        math.exp(-1.0),
        [BetaParams(8.0, 8.0), BetaParams(9.0, 6.0), BetaParams(3.0, 2.0),
         BetaParams(500.0, 2.0), BetaParams(1.0, 51.0)],
    ),
    "omega=e^-5": (
        math.exp(-5.0),
        [BetaParams(1.0, 51.0), BetaParams(80.0, 1.0), BetaParams(800.0, 2.0),
         BetaParams(1.0, 200.0), BetaParams(2.0, 800.0)],
    ),
}


@pytest.mark.parametrize("omega, params", HYBRID_BLOCKS.values(), ids=HYBRID_BLOCKS.keys())
def test_hybrid_block_exact_per_row(rng, omega, params):
    # one block mixes proposal rows, whose misses are inverted, with
    # rows that are inverted outright; every row must have the trimmed law
    proposes = [trim_mass(p, omega) >= PROPOSAL_MASS for p in params]
    assert proposes == [True, True, False, False, False]
    block = trimmed_beta_draws(as_table(params), omega, rng, size=20000)
    for row, p in zip(block, params):
        assert_exact_trimmed_sample(row, p, omega)


def test_proposal_rows_keep_inside_proposals():
    # after the uniform block, the proposal rows draw one Beta block;
    # a proposal inside the interval is the draw, one outside is replaced
    omega, S = math.exp(-1.0), 400
    params = [BetaParams(3.0, 2.0), BetaParams(8.0, 8.0), BetaParams(30.0, 30.0)]
    draws = trimmed_beta_draws(as_table(params), omega, np.random.default_rng(5), S)
    replay = np.random.default_rng(5)
    replay.random((3, S))
    y = replay.beta([[8.0], [30.0]], [[8.0], [30.0]], (2, S))
    inside = (y >= omega) & (y <= 1.0 - omega)
    assert 0 < inside.sum() < inside.size
    assert np.array_equal(draws[1:][inside], y[inside])
    assert ((draws[1:][~inside] > omega) & (draws[1:][~inside] < 1.0 - omega)).all()


def test_criterion_11_draws_take_envelope_route():
    # Beta(3, 2) at omega = e^-1 has mass 0.39 < PROPOSAL_MASS and an
    # envelope acceptance of 0.88, so after the (1, S) uniform block the
    # acceptance draws take one (1, S, 2) envelope block; digest taken
    # with numpy 2.4 and scipy 1.17
    params, omega, S = BetaParams(3.0, 2.0), math.exp(-1.0), 100_000
    assert takes_envelope(params, omega)
    assert envelope(params, omega)[2] == pytest.approx(0.8804, abs=1e-4)
    draws = trimmed_beta_draws(params, omega, substream(20240817, "ks"), size=S)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "102fad16096346906ef0eaa4fbae863299f53d0df3b26c207b12c2d32cfd0fef"
    )
    replay = substream(20240817, "ks")
    replay.random((1, S))
    x, accept = envelope_proposals(params, omega, replay.random((1, S, 2))[0])
    assert accept.mean() == pytest.approx(0.8804, abs=0.005)
    assert np.allclose(draws[accept], x[accept], rtol=1e-13, atol=0.0)


class FixedUniforms:
    """Stands in for a Generator whose next uniforms are already known."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape)


def test_release_block_layout():
    # row r of the release block is the single-entry inversion of row r
    # of one (m, S) uniform block, entries in sorted key order. Every row
    # has alpha or beta below 1, so none has a log-concave density, and
    # every mass at omega = e^-1 is below PROPOSAL_MASS (0.22 at most):
    # no row draws a proposal, so FixedUniforms needs no second block
    posterior = {
        (2, 1): BetaParams(30.0, 0.5),
        (0, 0): BetaParams(0.5, 0.5),
        (1, 1): BetaParams(4.0, 0.6),
        (1, 0): BetaParams(0.8, 2.0),
        (2, 0): BetaParams(0.5, 30.0),
    }
    omega, seed, S = math.exp(-1.0), 11, 64
    assert all(trim_mass(p, omega) < PROPOSAL_MASS for p in posterior.values())
    draws = trimmed_posterior_draws(posterior, omega, seed, S)
    u = substream(seed, "trimmed-posterior-draw").random((len(posterior), S))
    for r, key in enumerate(sorted(posterior)):
        want = trimmed_beta_draws(posterior[key], omega, FixedUniforms(u[r]), S)
        assert np.array_equal(draws[key], want)


# Digests taken at the commit before the envelope route, with numpy 2.4
# and scipy 1.17: rows that take the Beta route or are inverted outright
# keep their bits, so only envelope rows move.
BETA_ROUTE_ROWS = [BetaParams(3.0, 2.0), BetaParams(8.0, 8.0), BetaParams(30.0, 5.0),
                   BetaParams(2.0, 40.0), BetaParams(1.0, 1.0)]
INVERTED_ROWS = [BetaParams(0.5, 0.5), BetaParams(0.8, 2.0), BetaParams(4.0, 0.6),
                 BetaParams(0.5, 30.0)]


def test_beta_route_rows_keep_their_bits():
    omega = math.exp(-10.0)  # epsilon 20: every mass is above 0.9999
    assert all(trim_mass(p, omega) >= PROPOSAL_MASS for p in BETA_ROUTE_ROWS)
    draws = trimmed_beta_draws(as_table(BETA_ROUTE_ROWS), omega, np.random.default_rng(20), 500)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "362ca9f5eab48c91a84a6b0577722a3dc3f028d585fad4339d064c66eb42d358"
    )


def test_inverted_rows_keep_their_bits():
    # not log-concave (alpha or beta below 1), masses 0.17, 0.22, 0.07, 2e-7
    omega = math.exp(-1.0)
    assert all(trim_mass(p, omega) < PROPOSAL_MASS for p in INVERTED_ROWS)
    draws = trimmed_beta_draws(as_table(INVERTED_ROWS), omega, np.random.default_rng(21), 500)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "b36b4491351feb5d64f4aae9f07e84e1559e4086a4d44551bd1ac50c9477f86a"
    )


def test_envelope_rows_leave_other_rows_bits():
    # a Beta-route row and an inverted row drawn beside two envelope rows
    omega = math.exp(-1.0)
    params = [BetaParams(8.0, 8.0), BetaParams(3.0, 2.0), BetaParams(0.5, 0.5), BetaParams(1.0, 51.0)]
    assert [takes_envelope(p, omega) for p in params] == [False, True, False, True]
    draws = trimmed_beta_draws(as_table(params), omega, np.random.default_rng(22), 500)
    assert hashlib.sha256(draws[[0, 2]].tobytes()).hexdigest() == (
        "161b3de78785e2284a410fef544eb96e93e6a8057c775c4ca5c25288919540a2"
    )


def test_envelope_rows_keep_accepted_positions():
    # after the uniform block and the Beta block, the envelope rows draw
    # one (k, S, 2) block; an accepted position is the draw, a rejected
    # one is replaced by an inversion inside the interval
    omega, S = math.exp(-1.0), 400
    params = [BetaParams(8.0, 8.0), BetaParams(3.0, 2.0), BetaParams(2.0, 9.0),
              BetaParams(2.0, 2.0), BetaParams(0.5, 0.5)]
    assert [takes_envelope(p, omega) for p in params] == [False, True, True, True, False]
    draws = trimmed_beta_draws(as_table(params), omega, np.random.default_rng(5), S)
    replay = np.random.default_rng(5)
    replay.random((5, S))
    replay.beta([[8.0]], [[8.0]], (1, S))
    v = replay.random((3, S, 2))
    for row, p, vr in zip(draws[1:4], params[1:4], v):
        x, accept = envelope_proposals(p, omega, vr)
        assert 0 < accept.sum() < S
        assert np.allclose(row[accept], x[accept], rtol=1e-13, atol=0.0)
        assert ((row[~accept] > omega) & (row[~accept] < 1.0 - omega)).all()
        assert not np.isclose(row[~accept], x[~accept], rtol=1e-13, atol=0.0).any()


ENVELOPE_ROWS = {
    # both tails, both slope signs, an interior mode and tiny masses
    "beta3_2": BetaParams(3.0, 2.0),  # x0 = 1 - omega, g > 0
    "beta2_9": BetaParams(2.0, 9.0),  # x0 = omega, g < 0
    "beta9_2": BetaParams(9.0, 2.0),  # upper tail, g > 0
    "beta2_2": BetaParams(2.0, 2.0),  # interior mode, g = 0
    "beta1_51": BetaParams(1.0, 51.0),  # mass 7e-11, g < 0
    "beta30_3": BetaParams(30.0, 3.0),  # mass 8e-5, lower tail, g > 0
}


def test_envelope_rows_exact_over_substreams():
    # each row's per-substream KS p-values must themselves look uniform
    omega, S, streams = math.exp(-1.0), 2000, 30
    params = list(ENVELOPE_ROWS.values())
    assert all(takes_envelope(p, omega) for p in params)
    pvalues = np.empty((len(params), streams))
    for i in range(streams):
        block = trimmed_beta_draws(as_table(params), omega, substream(7, "envelope", i), S)
        assert ((block > omega) & (block < 1.0 - omega)).all()
        pvalues[:, i] = [trimmed_ks_pvalue(row, p, omega) for row, p in zip(block, params)]
    for name, row in zip(ENVELOPE_ROWS, pvalues):
        assert scipy.stats.kstest(row, "uniform").pvalue > 0.01, name


ENVELOPE_EDGES = {
    # (params, omega, sign of g): a flat density, an interior mode, both
    # slope signs, and slopes with |g| w about 2666 at mass about 5e-138
    "flat": (BetaParams(1.0, 1.0), math.exp(-1.0), 0),
    "interior": (BetaParams(2.0, 2.0), math.exp(-1.0), 0),
    "rising": (BetaParams(9.0, 2.0), math.exp(-1.0), 1),
    "falling": (BetaParams(2.0, 9.0), math.exp(-1.0), -1),
    "steep-falling": (BetaParams(1.0, 3000.0), 0.1, -1),
    "steep-rising": (BetaParams(3000.0, 1.0), 0.1, 1),
}


@pytest.mark.parametrize(
    "params, omega, sign", ENVELOPE_EDGES.values(), ids=ENVELOPE_EDGES.keys()
)
def test_envelope_numerics_at_the_edges(params, omega, sign):
    # RuntimeWarnings are errors under the test configuration, so an
    # overflow, a division by zero or a log of zero fails here too
    S = 20000
    _, g, acceptance = envelope(params, omega)
    assert np.sign(g) == sign
    assert takes_envelope(params, omega)
    draws = trimmed_beta_draws(params, omega, np.random.default_rng(9), S)
    assert_exact_trimmed_sample(draws, params, omega)
    replay = np.random.default_rng(9)
    replay.random(S)
    x, accept = envelope_proposals(params, omega, replay.random((1, S, 2))[0])
    assert accept.mean() == pytest.approx(acceptance, abs=0.02)
    assert np.allclose(draws[accept], x[accept], rtol=1e-13, atol=0.0)


def test_trimmed_draws_underflowing_mass_raises(rng):
    # Beta(5000, 1) puts about 1e-548 on [omega, 1 - omega] at epsilon 3
    with pytest.raises(ConditionViolatedError):
        trimmed_beta_draws(BetaParams(5000.0, 1.0), trim_bound(3.0), rng, size=3)


def test_trimmed_posterior_sample_interface():
    posterior = {(0, 0): BetaParams(3.0, 2.0), (1, 0): BetaParams(2.0, 2.0), (1, 1): BetaParams(4.0, 1.0)}
    theta = trimmed_posterior_sample(posterior, epsilon=2.0, seed=42)
    omega = math.exp(-1.0)
    assert set(theta) == set(posterior)
    assert all(omega <= v <= 1.0 - omega for v in theta.values())


def test_trimmed_posterior_sample_replay_and_order_independence():
    posterior = {(0, 0): BetaParams(3.0, 2.0), (1, 0): BetaParams(2.0, 2.0)}
    reordered = dict(reversed(list(posterior.items())))
    a = trimmed_posterior_sample(posterior, epsilon=2.0, seed=7)
    b = trimmed_posterior_sample(reordered, epsilon=2.0, seed=7)
    assert a == b
    c = trimmed_posterior_sample(posterior, epsilon=2.0, seed=8)
    assert c != a


def test_trimmed_posterior_sample_rejects_small_epsilon():
    with pytest.raises(OmegaTooLargeError):
        trimmed_posterior_sample({(0, 0): BetaParams(1.0, 1.0)}, epsilon=1.0, seed=1)


# ---------------------------------------------------------------------------
# Monte Carlo predictive
# ---------------------------------------------------------------------------


def nb2_posterior(symmetric=True):
    if symmetric:
        return {key: BetaParams(3.0, 3.0) for key in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]}
    return {
        (0, 0): BetaParams(6.0, 4.0),
        (1, 0): BetaParams(2.0, 7.0),
        (1, 1): BetaParams(7.0, 2.0),
        (2, 0): BetaParams(3.0, 5.0),
        (2, 1): BetaParams(6.0, 3.0),
    }


NB2 = BayesNetGraph(node_count=3, parents=((), (0,), (0,)))


def test_predictive_symmetric_posterior_is_half():
    (prob,) = sampler_predictive_batch(
        NB2, nb2_posterior(), [(1, 0)], epsilon=3.0, samples=4000, seed=5
    )
    assert prob == pytest.approx(0.5, abs=0.02)


def test_predictive_matches_quadrature_single_feature():
    graph = BayesNetGraph(node_count=2, parents=((), (0,)))
    posterior = {(0, 0): BetaParams(5.0, 3.0), (1, 0): BetaParams(2.0, 6.0), (1, 1): BetaParams(6.0, 2.0)}
    epsilon = 3.0
    omega = trim_bound(epsilon)
    (got,) = sampler_predictive_batch(
        graph, posterior, [(1,)], epsilon=epsilon, samples=100000, seed=12
    )
    want = trimmed_nb_predictive_quadrature(posterior, (1,), omega)
    assert got == pytest.approx(want, abs=0.01)


def test_predictive_replay():
    args = (NB2, nb2_posterior(False), [(1, 1), (0, 1)])
    a = sampler_predictive_batch(*args, epsilon=3.0, samples=500, seed=3)
    b = sampler_predictive_batch(*args, epsilon=3.0, samples=500, seed=3)
    assert np.array_equal(a, b)


def test_predictive_batch_order_independence():
    posterior = nb2_posterior(False)
    reordered = dict(reversed(list(posterior.items())))
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    a = sampler_predictive_batch(NB2, posterior, X, epsilon=3.0, samples=300, seed=4)
    b = sampler_predictive_batch(NB2, reordered, X, epsilon=3.0, samples=300, seed=4)
    assert np.array_equal(a, b)


def test_predictive_batch_matches_quadrature_two_features():
    posterior = nb2_posterior(False)
    epsilon = 3.0
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    got = sampler_predictive_batch(NB2, posterior, X, epsilon=epsilon, samples=100000, seed=21)
    want = [trimmed_nb_predictive_quadrature(posterior, row, trim_bound(epsilon)) for row in X]
    assert got == pytest.approx(want, abs=0.01)


def class_log_sums(theta, X):
    """log p0(x) and log p1(x) per row of X: each class's joint
    likelihood summed over the draw columns of theta, in log space.

    Row 0 of theta is Pr(Y=1), rows 1, 3, ... Pr(x_f = 1 | Y=0) and rows
    2, 4, ... Pr(x_f = 1 | Y=1); a non-binary x_f weighs the two logs
    linearly.
    """
    X = np.asarray(X, dtype=np.float64)
    return [
        scipy.special.logsumexp(
            np.log(prior) + X @ np.log(theta[1 + y :: 2]) + (1.0 - X) @ np.log(1.0 - theta[1 + y :: 2]),
            axis=1,
        )
        for y, prior in ((0, 1.0 - theta[0]), (1, theta[0]))
    ]


def class1_by_logsumexp(theta, X):
    log0, log1 = class_log_sums(theta, X)
    return np.exp(log1 - np.logaddexp(log0, log1))


def log_total(theta, X):
    """log(p0 + p1) per row of X, the sum the kernel's window tests."""
    return np.logaddexp(*class_log_sums(theta, X))


LOG_WINDOW = 900 * math.log(2.0)


def wide_theta(gen, d, S, separated):
    """(2d + 1, S) draws. Separated draws make every bit likely under
    class 1 and unlikely under class 0. Otherwise both classes put bits
    f = 4j, 4j + 1 near 0.1 and bits 4j + 2, 4j + 3 near 0.9, so the
    all-ones, all-zeros and alternating rows each match only half the
    bits and their likelihoods, about 0.1^500 0.9^500, underflow to 0."""
    theta = np.empty((2 * d + 1, S))
    theta[0] = gen.uniform(0.3, 0.7, S)
    if separated:
        theta[1::2] = gen.beta(2.0, 40.0, (d, S))
        theta[2::2] = gen.beta(40.0, 2.0, (d, S))
    else:
        high = (np.arange(d) % 4 >= 2)[:, None]
        for y in (0, 1):
            theta[1 + y :: 2] = np.abs(high - gen.uniform(0.08, 0.12, (d, S)))
    return theta


def test_naive_bayes_class1_matches_logsumexp_on_feature_bits():
    gen = np.random.default_rng(41)
    d, S = 16, 1000
    theta = gen.beta(gen.integers(1, 60, (2 * d + 1, 1)), gen.integers(1, 60, (2 * d + 1, 1)), (2 * d + 1, S))
    X = gen.integers(0, 2, (300, d))
    assert (np.abs(log_total(theta, X)) < LOG_WINDOW).all()
    np.testing.assert_allclose(
        naive_bayes_class1(theta[:, None], X)[0], class1_by_logsumexp(theta, X), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("samples", [1, 200])
def test_naive_bayes_class1_recomputes_underflowing_rows(samples):
    # 1000 features: each of these rows sums to 0 in double over both
    # classes, so each goes through the max-shifted recomputation
    gen = np.random.default_rng(samples)
    k = 1000
    theta = wide_theta(gen, k, samples, separated=False)
    X = np.array([np.ones(k), np.zeros(k), np.arange(k) % 2])
    assert (log_total(theta, X) < math.log(np.finfo(float).smallest_subnormal)).all()
    np.testing.assert_allclose(
        naive_bayes_class1(theta[:, None], X)[0], class1_by_logsumexp(theta, X), rtol=0, atol=1e-12
    )


def test_naive_bayes_class1_recomputes_overflowing_row():
    # a non-binary row weighs log(1 - theta) by 1 - 3 = -2, so its
    # log-likelihoods run far above the double range; beside it the
    # all-ones row stays inside the window and the alternating row
    # underflows
    gen = np.random.default_rng(7)
    k, S = 1000, 200
    theta = wide_theta(gen, k, S, separated=True)
    X = np.array([np.full(k, 3.0), np.ones(k), np.arange(k) % 2])
    log_sums = log_total(theta, X)
    assert log_sums[0] > LOG_WINDOW
    assert abs(log_sums[1]) < LOG_WINDOW
    assert log_sums[2] < -LOG_WINDOW
    got = naive_bayes_class1(theta[:, None], X)[0]
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, class1_by_logsumexp(theta, X), rtol=0, atol=1e-12)


def test_naive_bayes_class1_groups_match_separate_calls(monkeypatch):
    # the posterior-mean shape of one nb-release repeat: 13 one-column
    # groups over 950 rows of 16 int8 bits fit in one block, so they are
    # one product; one grouped call gives, bit for bit, what 13 one-group
    # calls give, so the sweep's CSV keeps its bytes
    gen = np.random.default_rng(17)
    d, groups = 16, 13
    ab = gen.integers(1, 60, (2 * d + 1, groups, 2)).astype(float)
    theta = ab[..., :1] / ab.sum(axis=2, keepdims=True)
    X = gen.integers(0, 2, (950, d + 1)).astype(np.int8)[:, 1:]
    products = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: products.append(1) or matmul(*a, **k))
    got = naive_bayes_class1(theta, X)
    assert len(products) == 1
    assert got.shape == (groups, 950)
    for g in range(groups):
        np.testing.assert_allclose(
            got[g], class1_by_logsumexp(theta[:, g], X), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(got[g], naive_bayes_class1(theta[:, g : g + 1], X)[0])


def test_naive_bayes_class1_averages_each_group_over_its_own_draws():
    # many draws per group: each group matches the logsumexp oracle of
    # its own columns (a wider BLAS product may round the last bit
    # differently from a one-group call, so this is not a bit check)
    gen = np.random.default_rng(19)
    d, groups, S = 16, 4, 200
    ab = gen.integers(1, 60, (2 * d + 1, groups, 2))
    theta = gen.beta(ab[..., :1], ab[..., 1:], (2 * d + 1, groups, S))
    X = gen.integers(0, 2, (300, d))
    got = naive_bayes_class1(theta, X)
    for g in range(groups):
        np.testing.assert_allclose(
            got[g], class1_by_logsumexp(theta[:, g], X), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("samples", [1, 50])
def test_naive_bayes_class1_rescues_only_the_out_of_window_group(samples):
    # 1000 features, two rows: group 1 puts bit f near 0.1 or 0.9 by
    # f % 4, so the pattern row fits it and the alternating row
    # underflows; groups 0 and 2 sit near 0.5 where the two rows differ
    # and near their shared bit elsewhere, so both rows stay in the window
    gen = np.random.default_rng(23)
    k = 1000
    pattern = (np.arange(k) % 4 >= 2).astype(float)
    alternating = (np.arange(k) % 2).astype(float)
    X = np.array([alternating, pattern])
    shared = np.where(pattern == alternating, np.abs(pattern - 0.05), 0.5)[:, None]
    theta = np.empty((2 * k + 1, 3, samples))
    theta[:, 1] = wide_theta(gen, k, samples, separated=False)
    theta[0, ::2] = gen.uniform(0.3, 0.7, (2, samples))
    for y in (0, 1):
        theta[1 + y :: 2, ::2] = shared[:, None] + gen.uniform(-0.02, 0.02, (k, 2, samples))
    assert log_total(theta[:, 1], X[:1])[0] < -LOG_WINDOW
    assert abs(log_total(theta[:, 1], X[1:])[0]) < LOG_WINDOW
    for g in (0, 2):
        assert (np.abs(log_total(theta[:, g], X)) < LOG_WINDOW).all()
    got = naive_bayes_class1(theta, X)
    for g in range(3):
        np.testing.assert_allclose(
            got[g], class1_by_logsumexp(theta[:, g], X), rtol=0, atol=1e-12
        )
        if samples == 1:
            # one-column groups keep a one-group call's bits (see above):
            # the in-window cells of the rescued row were not overwritten
            np.testing.assert_array_equal(got[g], naive_bayes_class1(theta[:, g : g + 1], X)[0])


@pytest.mark.parametrize("samples", [1, 50])
def test_naive_bayes_class1_stack_rescues_each_set_as_alone(samples):
    # three sets of 1000 features: set 1 is the underflowing case above,
    # while sets 0 and 2 put every bit near 0.05 or 0.95 by class and
    # score all-zeros and all-ones rows, which stay in the window; each
    # set of the stack equals, bit for bit, a call with that set alone
    gen = np.random.default_rng(29)
    k = 1000
    theta = np.stack(
        [wide_theta(gen, k, samples, separated=sep) for sep in (True, False, True)]
    )[:, :, None]
    zeros, ones, alternating = np.zeros(k), np.ones(k), (np.arange(k) % 2).astype(float)
    X = np.array([[zeros, ones, zeros], [ones, zeros, alternating], [ones, ones, zeros]])
    for r, inside in enumerate((True, False, True)):
        log_sums = log_total(theta[r, :, 0], X[r])
        assert (np.abs(log_sums) < LOG_WINDOW).all() if inside else (log_sums < -LOG_WINDOW).all()
    got = naive_bayes_class1(theta, X)
    assert got.shape == (3, 1, 3)
    for r in range(3):
        np.testing.assert_allclose(
            got[r, 0], class1_by_logsumexp(theta[r, :, 0], X[r]), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(got[r], naive_bayes_class1(theta[r], X[r]))


def test_naive_bayes_class1_needs_one_set_of_rows_per_theta_set():
    theta = nb_theta(np.random.default_rng(31), 2, 1, 1)
    naive_bayes_class1(np.stack([theta, theta]), np.zeros((2, 4, 2)))
    for X in (np.zeros((3, 4, 2)), np.zeros((4, 2)), np.zeros((2, 4, 3))):
        with pytest.raises(DimensionMismatchError, match="X must be 2 sets of rows of 2 feature"):
            naive_bayes_class1(np.stack([theta, theta]), X)
    with pytest.raises(DimensionMismatchError, match="X must be rows of 2 feature bits"):
        naive_bayes_class1(theta, np.zeros((2, 4, 2)))


def block_columns(rows):
    """Likelihood columns of `rows` float64 values that fit in one kernel block."""
    return _BLOCK_BYTES // (8 * rows)


def nb_theta(gen, d, groups, S):
    """(2d + 1, groups, S) Beta draws around each entry's own random mean."""
    ab = gen.integers(1, 60, (2 * d + 1, groups, 2))
    return gen.beta(ab[..., :1], ab[..., 1:], (2 * d + 1, groups, S))


def test_naive_bayes_class1_sums_draws_across_blocks():
    # S spans two and a half blocks, so the last block is partial and
    # every block after a segment's first carries its partial sum
    gen = np.random.default_rng(43)
    d, rows = 16, 300
    S = 2 * block_columns(rows) + block_columns(rows) // 2
    theta = nb_theta(gen, d, 1, S)
    X = gen.integers(0, 2, (rows, d))
    np.testing.assert_allclose(
        naive_bayes_class1(theta, X)[0], class1_by_logsumexp(theta[:, 0], X), rtol=0, atol=1e-12
    )


def test_naive_bayes_class1_groups_wider_than_a_block():
    # each of three groups spans more than one block: every group matches
    # its logsumexp oracle and, bit for bit, a call with that group alone
    gen = np.random.default_rng(47)
    d, rows, groups = 16, 300, 3
    theta = nb_theta(gen, d, groups, block_columns(rows) + 11)
    X = gen.integers(0, 2, (rows, d))
    got = naive_bayes_class1(theta, X)
    for g in range(groups):
        np.testing.assert_allclose(
            got[g], class1_by_logsumexp(theta[:, g], X), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(got[g], naive_bayes_class1(theta[:, g : g + 1], X)[0])


def test_naive_bayes_class1_recomputes_rows_in_chunks():
    # 2S = 40000 likelihoods per row of X: the recomputation takes at most
    # `chunk` rows at a time, and 3 chunk + 1 out-of-window rows, between
    # in-window bit rows, span four chunks. x = +-30 on every feature
    # makes one class's likelihood overflow.
    gen = np.random.default_rng(59)
    d, S = 16, 20000
    chunk = _BLOCK_BYTES // (8 * 2 * S)
    theta = wide_theta(gen, d, S, separated=True)
    far = np.where(np.arange(3 * chunk + 1) % 2, 30.0, -30.0)[:, None] * np.ones(d)
    X = np.empty((2 * len(far), d))
    X[::2] = far
    X[1::2] = gen.integers(0, 2, (len(far), d))
    log_sums = log_total(theta, X)
    assert (log_sums[::2] > LOG_WINDOW).all()
    assert (np.abs(log_sums[1::2]) < LOG_WINDOW).all()
    got = naive_bayes_class1(theta[:, None], X)[0]
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, class1_by_logsumexp(theta, X), rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, -0.25, 1.5])
@pytest.mark.parametrize("entry", [0, 5])
def test_naive_bayes_class1_refuses_theta_outside_the_open_unit_interval(bad, entry):
    # a log of 0 would turn the product into NaN; entry 0 is the class
    gen = np.random.default_rng(61)
    theta = nb_theta(gen, 3, 2, 4)
    theta[entry, 1, 2] = bad
    with pytest.raises(InvalidArgumentError, match=r"strictly inside \(0, 1\)"):
        naive_bayes_class1(theta, np.zeros((2, 3)))


def test_posterior_mean_of_one_refuses_to_score():
    # Beta(1e17, 1) has mean 1e17 / (1e17 + 1), which rounds to 1.0
    posterior = nb2_posterior()
    posterior[(1, 0)] = BetaParams(1e17, 1.0)
    stack = naive_bayes_params(posterior, 2).array[None]
    with pytest.raises(InvalidArgumentError):
        nb_predictive_batch(stack, np.array([[1, 0], [0, 1], [1, 1]]))


def test_predictive_finite_when_both_classes_underflow():
    # 1000 features: on the alternating row both classes' joint
    # log-likelihoods sit far below the double range (about -745)
    k = 1000
    graph = BayesNetGraph(node_count=k + 1, parents=((),) + ((0,),) * k)
    posterior = {(0, 0): BetaParams(5.0, 5.0)}
    for i in range(1, k + 1):
        posterior[(i, 0)] = BetaParams(2.0, 40.0)
        posterior[(i, 1)] = BetaParams(40.0, 2.0)
    X = np.array([np.ones(k), np.zeros(k), np.arange(k) % 2])
    sampled = sampler_predictive_batch(graph, posterior, X, epsilon=20.0, samples=100, seed=2)
    closed = nb_predictive_batch(naive_bayes_params(posterior, k).array[None], X)[0]
    for probs in (sampled, closed):
        assert np.isfinite(probs).all()
        assert ((probs >= 0.0) & (probs <= 1.0)).all()
        assert probs[0] == pytest.approx(1.0) and probs[1] == pytest.approx(0.0)
    # the posterior means are symmetric between the classes on this row
    assert closed[2] == pytest.approx(0.5)
    keys = sorted(posterior)
    means = np.array([[p.alpha / (p.alpha + p.beta)] for p in map(posterior.get, keys)])
    draws = trimmed_posterior_draws(posterior, trim_bound(20.0), 2, 100)
    theta = np.array([draws[key] for key in keys])
    for probs, columns in ((closed, means), (sampled, theta)):
        assert log_total(columns, X[2:])[0] < -LOG_WINDOW
        assert probs[2] == pytest.approx(class1_by_logsumexp(columns, X[2:])[0], abs=1e-12)


@pytest.mark.parametrize("samples", [0, -1])
def test_predictive_batch_rejects_no_samples(samples):
    with pytest.raises(DpBayesError, match=r"samples must be an integer in \[1, inf\)") as caught:
        sampler_predictive_batch(NB2, nb2_posterior(), [(1, 0)], epsilon=3.0, samples=samples, seed=0)
    assert isinstance(caught.value, InvalidArgumentError)
    assert isinstance(caught.value, ValueError)


def benchmark_shape_peak():
    """Traced peak bytes of one sampler_predictive_batch call at the
    nb-sampler benchmark shape: 950 test rows, 16 features, S = 1000."""
    d, rows, S = 16, 950, 1000
    graph = BayesNetGraph(node_count=d + 1, parents=((),) + ((0,),) * d)
    gen = np.random.default_rng(3)
    posterior = {
        key: BetaParams(float(a), float(b))
        for key, (a, b) in zip(graph.entry_keys(), gen.integers(1, 60, (2 * d + 1, 2)))
    }
    X = gen.integers(0, 2, (rows, d))
    tracemalloc.start()
    try:
        sampler_predictive_batch(graph, posterior, X, epsilon=10.0, samples=S, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predictive_batch_peak_allocation():
    # the kernel's likelihood buffer is one block of _BLOCK_BYTES, reused
    # for every block, and its (d+1) x 2S weights and (d+1) x rows inputs
    # add 0.4 MB; the four rows x S matrices of a per-class layout came
    # to 31 MB
    assert benchmark_shape_peak() < 24 * 2**20


def test_predictive_batch_peak_allocation_stays_within_blocks():
    # one unblocked 2S x rows float64 buffer alone was 15.2 MB
    assert benchmark_shape_peak() < 4 * 2**20


def test_predictive_batch_requires_naive_bayes_shape():
    # the chain 0 -> 1 -> 2 has exactly the naive-Bayes entry keys
    with pytest.raises(ConditionViolatedError):
        sampler_predictive_batch(
            CHAIN3,
            {key: BetaParams(2.0, 2.0) for key in CHAIN3.entry_keys()},
            np.zeros((1, 2)),
            epsilon=3.0,
            samples=10,
            seed=0,
        )


def test_predictive_batch_refuses_a_graph_without_features():
    # naive_bayes_graph(0) does not exist: a naive-Bayes graph has at least one feature
    single = BayesNetGraph(node_count=1, parents=((),))
    with pytest.raises(ConditionViolatedError):
        sampler_predictive_batch(
            single, {(0, 0): BetaParams(2.0, 2.0)}, np.zeros((1, 0)), 3.0, 10, 0
        )
    with pytest.raises(InvalidArgumentError):
        naive_bayes_params({(0, 0): BetaParams(2.0, 2.0)}, 0)


NB_SCORERS = {
    "closed-form": lambda posterior, X: nb_predictive_batch(
        naive_bayes_params(posterior, 2).array[None], X
    )[0],
    "monte-carlo": lambda posterior, X: sampler_predictive_batch(
        NB2, posterior, X, epsilon=3.0, samples=10, seed=0
    ),
}


@pytest.mark.parametrize("scorer", NB_SCORERS)
@pytest.mark.parametrize(
    "edit, X, error",
    [
        (None, np.zeros((2, 3)), DimensionMismatchError),
        (None, np.zeros((2, 1)), DimensionMismatchError),
        (None, np.zeros(2), DimensionMismatchError),
        ("drop", np.zeros((2, 2)), DimensionMismatchError),
        ("extra", np.zeros((2, 2)), DimensionMismatchError),
    ],
    ids=["wide-X", "narrow-X", "1d-X", "missing-entry", "extra-entry"],
)
def test_nb_scorers_reject_bad_shapes(scorer, edit, X, error):
    posterior = nb2_posterior(False)
    if edit == "drop":
        del posterior[(2, 1)]
    elif edit == "extra":
        posterior[(0, 1)] = BetaParams(2.0, 2.0)
    with pytest.raises(error):
        NB_SCORERS[scorer](posterior, X)
