"""Lipschitz calculus, privacy constants, and the trimmed posterior sampler."""

import hashlib
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
    InvalidEpsilonError,
    LipschitzSpec,
    MissingPosteriorEntryError,
    OmegaTooLargeError,
    StochasticLipschitzSpec,
    compose_lipschitz,
    compose_stochastic_lipschitz,
    lipschitz_constants_from_theta,
    max_to_marginal_ratio,
    nb_predictive_batch,
    pure_privacy_report,
    sampler_predictive_batch,
    stochastic_privacy_constant,
    stochastic_privacy_report,
    trim_bound,
    trimmed_beta_draws,
    trimmed_posterior_sample,
)
from dpbayes.randomness import substream
from dpbayes.sampler import KAPPA, OMEGA_BAR, PROPOSAL_MASS, trimmed_posterior_draws
from dpbayes.verify import (
    max_log_ratio_per_hamming,
    trimmed_nb_predictive_quadrature,
    truncated_beta_cdf,
    truncated_beta_moment,
)

from conftest import CHAIN3


# ---------------------------------------------------------------------------
# composition calculus
# ---------------------------------------------------------------------------


def test_compose_lipschitz_examples():
    assert compose_lipschitz(LipschitzSpec((2.0, 3.0, 1.0))) == 3.0
    assert compose_lipschitz(LipschitzSpec((0.7,))) == 0.7


def test_lipschitz_spec_rejects_negative():
    with pytest.raises(ValueError):
        LipschitzSpec((1.0, -0.5))
    with pytest.raises(ValueError):
        LipschitzSpec(())


def test_flip_bound_certified_on_product_networks(rng):
    # with parent-invariant conditionals the joint factorizes, so one
    # coordinate flip moves only its own factor and the per-flip bound
    # max_i L_i covers every assignment pair per unit Hamming distance
    for _ in range(10):
        k = 4
        graph = BayesNetGraph(node_count=k, parents=((),) * k)
        theta = {(i, 0): float(0.05 + 0.9 * rng.random()) for i in range(k)}
        spec = lipschitz_constants_from_theta(graph, theta)
        observed = max_log_ratio_per_hamming(graph, theta)
        assert observed <= compose_lipschitz(spec) + 1e-12


def test_flip_bound_needs_product_form():
    # a strongly parent-dependent conditional breaks the per-flip factor
    # argument: flipping the parent changes the child's factor too, so
    # the certified product-form bound must not be assumed in general
    graph = BayesNetGraph(node_count=2, parents=((), (0,)))
    theta = {(0, 0): 0.1, (1, 0): 0.2, (1, 1): 0.9}
    spec = lipschitz_constants_from_theta(graph, theta)
    observed = max_log_ratio_per_hamming(graph, theta)
    assert observed > compose_lipschitz(spec)


def test_compose_stochastic_single_node():
    spec = StochasticLipschitzSpec(per_node_c=(2.5,), L0=1.0)
    assert compose_stochastic_lipschitz(spec) == 2.5


def test_compose_stochastic_two_nodes():
    spec = StochasticLipschitzSpec(per_node_c=(2.0, 3.0), L0=1.0)
    assert compose_stochastic_lipschitz(spec) == pytest.approx(2.0 - math.log(2.0))


def test_compose_stochastic_condition_violated():
    spec = StochasticLipschitzSpec(per_node_c=(0.1,) * 100, L0=1.0)
    with pytest.raises(ConditionViolatedError):
        compose_stochastic_lipschitz(spec)


# ---------------------------------------------------------------------------
# privacy constants
# ---------------------------------------------------------------------------


def independent_m_transcription(c, L0, d, C):
    # second, structurally different transcription of the same constant
    tail = 1.0 / (1.0 - math.exp(-OMEGA_BAR)) + 1.0
    inner = math.exp(-L0 * d * c) / (
        math.exp(-OMEGA_BAR * (1.0 - d)) - math.exp(-OMEGA_BAR)
    )
    inner += math.exp(L0 * (1.0 - d) * c)
    return C * (KAPPA / c + L0 * tail + math.log(C) + math.log(inner))


def test_privacy_constant_dual_transcription_spot_value():
    got = stochastic_privacy_constant(c=1.0, L0=1.0, delta_slack=0.5, C=2.0)
    assert got == pytest.approx(independent_m_transcription(1.0, 1.0, 0.5, 2.0), rel=1e-12)
    # 18.818861930109906 computed independently at 40-digit precision
    assert got == pytest.approx(18.8188619301099, abs=1e-10)


def test_privacy_constant_kappa_term():
    # at c = kappa, C = 1 the bracket is exactly 1 + remaining terms
    L0, d = 1.0, 0.5
    got = stochastic_privacy_constant(c=KAPPA, L0=L0, delta_slack=d, C=1.0)
    tail = L0 * (1.0 / (1.0 - math.exp(-OMEGA_BAR)) + 1.0)
    inner = math.exp(-L0 * d * KAPPA) / (
        math.exp(-OMEGA_BAR * (1.0 - d)) - math.exp(-OMEGA_BAR)
    ) + math.exp(L0 * (1.0 - d) * KAPPA)
    assert got == pytest.approx(1.0 + tail + math.log(inner), rel=1e-12)


def test_privacy_constant_monotone_in_C():
    values = [
        stochastic_privacy_constant(1.0, 1.0, 0.5, C) for C in (1.0, 1.5, 2.0, 4.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_privacy_constant_domain_errors():
    with pytest.raises(ValueError):
        stochastic_privacy_constant(0.0, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        stochastic_privacy_constant(1.0, -1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        stochastic_privacy_constant(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        stochastic_privacy_constant(1.0, 1.0, 0.5, 0.5)


def test_pure_report_doubles_worst_constant():
    report = pure_privacy_report(LipschitzSpec((2.0, 3.0)))
    assert report.kind == "pure"
    assert report.epsilon == 6.0


def test_stochastic_report_pairs_delta():
    spec = StochasticLipschitzSpec(per_node_c=(3.0, 4.0), L0=1.0)
    report = stochastic_privacy_report(spec, delta_slack=0.5, C=2.0)
    assert report.kind == "stochastic"
    assert report.delta == min(1.0, math.sqrt(report.M_constant / 2.0))


def test_max_to_marginal_ratio_uniform_prior():
    # single Bernoulli observation: max likelihood 1, marginal 1/2
    assert max_to_marginal_ratio(BetaParams(1.0, 1.0)) == pytest.approx(2.0)
    # asymmetric prior: the rarer outcome has marginal 2/8
    assert max_to_marginal_ratio(BetaParams(2.0, 6.0)) == pytest.approx(4.0)


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
    with pytest.raises(InvalidEpsilonError):
        trim_bound(0.0)
    with pytest.raises(InvalidEpsilonError):
        trim_bound(-3.0)


def test_trim_bound_rejects_underflowing_omega():
    # exp(-epsilon/2) is 0.0 in double precision beyond epsilon ~ 1490:
    # nothing would be trimmed, so no finite guarantee holds
    for epsilon in (1500.0, math.inf):
        with pytest.raises(InvalidEpsilonError, match="underflow"):
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
    assert draws.mean() == pytest.approx(params.mean, abs=0.01)


TINY_MASS_CASES = {
    # (params, omega): conditioning mass about 8e-5, 7e-11, 2e-109, 2e-109
    "beta3_30": (BetaParams(3.0, 30.0), math.exp(-1.0)),  # upper tail
    "beta1_51": (BetaParams(1.0, 51.0), math.exp(-1.0)),  # upper tail
    "beta500_2": (BetaParams(500.0, 2.0), 0.4),  # lower tail
    "beta2_500": (BetaParams(2.0, 500.0), 0.4),  # upper tail, lost to 1 - CDF
}


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
    block = trimmed_beta_draws(params, omega, rng, size=20000)
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
    block = trimmed_beta_draws(params, omega, rng, size=20000)
    for row, p in zip(block, params):
        assert_exact_trimmed_sample(row, p, omega)


def test_proposal_rows_keep_inside_proposals():
    # after the uniform block, the proposal rows draw one Beta block;
    # a proposal inside the interval is the draw, one outside is replaced
    omega, S = math.exp(-1.0), 400
    params = [BetaParams(3.0, 2.0), BetaParams(8.0, 8.0), BetaParams(30.0, 30.0)]
    draws = trimmed_beta_draws(params, omega, np.random.default_rng(5), S)
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
    draws = trimmed_beta_draws(BETA_ROUTE_ROWS, omega, np.random.default_rng(20), 500)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "362ca9f5eab48c91a84a6b0577722a3dc3f028d585fad4339d064c66eb42d358"
    )


def test_inverted_rows_keep_their_bits():
    # not log-concave (alpha or beta below 1), masses 0.17, 0.22, 0.07, 2e-7
    omega = math.exp(-1.0)
    assert all(trim_mass(p, omega) < PROPOSAL_MASS for p in INVERTED_ROWS)
    draws = trimmed_beta_draws(INVERTED_ROWS, omega, np.random.default_rng(21), 500)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "b36b4491351feb5d64f4aae9f07e84e1559e4086a4d44551bd1ac50c9477f86a"
    )


def test_envelope_rows_leave_other_rows_bits():
    # a Beta-route row and an inverted row drawn beside two envelope rows
    omega = math.exp(-1.0)
    params = [BetaParams(8.0, 8.0), BetaParams(3.0, 2.0), BetaParams(0.5, 0.5), BetaParams(1.0, 51.0)]
    assert [takes_envelope(p, omega) for p in params] == [False, True, False, True]
    draws = trimmed_beta_draws(params, omega, np.random.default_rng(22), 500)
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
    draws = trimmed_beta_draws(params, omega, np.random.default_rng(5), S)
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
        block = trimmed_beta_draws(params, omega, substream(7, "envelope", i), S)
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
    closed = nb_predictive_batch(posterior, X)
    for probs in (sampled, closed):
        assert np.isfinite(probs).all()
        assert ((probs >= 0.0) & (probs <= 1.0)).all()
        assert probs[0] == pytest.approx(1.0) and probs[1] == pytest.approx(0.0)
    # the posterior means are symmetric between the classes on this row
    assert closed[2] == pytest.approx(0.5)


def test_predictive_batch_peak_allocation():
    # the nb-sampler benchmark shape: 950 test rows, 16 features, S = 1000;
    # one 2S x rows float64 matrix is 15.2 MB, the four rows x S matrices
    # of a per-class layout came to 31 MB
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
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


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


NB_SCORERS = {
    "closed-form": nb_predictive_batch,
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
        ("drop", np.zeros((2, 2)), MissingPosteriorEntryError),
        ("extra", np.zeros((2, 2)), MissingPosteriorEntryError),
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
