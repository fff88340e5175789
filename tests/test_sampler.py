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


def assert_exact_trimmed_sample(draws, params, omega):
    assert ((draws > omega) & (draws < 1.0 - omega)).all()  # no boundary atoms
    a, b = params.alpha, params.beta
    if scipy.special.betainc(a, b, omega) > 0.5:
        # the oracle's lower-tail CDF difference cancels here: test the
        # mirror image 1 - theta ~ Beta(b, a) on the same interval
        draws, params = 1.0 - draws, BetaParams(b, a)
    stat = scipy.stats.kstest(draws, lambda x: truncated_beta_cdf(params, omega, x))
    assert stat.pvalue > 0.01


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
    return scipy.special.betainc(a, b, 1.0 - omega) - scipy.special.betainc(a, b, omega)


HYBRID_BLOCKS = {
    # rows with mass >= PROPOSAL_MASS come first: the e^-1 proposal rows
    # miss on both sides and mostly above; the e^-5 ones miss below and
    # above; the rest are inverted in the lower and the upper tail
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


def test_criterion_11_draws_stay_on_inversion_path():
    # Beta(3, 2) at omega = e^-1 has mass 0.39 < PROPOSAL_MASS, so the
    # acceptance draws are pure inversion and keep their bits (digest
    # taken with numpy 2.4 and scipy 1.17)
    params, omega = BetaParams(3.0, 2.0), math.exp(-1.0)
    assert trim_mass(params, omega) < PROPOSAL_MASS
    draws = trimmed_beta_draws(params, omega, substream(20240817, "ks"), size=100_000)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "1fc0f295de8ee4fca9bde03a444e600c8db2bfc02d61c984a7f1ea4f68ef2caf"
    )


class FixedUniforms:
    """Stands in for a Generator whose next uniforms are already known."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape)


def test_release_block_layout():
    # row r of the release block is the single-entry inversion of row r
    # of one (m, S) uniform block, entries in sorted key order. Every
    # row's mass at omega = e^-1 is below PROPOSAL_MASS (0.39 at most),
    # so no row draws a Beta proposal and FixedUniforms needs no beta()
    posterior = {
        (2, 1): BetaParams(2.0, 500.0),
        (0, 0): BetaParams(3.0, 2.0),
        (1, 1): BetaParams(500.0, 2.0),
        (1, 0): BetaParams(1.0, 51.0),
        (2, 0): BetaParams(4.0, 9.0),
    }
    omega, seed, S = math.exp(-1.0), 11, 64
    draws = trimmed_posterior_draws(posterior, omega, seed, S)
    u = substream(seed, "trimmed-posterior-draw").random((len(posterior), S))
    for r, key in enumerate(sorted(posterior)):
        want = trimmed_beta_draws(posterior[key], omega, FixedUniforms(u[r]), S)
        assert np.array_equal(draws[key], want)


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
