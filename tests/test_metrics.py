"""Utility metrics and the independent verification oracles."""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import dpbayes.graph
import dpbayes.verify

from dpbayes import (
    BayesNetGraph,
    BetaParams,
    Dataset,
    DimensionMismatchError,
    DpBayesError,
    InvalidArgumentError,
    PrivacyCheckReport,
    accuracy,
    build_table,
    downward_closure,
    kl_beta,
    kl_joint,
    project_marginal,
)
from dpbayes.verify import (
    _quad,
    all_dags,
    dense_marginal,
    dense_table,
    exhaustive_coefficient_sensitivity,
    exhaustive_sensitivity,
    kl_beta_quadrature,
    laplace_density_ratio_check,
    nb_predictive_quadrature,
    run_verification_suite,
    truncated_beta_moment,
    truncated_normal_moments,
    trimmed_nb_predictive_quadrature,
    walsh_coefficients_dense,
)

from conftest import CHAIN3, SINGLE, random_dataset


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


def test_kl_beta_identity_is_zero():
    p = BetaParams(3.7, 1.2)
    assert kl_beta(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_beta_known_value():
    # KL(Beta(2,1) || Beta(1,1)) = ln 2 + psi(2) - psi(3) = ln 2 - 1/2
    got = kl_beta(BetaParams(2.0, 1.0), BetaParams(1.0, 1.0))
    assert got == pytest.approx(math.log(2.0) - 0.5, rel=1e-12)


def test_kl_beta_matches_quadrature():
    pairs = [
        (BetaParams(2.0, 1.0), BetaParams(1.0, 1.0)),
        (BetaParams(4.5, 2.2), BetaParams(3.0, 3.0)),
        (BetaParams(30.0, 12.0), BetaParams(25.0, 14.0)),
        (BetaParams(1.0, 8.0), BetaParams(2.0, 6.0)),
    ]
    for p, q in pairs:
        assert kl_beta(p, q) == pytest.approx(kl_beta_quadrature(p, q), abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*(st.floats(0.5, 50.0) for _ in range(4))),
)
def test_kl_beta_nonnegative(shapes):
    a, b, c, d = shapes
    assert kl_beta(BetaParams(a, b), BetaParams(c, d)) >= -1e-12


def test_kl_beta_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        BetaParams(0.0, 1.0)


def test_kl_joint_sums_entries():
    p = {(0, 0): BetaParams(2.0, 1.0), (1, 0): BetaParams(3.0, 3.0)}
    q = {(0, 0): BetaParams(1.0, 1.0), (1, 0): BetaParams(3.0, 3.0)}
    report = kl_joint(p, q)
    assert report.total == pytest.approx(sum(report.per_entry.values()))
    assert report.per_entry[(1, 0)] == pytest.approx(0.0, abs=1e-12)
    assert report.total == pytest.approx(kl_beta(p[(0, 0)], q[(0, 0)]))


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def test_accuracy_all_correct():
    assert accuracy([1.0, 1.0, 1.0], [1, 1, 1]) == 1.0


def test_accuracy_tie_predicts_class_one():
    assert accuracy([0.5], [1]) == 1.0
    assert accuracy([0.5], [0]) == 0.0


@pytest.mark.parametrize("threshold", [math.nan, 5.0, -0.1, math.inf])
def test_accuracy_rejects_threshold_outside_unit_interval(threshold):
    # any such threshold would label every row the same class
    with pytest.raises(InvalidArgumentError, match="threshold must lie in"):
        accuracy([0.9, 0.8, 0.1], [1, 1, 0], threshold)


def test_accuracy_accepts_threshold_endpoints():
    assert accuracy([0.9, 0.8, 0.1], [1, 1, 0], 0.0) == pytest.approx(2 / 3)
    assert accuracy([1.0, 0.8, 0.1], [1, 0, 0], 1.0) == 1.0


def test_accuracy_length_mismatch():
    with pytest.raises(DimensionMismatchError, match="predictions vs"):
        accuracy([0.5, 0.5], [1])
    with pytest.raises(DimensionMismatchError, match="predictions vs"):
        accuracy([[0.5, 0.5]], [1])


def test_accuracy_of_a_stack_is_one_value_per_row():
    preds = [[0.9, 0.8, 0.1], [0.1, 0.2, 0.9], [0.5, 0.5, 0.5]]
    got = accuracy(preds, [1, 1, 0], 0.5)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [accuracy(row, [1, 1, 0], 0.5) for row in preds] == [1.0, 0.0, 2 / 3]


def test_accuracy_of_a_stack_of_stacks_reads_each_against_its_own_labels():
    preds = [[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.1], [0.6, 0.7]], [[0.4, 0.4], [0.5, 0.5]]]
    labels = [[1, 0], [0, 1], [0, 0]]
    got = accuracy(preds, labels)
    assert got.shape == (3, 2)
    assert got.tolist() == [accuracy(p, lab).tolist() for p, lab in zip(preds, labels)]
    # labels for the first two stacks only, or a stack of labels for one row
    with pytest.raises(DimensionMismatchError, match=r"^\(3, 2, 2\) predictions vs \(2, 2\)"):
        accuracy(preds, labels[:2])
    with pytest.raises(DimensionMismatchError, match=r"^\(2,\) predictions vs \(2, 2\)"):
        accuracy(preds[0][0], labels[:2])


def test_accuracy_random_approaches_half(rng):
    preds = rng.random(20000)
    labels = rng.integers(0, 2, 20000)
    assert accuracy(preds, labels) == pytest.approx(0.5, abs=0.02)


def test_privacy_report_pass_rule():
    ok = PrivacyCheckReport.from_observation("laplace", 1.0, 0.9999999)
    assert ok.passed
    bad = PrivacyCheckReport.from_observation("laplace", 1.0, 1.1)
    assert not bad.passed


# ---------------------------------------------------------------------------
# quadrature oracles against mpmath
# ---------------------------------------------------------------------------


# mpmath references, each split at the density's mode so tanh-sinh sees
# one smooth hump per panel; the test sets the precision to 30 digits


def _mp_beta_pdf(params: BetaParams):
    a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
    norm = mpmath.beta(a, b)
    return lambda x: x ** (a - 1) * (1 - x) ** (b - 1) / norm


def _mp_panels(params: BetaParams, lo=0.0, hi=1.0):
    mode = (params.alpha - 1.0) / (params.alpha + params.beta - 2.0)
    return [lo, hi] if not lo < mode < hi else [lo, mode, hi]


def _mp_kl(p: BetaParams, q: BetaParams) -> float:
    fp, fq = _mp_beta_pdf(p), _mp_beta_pdf(q)
    return float(mpmath.quad(lambda x: fp(x) * mpmath.log(fp(x) / fq(x)), _mp_panels(p)))


@functools.lru_cache(maxsize=None)
def _mp_beta_moment(params: BetaParams, lo: float, hi: float, x_power: int, one_minus_power: int):
    f, panels = _mp_beta_pdf(params), _mp_panels(params, lo, hi)
    num = mpmath.quad(lambda x: f(x) * x**x_power * (1 - x) ** one_minus_power, panels)
    return num / mpmath.quad(f, panels)


def _mp_nb_predictive(posterior, x, lo=0.0, hi=1.0) -> float:
    joint = []
    for y in (0, 1):
        term = _mp_beta_moment(posterior[(0, 0)], lo, hi, y, 1 - y)
        for f, v in enumerate(x, start=1):
            term *= _mp_beta_moment(posterior[(f, y)], lo, hi, v, 1 - v)
        joint.append(term)
    return float(joint[1] / (joint[0] + joint[1]))


QUAD_PAIRS = [
    (BetaParams(2.0, 1.0), BetaParams(1.0, 1.0)),
    (BetaParams(30.0, 12.0), BetaParams(25.0, 14.0)),
    (BetaParams(49.0, 1.5), BetaParams(1.2, 40.0)),
]
QUAD_POSTERIOR = {
    (0, 0): BetaParams(12.0, 9.0),
    (1, 0): BetaParams(3.0, 7.0), (1, 1): BetaParams(8.0, 2.5),
    (2, 0): BetaParams(1.0, 4.0), (2, 1): BetaParams(40.0, 38.0),
}


@mpmath.workdps(30)
def test_quadrature_oracles_match_mpmath():
    # each oracle within the tolerance its criterion or test holds it to
    for p, q in QUAD_PAIRS:
        assert kl_beta_quadrature(p, q) == pytest.approx(_mp_kl(p, q), abs=1e-6)
    for params, trim, powers in [
        (BetaParams(3.0, 2.0), math.exp(-1.0), (1, 0)),
        (BetaParams(0.7, 5.0), math.exp(-3.0), (0, 1)),
        (BetaParams(40.0, 2.0), 0.01, (1, 1)),
    ]:
        want = float(_mp_beta_moment(params, trim, 1.0 - trim, *powers))
        assert truncated_beta_moment(params, trim, *powers) == pytest.approx(want, abs=1e-9)
    omega = math.exp(-1.0)
    for mu, sigma2, lo, hi in [(0.3, 2.0, -1.0, 1.5), (5.0, 0.01, 4.5, 6.0), (-2.0, 0.5, 0.0, 3.0)]:
        pdf = lambda x: mpmath.npdf(x, mu, mpmath.sqrt(sigma2))  # noqa: E731
        panels = [lo, mu, hi] if lo < mu < hi else [lo, hi]
        mass = mpmath.quad(pdf, panels)
        mean = mpmath.quad(lambda x: x * pdf(x), panels) / mass
        var = mpmath.quad(lambda x: (x - mean) ** 2 * pdf(x), panels) / mass
        got = truncated_normal_moments(mu, sigma2, lo, hi)
        assert got == pytest.approx((float(mean), float(var)), abs=1e-9)
    for x in [(0, 0), (1, 0), (1, 1)]:
        want = _mp_nb_predictive(QUAD_POSTERIOR, x)
        assert nb_predictive_quadrature(QUAD_POSTERIOR, x) == pytest.approx(want, abs=1e-9)
        want = _mp_nb_predictive(QUAD_POSTERIOR, x, omega, 1.0 - omega)
        got = trimmed_nb_predictive_quadrature(QUAD_POSTERIOR, x, omega)
        assert got == pytest.approx(want, abs=1e-9)


def test_quadrature_raises_when_quadpack_does_not_converge():
    # sin(1/x) oscillates without bound near 0: QUADPACK runs out of subintervals
    with pytest.raises(DpBayesError, match=r"quadrature on \[1e-06, 1.0\] did not converge"):
        _quad(lambda x: math.sin(1.0 / x), 1e-6, 1.0)


# ---------------------------------------------------------------------------
# dense transform oracles
# ---------------------------------------------------------------------------


def test_dense_table_little_endian():
    data = Dataset.from_records([(1, 0), (1, 0), (0, 1)])
    dense = dense_table(data, 2)
    assert dense[1] == 2.0  # (1,0) -> index 1
    assert dense[2] == 1.0  # (0,1) -> index 2
    assert dense.sum() == 3.0


def test_walsh_transform_is_involution(rng):
    table = rng.normal(size=64)
    twice = walsh_coefficients_dense(walsh_coefficients_dense(table))
    assert np.allclose(twice, table, atol=1e-12)


def test_walsh_transform_requires_power_of_two():
    with pytest.raises(ValueError):
        walsh_coefficients_dense(np.zeros(6))


def test_dense_marginal_matches_sparse_projection(rng):
    k = 6
    data = random_dataset(rng, 80, k)
    dense = dense_marginal(dense_table(data, k), k, [1, 4])
    sparse = project_marginal(build_table(data), tuple(1 if i in (1, 4) else 0 for i in range(k)))
    for idx in range(4):
        cell = (idx & 1, (idx >> 1) & 1)
        assert dense[idx] == sparse.value(cell)


# ---------------------------------------------------------------------------
# exhaustive sensitivity
# ---------------------------------------------------------------------------


def test_exhaustive_sensitivity_single_node():
    assert exhaustive_sensitivity(SINGLE, n_max=3) == 2.0


def test_exhaustive_sensitivity_chain_saturates():
    assert exhaustive_sensitivity(CHAIN3, n_max=2) == 6.0


def test_exhaustive_sensitivity_never_exceeds_twice_node_count():
    for graph in all_dags(2):
        assert exhaustive_sensitivity(graph, n_max=2) <= 2.0 * graph.node_count


def test_exhaustive_sensitivity_budget():
    with pytest.raises(InvalidArgumentError, match="limited to"):
        exhaustive_sensitivity(BayesNetGraph(node_count=5, parents=((),) * 5), n_max=2)
    with pytest.raises(InvalidArgumentError, match="limited to"):
        exhaustive_sensitivity(SINGLE, n_max=5)


def test_coefficient_sensitivity_single_node():
    # records 0 and 1 have coefficients (1, 1)/sqrt 2 and (1, -1)/sqrt 2
    assert exhaustive_coefficient_sensitivity(SINGLE, n_max=3) == pytest.approx(math.sqrt(2.0))


def test_coefficient_sensitivity_budget():
    with pytest.raises(InvalidArgumentError, match="limited to"):
        exhaustive_coefficient_sensitivity(BayesNetGraph(5, ((),) * 5), n_max=1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exhaustive_sensitivity_is_twice_node_count_on_every_dag(k):
    # records differing in every bit move one tally down and one up at each node
    assert {exhaustive_sensitivity(graph, n_max=2) for graph in all_dags(k)} == {2.0 * k}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coefficient_sensitivity_counts_odd_parities(k):
    # replacing record x by x ^ d moves coefficient gamma by 2^{1-k/2} when
    # gamma & d has odd popcount and leaves it alone otherwise
    for graph in all_dags(k):
        closure = downward_closure(graph).members
        odd = max(sum(bin(g & d).count("1") % 2 for g in closure) for d in range(1 << k))
        got = exhaustive_coefficient_sensitivity(graph, n_max=2)
        assert got == pytest.approx(odd * 2.0 ** (1.0 - k / 2.0), rel=1e-12)


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_neighbour_enumeration_matches_pairwise_search(n_max):
    # the index-shift walk against a plain search over every replacement
    terms = np.random.default_rng(n_max).normal(size=(3, 2))
    worst = 0.0
    for n in range(1, n_max + 1):
        for data in itertools.product(range(3), repeat=n):
            for pos, other in itertools.product(range(n), range(3)):
                neighbour = data[:pos] + (other,) + data[pos + 1 :]
                diff = terms[list(data)].sum(axis=0) - terms[list(neighbour)].sum(axis=0)
                worst = max(worst, float(np.abs(diff).sum()))
    assert dpbayes.verify._worst_neighbour_l1(terms, n_max) == pytest.approx(worst, rel=1e-12)


def test_all_dags_counts():
    # labeled DAGs, OEIS A003024
    assert len(all_dags(1)) == 1
    assert len(all_dags(2)) == 3
    assert len(all_dags(3)) == 25
    assert len(all_dags(4)) == 543


def test_all_dags_skips_only_cycles(monkeypatch):
    # any other failure of the check must not silently shrink the DAG set
    def broken(graph):
        raise TypeError("broken check")

    monkeypatch.setattr(dpbayes.graph, "validate_graph", broken)
    with pytest.raises(TypeError, match="broken check"):
        all_dags(2)


# ---------------------------------------------------------------------------
# analytic density-ratio check
# ---------------------------------------------------------------------------


def test_density_ratio_zero_shift():
    report = laplace_density_ratio_check(
        sensitivity=2.0, epsilon=1.0, grid=np.linspace(-5, 5, 11)[:, None], shifts=np.zeros((1, 1))
    )
    assert report.max_log_ratio_observed == 0.0
    assert report.passed


def test_density_ratio_one_dimensional_worst_case():
    # beyond the shift the log-density gap is exactly |s|/b = epsilon
    eps, sens = 2.0, 3.0
    report = laplace_density_ratio_check(
        sensitivity=sens,
        epsilon=eps,
        grid=np.array([[10.0], [-10.0], [0.5]]),
        shifts=np.array([[sens]]),
    )
    assert report.max_log_ratio_observed == pytest.approx(eps)
    assert report.passed


def test_density_ratio_random_shifts_pass(rng):
    sens, eps = 6.0, 1.0
    shifts = rng.normal(size=(200, 6))
    shifts *= (sens * rng.random((200, 1))) / np.abs(shifts).sum(axis=1, keepdims=True)
    grid = rng.normal(scale=8.0, size=(64, 6))
    report = laplace_density_ratio_check(sens, eps, grid, shifts)
    assert report.passed


def test_density_ratio_rejects_oversized_shift():
    with pytest.raises(ValueError):
        laplace_density_ratio_check(
            sensitivity=1.0, epsilon=1.0, grid=np.zeros((1, 2)), shifts=np.ones((1, 2))
        )


# ---------------------------------------------------------------------------
# truncated-distribution oracles
# ---------------------------------------------------------------------------


def test_truncated_beta_moment_against_closed_form():
    # E[theta] of the conditioned Beta via incomplete-beta identities
    a, b = 3.0, 2.0
    params = BetaParams(a, b)
    omega = math.exp(-1.0)
    lo = scipy.stats.beta.cdf(omega, a, b)
    hi = scipy.stats.beta.cdf(1 - omega, a, b)
    lifted = scipy.stats.beta.cdf(1 - omega, a + 1, b) - scipy.stats.beta.cdf(omega, a + 1, b)
    closed = (a / (a + b)) * lifted / (hi - lo)
    assert truncated_beta_moment(params, omega, 1, 0) == pytest.approx(closed, abs=1e-9)


def test_truncated_normal_moments_against_scipy():
    mean, var = truncated_normal_moments(0.3, 2.0, -1.0, 1.5)
    sd = math.sqrt(2.0)
    dist = scipy.stats.truncnorm((-1.0 - 0.3) / sd, (1.5 - 0.3) / sd, loc=0.3, scale=sd)
    assert mean == pytest.approx(dist.mean(), abs=1e-9)
    assert var == pytest.approx(dist.var(), abs=1e-9)


def test_nb_predictive_quadrature_uniform_is_half():
    posterior = {(0, 0): BetaParams(1.0, 1.0), (1, 0): BetaParams(1.0, 1.0), (1, 1): BetaParams(1.0, 1.0)}
    assert nb_predictive_quadrature(posterior, (1,)) == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# the bundled battery
# ---------------------------------------------------------------------------


def test_verification_suite_all_green():
    results = run_verification_suite()
    assert [r["name"] for r in results] == ["laplace", "fourier", "map"]
    failing = [r["name"] for r in results if not r["passed"]]
    assert not failing, f"failing checks: {failing}"
    # laplace's 2|I| is tight; fourier's 2|J| 2^{-k/2} is 4/3 of what its coefficients need
    assert "worst loss / epsilon 1.000000" in results[0]["detail"]
    assert "worst loss / epsilon 0.750000" in results[1]["detail"]
