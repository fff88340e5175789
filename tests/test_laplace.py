"""Laplace perturbation of update counts and its utility bounds."""

import math
import warnings

import numpy as np
import pytest

from dpbayes import (
    BayesNetGraph,
    BetaParams,
    Dataset,
    DimensionMismatchError,
    InvalidArgumentError,
    LaplaceNoiseSpec,
    UpdateVector,
    compute_updates,
    kl_joint,
    perturb_updates,
    posterior_kl_bound,
    posterior_params,
    uniform_priors,
    update_deviation_bound,
)
from dpbayes import laplace as laplace_mod
from dpbayes.randomness import laplace_from_uniform, substream

from conftest import CHAIN3, SINGLE, random_dataset


def chain_updates(rng, n=20):
    data = random_dataset(rng, n, 3)
    return compute_updates(CHAIN3, data)


# ---------------------------------------------------------------------------
# noise spec
# ---------------------------------------------------------------------------


def test_spec_scale_formula():
    spec = LaplaceNoiseSpec(epsilon=2.0, node_count=3, n=20)
    assert spec.scale == 2.0 * 3 / 2.0
    assert LaplaceNoiseSpec.for_graph(CHAIN3, epsilon=0.5, n=10).scale == 12.0


def test_update_sensitivity_values():
    # at epsilon 1 the scale is the update vector's L1 sensitivity 2|I|
    assert LaplaceNoiseSpec.for_graph(SINGLE, epsilon=1.0, n=10).scale == 2.0
    nb = BayesNetGraph(node_count=17, parents=((),) + ((0,),) * 16)
    assert LaplaceNoiseSpec.for_graph(nb, epsilon=1.0, n=10).scale == 34.0


def test_spec_rejects_bad_epsilon():
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        LaplaceNoiseSpec(epsilon=0.0, node_count=1, n=5)
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        LaplaceNoiseSpec(epsilon=-1.0, node_count=1, n=5)
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        LaplaceNoiseSpec(epsilon=float("nan"), node_count=1, n=5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: LaplaceNoiseSpec(epsilon=1.0, node_count=0, n=5),
        lambda: LaplaceNoiseSpec(epsilon=1.0, node_count=1, n=-1),
        lambda: update_deviation_bound(SINGLE, epsilon=1.0, delta=1.0),
        lambda: posterior_kl_bound({}, UpdateVector({}), SINGLE, epsilon=1.0, delta=0.0, n=5),
    ],
    ids=["no-nodes", "negative-n", "deviation-delta", "kl-delta"],
)
def test_bad_arguments_raise_library_errors(call):
    with pytest.raises(InvalidArgumentError):
        call()


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_zero_noise_limit(rng):
    up = chain_updates(rng)
    spec = LaplaceNoiseSpec(epsilon=1e12, node_count=3, n=20)
    pert = perturb_updates(up, spec, seed=7)
    for key, (z1, z2) in pert.entries.items():
        da, db = up.entries[key]
        assert z1 == pytest.approx(da, abs=1e-6)
        assert z2 == pytest.approx(db, abs=1e-6)


def test_outputs_clamped_and_raw_preserved(rng):
    # small n and loud noise force both clamp endpoints to appear
    up = chain_updates(rng, n=4)
    spec = LaplaceNoiseSpec(epsilon=0.05, node_count=3, n=4)
    pert = perturb_updates(up, spec, seed=3)
    raw = np.array([v for pair in pert.raw.values() for v in pair])
    clamped = np.array([v for pair in pert.entries.values() for v in pair])
    assert clamped.min() >= 0.0 and clamped.max() <= 4.0
    assert raw.min() < 0.0 or raw.max() > 4.0
    # the release is exactly the clamp of the raw values
    for key in up.entries:
        r1, r2 = pert.raw[key]
        assert pert.entries[key] == (
            min(max(r1, 0.0), 4.0),
            min(max(r2, 0.0), 4.0),
        )


def test_perturb_covers_every_entry():
    spec = LaplaceNoiseSpec(epsilon=1.0, node_count=2, n=5)
    updates = UpdateVector({(0, 0): (1.0, 0.0), (1, 0): (0.0, 1.0)})
    pert = perturb_updates(updates, spec, seed=1)
    assert set(pert.entries) == set(updates.entries)
    assert set(pert.raw) == set(updates.entries)


def test_determinism_replay(rng):
    up = chain_updates(rng)
    spec = LaplaceNoiseSpec.for_graph(CHAIN3, epsilon=1.0, n=20)
    a = perturb_updates(up, spec, seed=99)
    b = perturb_updates(up, spec, seed=99)
    assert a.entries == b.entries
    assert a.raw == b.raw
    c = perturb_updates(up, spec, seed=100)
    assert c.entries != a.entries


def test_noise_is_schedule_independent(rng):
    # uniforms are drawn in sorted key order: reordering the input dict changes nothing
    up = chain_updates(rng)
    reordered = UpdateVector(dict(reversed(list(up.entries.items()))))
    spec = LaplaceNoiseSpec.for_graph(CHAIN3, epsilon=1.0, n=20)
    a = perturb_updates(up, spec, seed=5)
    b = perturb_updates(reordered, spec, seed=5)
    assert a.entries == b.entries


def test_noise_layout_one_substream_sorted_keys(rng):
    # row r of one (m, 2) uniform block feeds the r-th key in sorted order
    up = chain_updates(rng)
    spec = LaplaceNoiseSpec.for_graph(CHAIN3, epsilon=0.8, n=20)
    pert = perturb_updates(up, spec, seed=17)
    keys = sorted(up.entries)
    u = substream(17, laplace_mod._NOISE_TAG).random((len(keys), 2))
    noise = laplace_from_uniform(u, spec.scale)
    assert list(pert.raw) == keys
    for r, key in enumerate(keys):
        da, db = up.entries[key]
        assert pert.raw[key] == (da + noise[r, 0], db + noise[r, 1])


def test_stack_rows_equal_single_releases_bit_for_bit(rng):
    # each row keeps its own substream, scale and truncation bound; eps = inf adds no noise
    up = chain_updates(rng)
    specs = [LaplaceNoiseSpec.for_graph(CHAIN3, eps, n) for eps, n in
             ((0.5, 20), (math.inf, 20), (3.0, 20), (0.5, 5))]
    seeds = [11, 12, 13, 11]
    entries, raw = laplace_mod.perturb_update_stack(up.entries.array[None], specs, (seeds,))
    assert entries.shape == raw.shape == (1, len(specs), CHAIN3.update_size(), 2)
    entries, raw = entries[0], raw[0]
    for e, (spec, seed) in enumerate(zip(specs, seeds)):
        single = perturb_updates(up, spec, seed)
        u = substream(seed, laplace_mod._NOISE_TAG).random(up.entries.array.shape)
        want = up.entries.array + laplace_from_uniform(u, spec.scale)
        assert raw[e].tobytes() == single.raw.array.tobytes() == want.tobytes()
        clipped = np.clip(want, 0.0, spec.n)
        assert entries[e].tobytes() == single.entries.array.tobytes() == clipped.tobytes()
    assert raw[1].tobytes() == up.entries.array.tobytes()
    assert entries[3].max() <= 5.0 < entries[0].max()


def test_stack_over_tables_equals_single_releases_bit_for_bit(rng):
    # three tables of one graph under one row of four specs, each with its own bound
    ups = [chain_updates(rng, n) for n in (20, 5, 12)]
    specs = [LaplaceNoiseSpec.for_graph(CHAIN3, eps, n)
             for eps, n in ((0.5, 20), (1.0, 5), (3.0, 12), (math.inf, 20))]
    seeds = np.arange(12, dtype=np.uint32).reshape(3, 4) * 101
    stack = np.stack([up.entries.array for up in ups])
    entries, raw = laplace_mod.perturb_update_stack(stack, specs, seeds)
    assert entries.shape == raw.shape == (3, 4, CHAIN3.update_size(), 2)
    for r, e in np.ndindex(3, 4):
        single = perturb_updates(ups[r], specs[e], int(seeds[r, e]))
        assert raw[r, e].tobytes() == single.raw.array.tobytes()
        assert entries[r, e].tobytes() == single.entries.array.tobytes()


@pytest.mark.parametrize(
    "stack",
    [np.zeros((4, 2)), np.zeros((1, 4, 3)), np.zeros((1, 1, 4, 2)), np.zeros((1, 4, 2), bool),
     np.full((1, 4, 2), "1"), [np.zeros((4, 2))]],
    ids=["one-table", "three-columns", "four-axes", "bools", "strings", "list"],
)
def test_stack_must_be_one_numeric_array_of_count_tables(stack):
    # one (R, m, 2) array has one entry order; anything else is refused up front
    spec = LaplaceNoiseSpec.for_graph(SINGLE, 1.0, 20)
    with pytest.raises(DimensionMismatchError, match=r"^need a numeric \(R, m, 2\) update stack"):
        laplace_mod.perturb_update_stack(stack, (spec,), ((1,),))


def test_release_at_tiny_epsilon_truncates_without_a_warning():
    # at scale 6e307 a draw can pass the double range: it rounds to +-inf, which
    # truncation maps to 0 or n like any other draw beyond [0, n]
    graph = BayesNetGraph.from_parent_lists([[], [0], [0, 1]])
    data = Dataset.from_records([(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)])
    spec = LaplaceNoiseSpec.for_graph(graph, 1e-307, data.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pert = perturb_updates(compute_updates(graph, data), spec, 1)
    assert np.isinf(pert.raw.array).any()
    assert set(pert.entries.array.ravel().tolist()) == {0.0, 4.0}


@pytest.mark.parametrize("seeds", [[], [1], [1, 2, 3]], ids=["empty", "short", "long"])
def test_stack_needs_one_seed_per_spec(rng, seeds):
    specs = [LaplaceNoiseSpec.for_graph(CHAIN3, 1.0, 20)] * (2 if seeds else 0)
    with pytest.raises(DimensionMismatchError, match="one seed per"):
        laplace_mod.perturb_update_stack(chain_updates(rng).entries.array[None], specs, (seeds,))


# ---------------------------------------------------------------------------
# deviation bound
# ---------------------------------------------------------------------------


def test_deviation_bound_spot_value():
    # one node: 2m/delta = 4 at delta 0.5, scale 2/epsilon = 1
    assert update_deviation_bound(SINGLE, epsilon=2.0, delta=0.5) == pytest.approx(
        math.log(4.0)
    )


def test_deviation_bound_monotone_in_delta():
    lo = update_deviation_bound(CHAIN3, epsilon=1.0, delta=0.1)
    hi = update_deviation_bound(CHAIN3, epsilon=1.0, delta=0.2)
    assert hi < lo


def test_deviation_bound_entry_count_naive_bayes():
    # invert the formula to recover m = 33 for the 16-feature network
    nb = BayesNetGraph(node_count=17, parents=((),) + ((0,),) * 16)
    eps, delta = 1.0, 0.1
    bound = update_deviation_bound(nb, eps, delta)
    m = math.exp(bound * eps / (2 * 17)) * delta / 2.0
    assert m == pytest.approx(33.0)


def test_deviation_bound_coverage(rng):
    # pre-clamp sup deviation exceeds the bound in at most a delta fraction
    up = chain_updates(rng)
    eps, delta, trials = 1.0, 0.2, 400
    bound = update_deviation_bound(CHAIN3, eps, delta)
    spec = LaplaceNoiseSpec.for_graph(CHAIN3, epsilon=eps, n=20)
    exceed = 0
    for s in range(trials):
        pert = perturb_updates(up, spec, seed=s)
        worst = max(
            max(abs(r1 - u1), abs(r2 - u2))
            for (r1, r2), (u1, u2) in zip(pert.raw.values(), up.entries.values())
        )
        exceed += worst > bound
    # binomial slack: 0.2 * 400 = 80 expected at the bound, far from 120
    assert exceed <= trials * delta + 3 * math.sqrt(trials * delta * (1 - delta))


# ---------------------------------------------------------------------------
# posterior KL bound
# ---------------------------------------------------------------------------


def kl_inputs(rng, n=20):
    data = random_dataset(rng, n, 3)
    up = compute_updates(CHAIN3, data)
    priors = uniform_priors(CHAIN3, 2.0, 2.0)
    return priors, up


def test_kl_bound_requires_priors_at_least_two(rng):
    priors, up = kl_inputs(rng)
    weak = dict(priors)
    weak[(0, 0)] = BetaParams(1.0, 2.0)
    with pytest.raises(InvalidArgumentError, match="must be >= 2"):
        posterior_kl_bound(weak, up, CHAIN3, epsilon=1.0, delta=0.1, n=20)


def test_kl_bound_rejects_updates_that_empty_a_posterior():
    # a negative (raw) count can push alpha + dalpha to zero or below,
    # where the expectation term's log is undefined
    up = UpdateVector({(0, 0): (-5.0, 1.0)})
    with pytest.raises(InvalidArgumentError, match="must be positive"):
        posterior_kl_bound(uniform_priors(SINGLE, 2.0, 2.0), up, SINGLE, epsilon=0.05, delta=0.1, n=1)


def test_kl_bound_finite_nonnegative(rng):
    priors, up = kl_inputs(rng)
    bound = posterior_kl_bound(priors, up, CHAIN3, epsilon=1.0, delta=0.1, n=20)
    assert math.isfinite(bound) and bound > 0.0


def test_kl_bound_at_infinite_epsilon_is_the_deviation_term(rng):
    # epsilon = inf is the noiseless release, scale 0: the refined
    # expectation term is 0 and only sqrt(-0.5 sum c ln delta) is left
    priors, up = kl_inputs(rng)
    n, delta = 20, 0.1
    variation_total = sum(
        (2 * n + 1) * (math.log(p.alpha + n + 1) + math.log(p.beta + n + 1))
        for p in priors.values()
    )
    bound = posterior_kl_bound(priors, up, CHAIN3, epsilon=math.inf, delta=delta, n=n)
    assert bound == pytest.approx(math.sqrt(-0.5 * variation_total * math.log(delta)), rel=1e-12)


def test_kl_bound_delta_term_vanishes(rng):
    # as delta -> 1 the sqrt(-0.5 sum c ln delta) term goes to zero, and
    # the gap to the limit follows the sqrt(-ln delta) shape exactly
    priors, up = kl_inputs(rng)
    args = (priors, up, CHAIN3)
    base = posterior_kl_bound(*args, epsilon=1.0, delta=1.0, n=20)
    g1 = posterior_kl_bound(*args, epsilon=1.0, delta=0.5, n=20) - base
    g2 = posterior_kl_bound(*args, epsilon=1.0, delta=0.25, n=20) - base
    assert g1 > 0 and g2 > 0
    assert g2 / g1 == pytest.approx(
        math.sqrt(math.log(0.25) / math.log(0.5)), rel=1e-6
    )


def test_kl_bound_monotone_in_n_plain_branch(rng):
    # below the refinement switch (n < 2|I|/eps) both terms grow with n
    priors, up = kl_inputs(rng)
    values = [
        posterior_kl_bound(priors, up, CHAIN3, epsilon=0.05, delta=0.1, n=n)
        for n in range(0, 101, 10)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_kl_bound_monotone_deep_in_refined_branch(rng):
    # once the expectation term has decayed the deviation term dominates
    priors, up = kl_inputs(rng)
    values = [
        posterior_kl_bound(priors, up, CHAIN3, epsilon=1.0, delta=0.1, n=n)
        for n in range(40, 201, 10)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_kl_bound_dips_at_refinement_knee(rng):
    # just past the switch the expectation term decays exponentially and
    # can briefly outpace the sqrt(n log n) growth of the deviation term,
    # so the bound is not globally monotone in n
    priors, up = kl_inputs(rng)
    values = [
        posterior_kl_bound(priors, up, CHAIN3, epsilon=1.0, delta=0.9, n=n)
        for n in range(6, 47, 5)
    ]
    assert any(b < a for a, b in zip(values, values[1:]))


def test_kl_bound_covers_empirical_kl(rng):
    # modest Monte Carlo version; the acceptance suite runs the full one
    data = random_dataset(rng, 20, 3)
    up = compute_updates(CHAIN3, data)
    priors = uniform_priors(CHAIN3, 2.0, 2.0)
    exact = posterior_params(priors, up)
    eps, delta, trials = 1.0, 0.1, 100
    bound = posterior_kl_bound(priors, up, CHAIN3, epsilon=eps, delta=delta, n=20)
    spec = LaplaceNoiseSpec.for_graph(CHAIN3, epsilon=eps, n=20)
    bad = 0
    for s in range(trials):
        pert = perturb_updates(up, spec, seed=s)
        noisy = posterior_params(priors, UpdateVector(dict(pert.entries)))
        bad += kl_joint(exact, noisy).total > bound
    assert bad <= trials * delta
