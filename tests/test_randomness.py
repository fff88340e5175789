"""Batch keyed streams equal the one-row path, bit for bit.

derive_seeds and substreams evaluate numpy's SeedSequence hash and
PCG64 seeding as uint32 array code for a batch of more than one row
whose array parts are all integers in [0, 2^32); any other batch goes
key by key through derive_seed and substream. These tests are what
catch a change of numpy's seeding that the array code does not follow.
The route shows through substreams alone: the array route yields one
reused Generator, the key-by-key route a fresh one per row. Every test
runs with warnings as errors: a uint32 product that wrapped outside an
array would warn.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbayes import fourier, laplace
from dpbayes.errors import DimensionMismatchError, InvalidArgumentError
from dpbayes.graph import BayesNetGraph, Dataset, compute_updates, uniform_priors
from dpbayes.randomness import (
    derive_seed,
    derive_seeds,
    keyed_laplace_stack,
    laplace_from_uniform,
    seed_array,
    substream,
    substreams,
)

# zero, negative, two-word and 64-bit integers, strings, and anything in between
EDGE_PARTS = (
    0, -1, -(2**40), 2**32 - 1, 2**32, 2**40 + 3, 2**63, 2**64 - 1, 2**64 + 5, "", "attempt"
)
SCALAR_PARTS = st.one_of(
    st.sampled_from(EDGE_PARTS), st.integers(-(2**70), 2**70), st.text(max_size=6)
)
ROWS = st.integers(1, 24)
WORDS = st.integers(0, 2**32 - 1)
SEED_LISTS = st.lists(WORDS, min_size=1, max_size=24)
SHAPES = st.one_of(st.integers(1, 5), st.tuples(st.integers(1, 4), st.integers(1, 3)))


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def takes_the_array_route(*parts) -> bool:
    """Whether substreams of the batch yields one reused Generator rather than one per row."""
    streams = list(substreams(*parts))
    return len(streams) > 1 and all(rng is streams[0] for rng in streams)


@settings(max_examples=60, deadline=None)
@given(SCALAR_PARTS, st.lists(SCALAR_PARTS, max_size=4), ROWS, st.integers(1, 3), WORDS)
def test_derive_seeds_equals_derive_seed(seed, tail, rows, cols, offset):
    # an array part per side of a broadcast, between scalar parts of any word count
    down = (offset + np.arange(rows, dtype=np.int64)) % 2**32
    across = np.arange(cols, dtype=np.uint32)[:, None]
    got = derive_seeds(seed, "tag", down, *tail, across)
    assert got.dtype == np.uint32 and got.shape == (cols, rows)
    want = [[derive_seed(seed, "tag", d, *tail, a) for d in down.tolist()] for a in range(cols)]
    assert got.tolist() == want


@settings(max_examples=30, deadline=None)
@given(st.lists(SCALAR_PARTS, max_size=3), SEED_LISTS)
def test_seed_array_first_equals_derive_seed(key, seeds):
    got = derive_seeds(np.array(seeds, dtype=np.uint32), *key)
    assert got.tolist() == [derive_seed(seed, *key) for seed in seeds]


def test_scalar_parts_alone_are_one_row():
    for part in EDGE_PARTS:
        got = derive_seeds(part, "x", 3)
        assert got.shape == () and int(got) == derive_seed(part, "x", 3)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)], ids=["0-d", "1", "1x1"])
def test_one_row_batch_equals_the_one_key_functions(shape):
    seed = np.full(shape, 2**32 - 1, dtype=np.uint32)
    got = derive_seeds(seed, "tag", np.full(shape, 7, dtype=np.uint32))
    assert got.shape == shape and int(got.ravel()[0]) == derive_seed(2**32 - 1, "tag", 7)
    (rng,) = substreams(seed, "tag", 7)
    assert rng.random(4).tobytes() == substream(2**32 - 1, "tag", 7).random(4).tobytes()


@settings(max_examples=40, deadline=None)
@given(SEED_LISTS, st.lists(SCALAR_PARTS, max_size=3), SHAPES)
def test_each_batched_stream_equals_its_substream(seeds, key, shape):
    streams = substreams(np.array(seeds, dtype=np.uint32), *key)
    for seed, rng in zip(seeds, streams, strict=True):
        assert rng.random(shape).tobytes() == substream(seed, *key).random(shape).tobytes()


@settings(max_examples=40, deadline=None)
@given(SCALAR_PARTS, st.lists(SCALAR_PARTS, max_size=3), ROWS, st.integers(1, 3), SHAPES)
def test_substreams_over_array_key_parts_equal_substream(seed, tail, rows, cols, shape):
    # array key parts after a scalar seed, broadcast to (cols, rows), in flat order
    down = np.arange(rows, dtype=np.int64) * 7919
    across = np.arange(cols, dtype=np.uint32)[:, None]
    streams = substreams(seed, "tag", down, *tail, across)
    keys = [(seed, "tag", d, *tail, a) for a in range(cols) for d in down.tolist()]
    for key, rng in zip(keys, streams, strict=True):
        assert rng.random(shape).tobytes() == substream(*key).random(shape).tobytes()


@settings(max_examples=30, deadline=None)
@given(SEED_LISTS, SHAPES, st.integers(1, 3))
def test_keyed_laplace_stack_rows_equal_substream_draws(seeds, shape, cols):
    grid = np.array(seeds, dtype=np.uint32)[:, None] ^ np.arange(cols, dtype=np.uint32)
    scales = np.linspace(0.0, 3.0, grid.size).reshape(grid.shape)
    noise = keyed_laplace_stack(grid, "noise", shape, scales)
    block = (shape,) if isinstance(shape, int) else shape
    assert noise.shape == grid.shape + block
    for index, seed in np.ndenumerate(grid):
        u = substream(int(seed), "noise").random(shape)
        assert noise[index].tobytes() == laplace_from_uniform(u, scales[index]).tobytes()


@pytest.mark.parametrize(
    "parts, array_route",
    [
        ((3, "tag", np.arange(2)), True),
        ((np.arange(2, dtype=np.uint32), "tag"), True),
        ((-1, 2**63, "tag", np.arange(3)[:, None], np.arange(2)), True),
        ((seed_array([1, 2, 3]), "tag"), False),
    ],
    ids=["two-rows", "seed-array", "broadcast", "object"],
)
def test_route_follows_the_key_layout(parts, array_route):
    assert takes_the_array_route(*parts) is array_route


def test_python_int_seeds_of_any_size_keep_their_value():
    # an object array of Python ints goes key by key, exactly
    seeds = [-1, 2**63] * 8
    draws = [rng.random(2).tobytes() for rng in substreams(seed_array(seeds), "tag")]
    assert draws == [substream(seed, "tag").random(2).tobytes() for seed in seeds]


@pytest.mark.parametrize(
    "values",
    [[-1, 5], [2**32, 5], [2**40 + 3, 0], [2**64 - 1, 7]],
    ids=["negative", "two-word", "two-word-low", "uint64"],
)
def test_array_part_off_one_word_takes_the_one_row_path(values):
    part = np.array(values * 8, dtype=np.uint64 if max(values) >= 2**63 else np.int64)
    assert not takes_the_array_route(3, "tag", part)
    got = derive_seeds(3, "tag", part)
    assert got.tolist() == [derive_seed(3, "tag", v) for v in part.tolist()]
    draws = [rng.random(2).tobytes() for rng in substreams(3, "tag", part)]
    assert draws == [substream(3, "tag", v).random(2).tobytes() for v in part.tolist()]


@pytest.mark.parametrize(
    "part", [np.full(16, 1.0), np.ones(16, dtype=bool)], ids=["float", "bool"]
)
def test_non_integer_array_part_is_an_invalid_argument(part):
    with pytest.raises(InvalidArgumentError, match="seed or key part must be an integer"):
        derive_seeds(3, "tag", part)
    with pytest.raises(InvalidArgumentError, match="seed or key part must be an integer"):
        next(substreams(part, "tag"))


def test_empty_batch():
    assert derive_seeds(3, np.arange(0)).shape == (0,)
    assert list(substreams(3, "tag", np.arange(0))) == []
    assert keyed_laplace_stack(np.zeros((0, 2), dtype=np.uint32), "t", 3, 1.0).shape == (0, 2, 3)


def _stack_call(stack: str, width: int, seeds: list[int]):
    """One release stack of one table under `width` epsilons, with the row of seeds given."""
    graph = BayesNetGraph.from_parent_lists([[], [0]])
    data = Dataset.from_records([(0, 1), (1, 1), (1, 0)])
    epsilons = (1.0, 2.0)[:width]
    if stack == "laplace":
        specs = [laplace.LaplaceNoiseSpec.for_graph(graph, eps, data.n) for eps in epsilons]
        return laplace.perturb_update_stack((compute_updates(graph, data),), specs, (seeds,))
    if stack == "fourier-coefficients":
        closure = fourier.downward_closure(graph)
        return fourier.release_coefficient_stack((data,), closure, epsilons, 1.0, (seeds,))
    priors = uniform_priors(graph)
    return fourier.release_posterior_stack((data,), graph, priors, epsilons, 1.0, (seeds,))


@pytest.mark.parametrize("seeds", [[], [1], [1, 2, 3]], ids=["empty", "short", "long"])
@pytest.mark.parametrize("stack", ["laplace", "fourier-coefficients", "fourier-posteriors"])
def test_every_release_stack_needs_one_seed_per_table_and_epsilon(stack, seeds):
    width = 2 if seeds else 0
    _stack_call(stack, 2, [1, 2])
    message = rf"^need one seed per \(table, epsilon\) pair: a 1 x {width} grid, got shape"
    with pytest.raises(DimensionMismatchError, match=message):
        _stack_call(stack, width, seeds)
