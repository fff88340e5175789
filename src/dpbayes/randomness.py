"""Keyed, splittable random substreams.

Noise draws are keyed by content (entry index, basis index, repeat
number, ...) rather than by call order, so results do not depend on
iteration or thread order. The stream of (seed, *key) is numpy's PCG64
seeded by the SeedSequence whose entropy is the parts' 32-bit words, in
order: a string tag is one word, its crc32; an integer is reduced mod
2^64 and gives its low word, then its high word if that is non-zero (0
is the one word 0).

substream and derive_seed hand numpy that word array for one key.
derive_seeds and substreams are their batch form: any part may be a
numpy array, the arrays broadcast, and each row of the broadcast shape
is one key. The route follows the key layout alone. A batch of more
than one row whose array parts all hold integers in [0, 2^32), one word
per row each, shares one word layout: SeedSequence's mix_entropy and
generate_state and PCG64's seeding (pcg_setseq_128_srandom_r) then run
as uint32 array code over every row at once, and each row's stream is
one reused PCG64 whose state is set. Any other batch (one row, an
integer outside [0, 2^32), an object array of Python ints) goes key by
key through numpy, as derive_seed and substream do. Both routes give
the same bits: the array code relies on numpy keeping the SeedSequence
and PCG64 seeding streams stable (NEP 19), and tests/test_randomness.py
compares the two, so a change in either shows there.
keyed_laplace_stack is a release stack's one Laplace draw; seed_grid checks its seeds.
"""
from __future__ import annotations

import functools
import math
import zlib
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, check_integer, check_nonnegative

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(part: int | str) -> list[int]:
    """The 32-bit entropy words of one seed or key part."""
    if isinstance(part, str):
        return [zlib.crc32(part.encode("utf-8"))]
    value = check_integer("seed or key part", part) & _MASK64
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def _entropy(parts: tuple) -> np.ndarray:
    return np.array([w for part in parts for w in _words(part)], dtype=np.uint32)


def substream(seed: int, *key: int | str) -> np.random.Generator:
    """Generator for the substream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(_entropy((seed, *key))))


def derive_seed(seed: int, *key: int | str) -> int:
    """Stable 32-bit child seed for (seed, *key): the first word of its SeedSequence state."""
    return int(np.random.SeedSequence(_entropy((seed, *key))).generate_state(1, np.uint32)[0])


@functools.lru_cache(maxsize=None)
def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of count successive hash steps: each constant before and after."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


@functools.lru_cache(maxsize=None)
def _entropy_steps(width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """mix_entropy's hash constants on width words, grouped into its array steps.

    numpy hashes one word at a time. The steps that read one word and
    update the others are independent, so each group below is one array
    step with a constant per pool word: the fill, then each pool word
    mixed into the other three (its own row a dummy that is not kept),
    then each word past the pool mixed into all four.
    """
    xor, mult = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, width))
    groups = [list(range(_POOL_SIZE))]
    for src in range(_POOL_SIZE):
        first = _POOL_SIZE + (_POOL_SIZE - 1) * src
        groups.append([first + d - (d > src) if d != src else first for d in range(_POOL_SIZE)])
    groups += [list(range(_POOL_SIZE * w, _POOL_SIZE * (w + 1))) for w in range(_POOL_SIZE, width)]
    return [(xor[group], mult[group]) for group in groups]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _SHIFT)


def _state_words(words: np.ndarray, count: int) -> np.ndarray:
    """SeedSequence(column).generate_state(count, uint32) of each column of a (W, rows) word array.

    Returns a (count, rows) uint32 array. Every product wraps mod 2^32
    inside an array.
    """
    width, rows = words.shape
    fill, *steps = _entropy_steps(width)
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:width] = words[:_POOL_SIZE]
    pool = _hash(pool, *fill)
    for src, (xor, mult) in enumerate(steps):
        if src < _POOL_SIZE:
            pool, old = _mix(pool, _hash(pool[src], xor, mult)), pool
            pool[src] = old[src]
        else:
            pool = _mix(pool, _hash(words[src], xor, mult))
    return _hash(pool[np.arange(count) % _POOL_SIZE], *_hash_steps(_INIT_B, _MULT_B, count))


def _layout(parts: tuple) -> tuple[tuple[int, ...], np.ndarray | Iterator[tuple]]:
    """The broadcast shape of a batch, and the batch in the form of its route.

    A batch of more than one row whose array parts are all integers in
    [0, 2^32) is its (W, rows) uint32 word array; any other batch is an
    iterator over its rows' keys, in flat order.
    """
    arrays = [part for part in parts if isinstance(part, np.ndarray)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = math.prod(shape)
    if rows > 1 and all(
        a.dtype.kind in "iu" and a.min() >= 0 and a.max() <= _MASK32 for a in arrays
    ):
        words = [w for p in parts for w in ([p] if isinstance(p, np.ndarray) else _words(p))]
        return shape, np.array([np.broadcast_to(w, shape).ravel() for w in words], dtype=np.uint32)
    return shape, zip(*(
        np.broadcast_to(p, shape).ravel().tolist() if isinstance(p, np.ndarray) else [p] * rows
        for p in parts
    ))


def derive_seeds(seed: int | np.ndarray, *key: int | str | np.ndarray) -> np.ndarray:
    """derive_seed of every row of a batch: a uint32 array of the parts' broadcast shape.

    Any part may be a numpy array; the arrays broadcast together, and
    each entry is that row's part. Equal to derive_seed row by row.
    """
    shape, batch = _layout((seed, *key))
    if isinstance(batch, np.ndarray):
        return _state_words(batch, 1).reshape(shape)
    return np.array([derive_seed(*row) for row in batch], dtype=np.uint32).reshape(shape)


def seed_array(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """seeds as an array: an ndarray as it is, anything else as an object array of its ints.

    A list of Python ints goes through object dtype so that no seed is
    rounded or reduced on the way in.
    """
    return seeds if isinstance(seeds, np.ndarray) else np.array(seeds, dtype=object)


def seed_grid(seeds: Sequence[Sequence[int]] | np.ndarray, rows: int, cols: int) -> np.ndarray:
    """seed_array(seeds), once it is a non-empty (rows, cols) grid: a seed per (table, epsilon)."""
    seeds = seed_array(seeds)
    if not rows or not cols or seeds.shape != (rows, cols):
        grid = f"a {rows} x {cols} grid, got shape {seeds.shape}"
        raise DimensionMismatchError(f"need one seed per (table, epsilon) pair: {grid}")
    return seeds


def substreams(
    seed: int | np.ndarray, *key: int | str | np.ndarray
) -> Iterator[np.random.Generator]:
    """substream of every row of a batch, in the flat order of the parts' broadcast shape.

    The parts broadcast as in derive_seeds. The one-word layout reuses
    one Generator, whose state is set for each row: use each yielded
    stream before asking for the next.
    """
    _, batch = _layout((seed, *key))
    if not isinstance(batch, np.ndarray):
        for row in batch:
            yield substream(*row)
        return
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    # generate_state(4, uint64): words (2j, 2j+1) form the j-th uint64, little-endian
    state_words = _state_words(batch, 8).astype(np.uint64)
    seed_words = state_words[0::2] | state_words[1::2] << np.uint64(32)
    # pcg_setseq_128_srandom_r takes the first two as the state, the last two as the stream
    for high, low, inc_high, inc_low in seed_words.T.tolist():
        pcg["inc"] = inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = state
        yield rng


def laplace_from_uniform(u: np.ndarray, scale: float | np.ndarray) -> np.ndarray:
    """Inverse-CDF Laplace draw from one uniform per coordinate of the array u.

    scale is one Laplace scale, or an array of them that broadcasts
    against u, such as one per row of a stack of releases. A coordinate's
    draw depends only on its uniform and its scale. scale == 0 is allowed
    and yields exactly zero noise.
    """
    for value in np.ravel(scale).tolist():
        check_nonnegative("scale", value)
    # u == 0.0 would map to -inf; it sits one ulp away from a legal draw.
    centered = np.where(u == 0.0, 2.0**-53, u) - 0.5
    # an overflow is a draw beyond the double range, which rounds to +-inf
    with np.errstate(over="ignore"):
        return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def keyed_laplace_stack(
    seeds: Sequence[int] | np.ndarray,
    tag: str,
    shape: int | tuple[int, ...],
    scales: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Laplace noise of shape seeds.shape + shape, one block per seed.

    The block of seed s is substream(s, tag).random(shape), bit for bit,
    as Laplace noise of its scale; scales broadcast against the seeds'
    shape, one per seed.
    """
    seeds = seed_array(seeds)
    block = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    u = np.empty(seeds.shape + block)
    for row, rng in zip(u.reshape((seeds.size,) + block), substreams(seeds, tag)):
        rng.random(out=row)
    scales = np.asarray(scales, dtype=np.float64)
    return laplace_from_uniform(u, scales.reshape(scales.shape + (1,) * len(block)))
