"""Keyed, splittable random substreams.

Noise draws are keyed by content (entry index, basis index, repeat
number, ...) rather than by call order, so results do not depend on
iteration or thread order. String tags are folded to integers with
crc32; everything below is a thin wrapper over numpy's SeedSequence.
keyed_laplace_stack is the one keyed Laplace draw of a release stack.
"""
from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from .errors import check_integer, check_nonnegative

_MASK64 = (1 << 64) - 1


def _fold(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return check_integer("seed or key part", part) & _MASK64


def substream(seed: int, *key: int | str) -> np.random.Generator:
    """Generator for the substream identified by (seed, *key)."""
    entropy = [_fold(seed)] + [_fold(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *key: int | str) -> int:
    """Stable 32-bit child seed for (seed, *key): the first word of its SeedSequence state."""
    entropy = [_fold(seed)] + [_fold(k) for k in key]
    return int(np.random.SeedSequence(entropy).generate_state(2, np.uint32)[0])


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
    seeds: Sequence[int], tag: str, shape: int | tuple[int, ...], scales: Sequence[float]
) -> np.ndarray:
    """Row e is one block of uniforms from substream(seeds[e], tag), as Laplace(scales[e]) noise."""
    u = np.stack([substream(seed, tag).random(shape) for seed in seeds])
    return laplace_from_uniform(u, np.reshape(scales, (-1,) + (1,) * (u.ndim - 1)))
