"""Named, reproducible RNG substreams.

Every stochastic step in the package (init, shuffling, synthetic sampling,
replacement draws) pulls its own generator from a root seed plus a tag path,
so adding or reordering one consumer never perturbs another.
"""

from __future__ import annotations

import operator
import zlib

import numpy as np

from .errors import InvalidInput


def seed_sequence(seed: int, *tags) -> np.random.SeedSequence:
    """SeedSequence keyed by the root seed and a stable hash of each tag.

    The root seed is one 32-bit key word, so it must be an integer in
    [0, 2**32): a wider seed would alias a narrower one (2**32 would train
    the same model as 0), and InvalidInput is raised instead.
    """
    try:
        root = operator.index(seed)
    except TypeError:
        raise InvalidInput(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= root < 2**32:
        raise InvalidInput(f"seed must be in [0, 2**32), got {root}")
    keys = [root]
    for tag in tags:
        keys.append(zlib.crc32(str(tag).encode("utf-8")))
    return np.random.SeedSequence(keys)


def substream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for the (seed, *tags) stream."""
    return np.random.default_rng(seed_sequence(seed, *tags))
