"""Deterministic RNG derivation.

Every stochastic operation takes an explicit seed; nested work derives
child generators from (seed, tag...) tuples so that runs are bit
reproducible and batches can be rebuilt in isolation for replay.
"""

from __future__ import annotations

import numpy as np

_TAG_CODES = {}


def _encode(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    # stable small-int code per string tag, derived from its bytes
    code = _TAG_CODES.get(tag)
    if code is None:
        acc = 2166136261
        for b in str(tag).encode("utf-8"):
            acc = ((acc ^ b) * 16777619) & 0xFFFFFFFF
        code = acc
        _TAG_CODES[tag] = code
    return code


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Child generator for (seed, *tags); identical inputs give identical streams."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(_encode(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seeds(seed: int, n: int, *tags) -> list:
    """n deterministic child seeds for (seed, *tags), for APIs that take a
    plain integer seed: the first n words of one SeedSequence's state.
    The state stream does not depend on n, so the first seed is
    derive_seed(seed, *tags) and a longer list extends a shorter one."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(_encode(t) for t in tags)
    return np.random.SeedSequence(entropy).generate_state(n, dtype=np.uint64).tolist()


def derive_seed(seed: int, *tags) -> int:
    """Deterministic child seed for APIs that take a plain integer seed."""
    return derive_seeds(seed, 1, *tags)[0]
