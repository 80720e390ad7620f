"""Deterministic RNG derivation.

Every stochastic operation takes an explicit seed or generator; nested work
derives child generators from (seed, tag...) tuples, or spawns them from
a parent's, so that runs are bit reproducible and batches can be rebuilt
in isolation for replay.
"""

from __future__ import annotations

import numpy as np


def _encode(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    # stable 32-bit code per string tag: FNV-1a of its bytes
    acc = 2166136261
    for b in str(tag).encode("utf-8"):
        acc = ((acc ^ b) * 16777619) & 0xFFFFFFFF
    return acc


def _entropy(seed: int, tags) -> tuple:
    return (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(_encode(t) for t in tags)


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Child generator for (seed, *tags); identical inputs give identical streams.

    The SeedSequence sees the inputs as one run of 32-bit words, so some
    distinct inputs alias. A seed of 2**32 or more takes two words:
    rng_for(5 + (7 << 32), 3) draws what rng_for(5, 7, 3) draws. Entropy
    shorter than four words is padded with zero words, so a trailing 0 tag
    within the four aliases: rng_for(5, "stage1", 3, 0) draws what
    rng_for(5, "stage1", 3) draws. Padding also sits between the entropy
    and a spawn key, so rng_for(5, "stage1", 3).spawn(3)[2] draws what
    rng_for(5, "stage1", 3, 0, 2) draws. No call site in the package
    collides with another or with a spawned slot stream. The encoding
    stays as it is, because it fixes every scene's stream.
    """
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, tags)))


def derive_seed(seed: int, *tags) -> int:
    """Deterministic child seed for APIs that take a plain integer seed:
    the first word of the SeedSequence of (seed, *tags)."""
    state = np.random.SeedSequence(_entropy(seed, tags)).generate_state(1, dtype=np.uint64)
    return int(state[0])
