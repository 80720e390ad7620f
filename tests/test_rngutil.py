"""Random streams: derive_seed's output is pinned, rng_for's aliasing is
as its docstring says, and the spawned slot streams of an iteration differ
from each other and from the iteration's own stream."""

import numpy as np

from pixpoint.rngutil import derive_seed, rng_for


def draws(rng):
    return rng.integers(0, 2**63, size=4).tolist()


def test_derive_seed_is_the_first_word_of_its_seed_sequence():
    # integer tags enter the entropy as they are, so replayed runs keep their seeds
    want = np.random.SeedSequence((7, 1, 2, 3)).generate_state(1, dtype=np.uint64)[0]
    assert derive_seed(7, 1, 2, 3) == int(want)
    assert isinstance(derive_seed(7, 1, 2, 3), int)


def test_rng_for_aliases_as_documented():
    assert draws(rng_for(5 + (7 << 32), 3)) == draws(rng_for(5, 7, 3))
    assert draws(rng_for(5, "stage1", 3, 0)) == draws(rng_for(5, "stage1", 3))
    assert draws(rng_for(5, "stage1", 3).spawn(3)[2]) == draws(rng_for(5, "stage1", 3, 0, 2))
    # past four words a trailing 0 is entropy
    assert draws(rng_for(5, "stage1", 3, 0, 0)) != draws(rng_for(5, "stage1", 3))


def test_slot_streams_differ_from_each_other_and_from_the_iteration():
    for seed, stage, it in ((0, "stage1", 0), (5, "stage2", 3), (2**40 + 1, "stage1", 11)):
        streams = [draws(rng_for(seed, stage, it))]
        streams += [draws(rng) for rng in rng_for(seed, stage, it).spawn(8)]
        assert len({tuple(s) for s in streams}) == 9
        # spawning leaves the parent's own draws where they were
        parent = rng_for(seed, stage, it)
        parent.spawn(8)
        assert draws(parent) == streams[0]
