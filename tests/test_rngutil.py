"""Seed derivation: derive_seeds extends derive_seed, whose output is pinned."""

import numpy as np

from pixpoint.rngutil import derive_seed, derive_seeds


def test_derive_seed_is_the_first_word_of_its_seed_sequence():
    # the formula derive_seed had before derive_seeds: integer tags enter
    # the entropy as they are, so replayed runs keep their seeds
    want = np.random.SeedSequence((7, 1, 2, 3)).generate_state(1, dtype=np.uint64)[0]
    assert derive_seed(7, 1, 2, 3) == int(want)
    assert isinstance(derive_seed(7, 1, 2, 3), int)


def test_derive_seeds_extends_derive_seed():
    for tags in ((), ("s1", 4, 2, 0), ("s2aug", 11, 7)):
        three = derive_seeds(5, 3, *tags)
        assert len(three) == 3 and len(set(three)) == 3
        assert three[0] == derive_seed(5, *tags)
        assert derive_seeds(5, 2, *tags) == three[:2]
        assert all(isinstance(s, int) for s in three)
