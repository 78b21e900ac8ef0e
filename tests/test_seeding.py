"""The batched seed derivation against numpy's SeedSequence, its reference:
the derived seeds of the experiment keys and the PCG64 state words of those
seeds, on 10^5 keys, and the generators started from the words."""

import numpy as np
import pytest

from spherecon.seeding import derive_seed, derive_seeds, generator, generator_words

# 0, the largest one-word seed, the smallest two-word one, a three-word one,
# and one whose entropy (five words and the key) outruns the four-word pool
MASTER_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7]
TRIALS = 5000
PLANNING_KEYS = [(0xABCD,), (0xF00D,), (0xE5C,)]


def _reference_seed(master_seed, *key):
    state = np.random.SeedSequence([master_seed, *key]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_derived_seeds_and_state_words_match_seed_sequence(master_seed):
    # the record seed (t) and the draw seeds (t, 1), (t, 2), (t, 3) of
    # trials 0..TRIALS-1: 4 * 5000 keys per master seed, 10^5 in all
    t = np.arange(TRIALS)
    keys = [t[:, None]] + [np.column_stack([t, np.full(TRIALS, s)]) for s in (1, 2, 3)]
    for key in keys:
        seeds = derive_seeds(master_seed, key)
        want = [_reference_seed(master_seed, *map(int, k)) for k in key]
        assert seeds.dtype == np.uint64 and seeds.tolist() == want
        words = generator_words(seeds)
        assert np.array_equal(words, [np.random.SeedSequence(s).generate_state(4, np.uint64)
                                      for s in want])
    for key in PLANNING_KEYS + [(0,), (0, 1), (7, 2**40)]:
        assert derive_seed(master_seed, *key) == _reference_seed(master_seed, *key)
        if max(key) < 2**32:
            assert derive_seeds(master_seed, [key]).tolist() == [derive_seed(master_seed, *key)]


def test_state_words_of_short_seeds_and_generators():
    # seeds below 2**32 have one entropy word; the words start the stream
    # np.random.default_rng(seed) gives
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(1, 0, 3)]
    words = generator_words(np.array(seeds, dtype=np.uint64))
    for seed, w in zip(seeds, words):
        assert np.array_equal(w, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        rng, ref = generator(w), np.random.default_rng(seed)
        assert rng.random(5).tobytes() == ref.random(5).tobytes()
        assert rng.standard_normal((3, 2)).tobytes() == ref.standard_normal((3, 2)).tobytes()
        assert np.random.default_rng(rng) is rng


def test_keys_out_of_range_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(-3, 1)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        derive_seeds(1, [[2**32]])
