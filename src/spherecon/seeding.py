"""Seed derivation for the experiment harness, many keys at a time.

numpy's `SeedSequence` mixes its entropy words into a pool of four uint32
words, then hashes the pool into state words. Both steps multiply by
constants that advance with each hash call but never depend on the data, so
the same steps hash one key in Python ints, or many keys at once in uint32
numpy arrays, bit for bit what `SeedSequence` gives. The harness keys every
draw by (master seed, *key): `derive_seed` gives the 64-bit seed of one key
and `derive_seeds` those of many, `generator_words` the four PCG64 state
words that `np.random.default_rng(seed)` would draw from each seed's
`SeedSequence`, and `generator` a Generator started from such words.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy-mixing hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the state-generating hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list:
    """The little-endian uint32 words of a non-negative int, as
    SeedSequence reads it: [0] for 0."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed keys must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hash: xor with the constant, advance the constant by
    mult, multiply by it and fold the high half down. The constant advances
    with each call, whatever the data."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)
    return hash_


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _seed_state(entropy: list, n_words: int) -> list:
    """`SeedSequence(entropy).generate_state(n_words)` as a list of words,
    with SeedSequence's own steps. The entropy words are all Python ints,
    or all uint32 arrays, each holding that word of many keys: then each
    state word is an array over the keys. The masks make Python ints wrap
    as uint32 does."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = 0 * entropy[0]  # 0, or zeros over the keys
    # the entropy into the pool, a missing word hashed as 0
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):  # every pool word into every other
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:  # entropy beyond the pool, into every word
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_state = _hasher(_INIT_B, _MULT_B)
    return [hash_state(pool[i % _POOL]) for i in range(n_words)]


def derive_seeds(master_seed: int, keys) -> np.ndarray:
    """`derive_seed(master_seed, *key)` for every row of an (N, k) array of
    keys below 2**32, as an (N,) uint64 array."""
    keys = np.asarray(keys)
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("batched seed keys must lie in [0, 2**32)")
    entropy = [np.full(len(keys), w, dtype=np.uint32) for w in _words(master_seed)]
    entropy += list(keys.T.astype(np.uint32))
    high, low = (w.astype(np.uint64) for w in _seed_state(entropy, 2))
    return (high << np.uint64(32)) | low


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit seed from the master seed and a key: the first
    two state words of `SeedSequence([master_seed, *key])`, high word first."""
    high, low = _seed_state([w for value in (master_seed, *key) for w in _words(value)], 2)
    return (high << 32) | low


def generator_words(seeds) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for every 64-bit
    seed: the (N, 4) uint64 words PCG64 starts from. A seed below 2**32
    has one entropy word, not two, but a zero word within the pool hashes
    as the padding does, so [lo, 0] gives the state of [lo]."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    state = np.stack(_seed_state([(seeds & np.uint64(_MASK32)).astype(np.uint32),
                                  (seeds >> np.uint64(32)).astype(np.uint32)], 8), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_words_type() -> type:
    """A seed sequence that hands PCG64 four precomputed state words. It is
    built on first use, so that importing the package leaves numpy.random
    to be imported by the first draw, as numpy itself does."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed state words serve PCG64 only")
            return self.words
    return StateWords


def generator(words: np.ndarray) -> np.random.Generator:
    """The Generator `np.random.default_rng(seed)` returns, from the seed's
    `generator_words` row."""
    return np.random.Generator(np.random.PCG64(_state_words_type()(words)))
