"""Randomness plumbing: one frozen, documented seeding contract.

Every stochastic operation takes either an integer seed or a ready
``numpy.random.Generator``.  Replicated experiments derive the generator for
replicate ``r`` from ``SeedSequence((master_seed, r))``, so results are
reproducible across machines and independent of how replicates are scheduled
onto workers.

``replicate_generator`` builds one such generator through numpy.
``replicate_generators`` yields the same generators for a range of
replicates, bit for bit, but derives their seeding words for a whole chunk of
replicates at once: it is numpy's ``SeedSequence`` hash ported to ``uint32``
array arithmetic over the replicate column.  The rule, and so the contract
version, is the same for both.
"""

from __future__ import annotations

import numpy as np

SEED_CONTRACT = 2
"""Version of the map from a seed to sampled histories, recorded in summary.json.

Contract 1 inverted each draw's cumulative mass through a binary-indexed
(Fenwick) tree.  Contract 2 is the copy-pointer inversion of
``urn.copy_pointer_draws``: still one uniform per step, drawn in a single
``rng.random(t)`` call per replicate, but mapped to colors differently, so
the same seed gives a different history.  Bump it whenever that map changes.
"""

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).  The hash
# constant steps the same way whatever the data, so the port is straight-line.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_WORDS = 8  # generate_state(4, uint64): eight uint32 words

# Replicates whose seeding words one vectorised pass derives.  A pass costs
# about the same for 1 row as for a few thousand, so it spans many blocks.
_CHUNK = 4096


def as_generator(seed) -> np.random.Generator:
    """Return a PCG64 generator; pass through an existing Generator unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def replicate_generator(master_seed: int, index: int) -> np.random.Generator:
    """The frozen seed-split rule for replicate `index` of a run."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, index)))
    )


def replicate_generators(master_seed: int, lo: int, hi: int):
    """Return an iterator over the generators of replicates r = lo..hi-1, in order.

    Each generator's bit-generator state, and so every draw, equals that of
    ``replicate_generator(master_seed, r)``; only the ``SeedSequence``
    hashing is shared, one vectorised pass per chunk of replicates
    (r < 2⁶⁴).  The generators are not otherwise the same objects: their
    ``bit_generator.seed_seq`` holds just the derived words, so
    ``Generator.spawn`` and ``seed_seq.spawn`` are not available on them.

    Raises ValueError for a negative ``master_seed`` or ``lo``, as
    ``SeedSequence`` does.
    """
    if master_seed < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed}")
    if lo < 0:
        raise ValueError(f"replicate index must be >= 0, got {lo}")
    return _generators(master_seed, lo, hi)


def _generators(master_seed: int, lo: int, hi: int):
    # Registering on first use keeps numpy.random out of a bare import.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    first = lo
    while first < hi:
        last = min(first + _CHUNK, hi)
        if first < 2**32 < last:
            last = 2**32  # from here on r's entropy is two words
        for words in _pcg64_seed_words(master_seed, first, last):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))
        first = last


class _SeedWords:
    """A seed sequence whose PCG64 seeding words are already derived."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's generate_state(4, uint64) is precomputed")
        return self.words


def _int_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence coerces an int."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, const):
    """numpy's ``hashmix``; ``const`` is its one-element in-out hash constant."""
    value = value ^ const[0]
    const[0] = const[0] * _MULT_A & _MASK32
    value = value * const[0]
    return value ^ (value >> 16)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _pcg64_seed_words(master_seed: int, first: int, last: int) -> np.ndarray:
    """``SeedSequence((master_seed, r)).generate_state(4, uint64)`` for r = first..last-1.

    Row i belongs to replicate first + i.  Every r in the range must have the
    same number of 32-bit words.  All arithmetic is on ``uint32`` arrays,
    which wrap modulo 2³² as numpy's C code does.
    """
    r = np.arange(first, last, dtype=np.uint64)
    entropy = [np.full(len(r), w, dtype=np.uint32) for w in _int_words(master_seed)]
    entropy.append((r & _MASK32).astype(np.uint32))
    if first >= 2**32:
        entropy.append((r >> 32).astype(np.uint32))

    # mix_entropy: fill the pool, cross-mix it, then fold in any extra words.
    const = [_INIT_A]
    zero = np.zeros(len(r), dtype=np.uint32)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, const)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(extra, const))

    # generate_state: cycle the pool through the second hash.
    const = _INIT_B
    state = []
    for i in range(_PCG64_WORDS):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append(value ^ (value >> 16))
    # Pair the words little-endian into uint64, as generate_state does.
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
