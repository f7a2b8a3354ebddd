"""Randomness plumbing: one frozen, documented seeding contract.

A seed names one stream of uniform doubles, ``Stream(seed)``: double i of
the stream is SplitMix64's finalizer applied to a counter, key + (i+1)·γ
mod 2⁶⁴, where the key is a hash of the seed (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014).  The
double at any position costs the same, so positioning a stream needs no
jump.

Every stochastic operation takes either an integer seed or a ready
generator: a ``Stream``, or anything else whose ``random(size)`` returns
uniforms, such as a numpy ``Generator``.  A replicated run with master seed
s draws from one stream, ``as_generator(s)``, and replicate r of a length-t
run takes draws r·t … (r+1)·t−1 of it.  ``replicate_stream`` positions that
stream at any replicate, so each worker range starts from its own first
replicate, and results do not depend on how replicates are scheduled onto
workers.
"""

from __future__ import annotations

import operator

import numpy as np

SEED_CONTRACT = 4
"""Version of the map from a seed to sampled histories, recorded in summary.json.

Contract 1 inverted each draw's cumulative mass through a binary-indexed
(Fenwick) tree.  Contract 2 is the copy-pointer inversion of
``urn.copy_pointer_draws``: still one uniform per step, drawn in a single
``rng.random(t)`` call per replicate from the PCG64 stream seeded by
``SeedSequence((master_seed, r))``, but mapped to colors differently, so the
same seed gives a different history.  Contract 3 keeps that map and draws
every replicate's uniforms from the one stream of the master seed, numpy's
``Generator(PCG64(SeedSequence(master_seed))).random``: replicate r takes
draws r·t … (r+1)·t−1.

Contract 4 keeps the map from uniforms to colors and the stream positions,
and changes the stream to ``Stream``'s.  Uniform i (0-based) of seed s is
(mix(key(s) + (i+1)·γ mod 2⁶⁴) >> 11)·2⁻⁵³, where mix is SplitMix64's
finalizer and γ = 0x9E3779B97F4A7C15.  key(s) starts at 0 and, for each
64-bit word of the seed in turn, becomes mix(key xor word).  An
integer seed's words are its word count and then its words, least
significant first (0 is one zero word); a tuple's are its item count and
then each item's words.

How a run of doubles is split into ``random`` calls does not change them,
so the samplers' time chunks (``pass_slices``) leave every draw at its
stream position.  Bump the contract whenever the map from a seed to
histories changes.
"""

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

PASS = 4096
"""The package's one vector length: doubles per ``Stream`` pass, draws per sampler chunk, and
entries per slice of the sampler's set-up.

One rule cuts a longer length into passes: ``pass_slices(n)`` splits it into
ceil(n/PASS) equal slices of at most ``PASS``, not ``PASS``-sized slices and
a remainder.  So a row just past a pass, such as the paper's t = 5000, is two
chunks of 2500 draws, and its largest chunk is not a full pass.
``Stream.random`` computes one slice in one vector pass.  The Monte Carlo
engine's blocks hold at most ``PASS`` draws, and ``urn.copy_pointer_draws``
and ``graphs.ba_block_draws`` sample a longer row a slice at a time, so no
sampler asks the stream for more than one pass at once and a pass's
temporaries stay in cache.  ``schedules.Schedule.cumulative`` and
``urn.GuideTable`` build the sampler's set-up a slice at a time, so their
memory beyond the arrays they return is one slice's.  A sampler call
holds, beyond the draws it returns, a few 8-byte arrays of its largest
slice, fewer than five of ``PASS`` entries (160 KiB): traced on ln at
t = 5000, 113 KB for the urn and 109 KB for BA.
"""


def pass_slices(n: int) -> list[tuple[int, int]]:
    """The passes of a length n: ceil(n/PASS) (start, stop) slices of 0..n, in order.

    The slices' lengths differ by at most one, so none is longer than
    ``PASS``; a length of 0 has none.
    """
    k = -(-n // PASS)
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _words(seed) -> list[int]:
    """The 64-bit words that key a seed: see ``SEED_CONTRACT``.

    Raises ValueError for a negative number and TypeError for anything else
    that is not an integer or a tuple of integers.
    """
    if isinstance(seed, tuple):
        return [len(seed), *(word for item in seed for word in _words(operator.index(item)))]
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = operator.index(seed)
    words = [n & _M64]
    while n := n >> 64:
        words.append(n & _M64)
    return [len(words), *words]


_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array, which it returns."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _mix_word(z: int) -> int:
    """``_mix`` on one word, a Python int in 0..2⁶⁴−1."""
    z = (z ^ z >> 30) * _MIX1 & _M64
    z = (z ^ z >> 27) * _MIX2 & _M64
    return z ^ z >> 31


class Stream:
    """The uniform doubles of seed contract 4 for a seed (see ``SEED_CONTRACT``).

    ``seed`` is an integer >= 0 or a tuple of them.  ``random(size)``
    returns the next doubles in an array of that shape and ``advance(steps)``
    skips doubles.  ``key``, the seed's hash, and ``position``, the index of
    the next double, decide every later double.  ``random`` works in the
    passes of ``pass_slices``; each call continues where the last one
    stopped.
    """

    __slots__ = ("key", "position")

    def __init__(self, seed):
        self.key = 0
        for word in _words(seed):
            self.key = _mix_word(self.key ^ word)
        self.position = 0

    def advance(self, steps: int) -> Stream:
        """Skip ``steps`` doubles and return the stream."""
        self.position += steps
        return self

    def random(self, size) -> np.ndarray:
        """The next doubles in [0, 1), as a float64 array of shape ``size``, filled in C order."""
        out = np.empty(size)
        flat = out.reshape(-1)
        for start, stop in pass_slices(flat.size):
            z = np.arange(stop - start, dtype=np.uint64)
            z *= _GAMMA
            z += (self.key + (self.position + 1) * _GAMMA) & _M64
            self.position += len(z)
            _mix(z)
            z >>= 11
            np.multiply(z, 2.0**-53, out=flat[start:stop])
        return out


def as_generator(seed):
    """Return the ``Stream`` of a seed >= 0; pass a generator (anything with ``random``) through unchanged.

    Raises ValueError for a negative seed and TypeError for a seed that is
    not an integer.
    """
    return seed if hasattr(seed, "random") else Stream(seed)


def replicate_stream(master_seed: int, t: int, first: int) -> Stream:
    """The run's stream ``Stream(master_seed)`` at replicate ``first``.

    Its next draw is draw first·t of the stream, the first uniform of
    replicate ``first`` in a length-t run.

    Raises ValueError for a negative ``master_seed`` or ``first``.
    """
    rng = Stream(master_seed)
    if first < 0:
        raise ValueError(f"replicate index must be >= 0, got {first}")
    return rng.advance(first * t)


def replicate_generator(master_seed: int, index: int) -> Stream:
    """A stream for sampling one history on its own, seeded by ``(master_seed, index)``.

    Acceptance check 08, which samples one history, and ``perfbench``'s
    probe use it.  It is not the Monte Carlo engine's rule, which is
    ``replicate_stream``.
    """
    return Stream((master_seed, index))
