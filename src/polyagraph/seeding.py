"""Randomness plumbing: one frozen, documented seeding contract.

A seed names one stream of uniform doubles: the stream numpy gives as
``Generator(PCG64(SeedSequence(seed))).random``, which ``Stream`` computes
itself, bit for bit, so no launch loads numpy's random module.  PCG64 is
O'Neill's XSL-RR 128/64 generator; NumPy's NEP 19 freezes its stream and
``SeedSequence``'s, which is all a ``Stream`` reproduces.  The tests keep
numpy's generator as the reference.

Every stochastic operation takes either an integer seed or a ready
generator: a ``Stream``, or anything else whose ``random(size)`` returns
uniforms, such as a numpy ``Generator``.  A replicated run with master seed
s draws from one stream, ``as_generator(s)``, and replicate r of a length-t
run takes draws r·t … (r+1)·t−1 of it.  ``replicate_stream`` positions that
stream at any replicate with ``Stream.advance``, so each worker range
starts from its own first replicate, and results do not depend on how
replicates are scheduled onto workers.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

SEED_CONTRACT = 3
"""Version of the map from a seed to sampled histories, recorded in summary.json.

Contract 1 inverted each draw's cumulative mass through a binary-indexed
(Fenwick) tree.  Contract 2 is the copy-pointer inversion of
``urn.copy_pointer_draws``: still one uniform per step, drawn in a single
``rng.random(t)`` call per replicate from the PCG64 stream seeded by
``SeedSequence((master_seed, r))``, but mapped to colors differently, so the
same seed gives a different history.  Contract 3 keeps that map and draws
every replicate's uniforms from the one stream of the master seed:
replicate r takes draws r·t … (r+1)·t−1.  ``Stream`` computes that stream
in the package, bit-identical to numpy's, so the contract did not change
when numpy's generator stopped drawing it.  Nor did it change when the
samplers began to read a row longer than ``PASS`` in time chunks: successive
``random`` calls continue the stream, so every draw still takes the uniform
at the same stream position.  Bump it whenever the map from a seed to
histories changes.
"""

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# PCG64's 128-bit LCG multiplier: each double is one step of
# state <- state * a + inc (mod 2**128), then the output of the new state.
_MULT = (2549297995355413924 << 64) + 4865540595714422341

PASS = 4096
"""The package's one vector length: doubles per ``Stream`` pass, draws per sampler chunk, and
entries per slice of the sampler's set-up.

``Stream.random`` computes at most this many doubles in one vector pass,
which is also the length of the per-process jump tables and of each
stream's offsets.  The Monte Carlo engine's blocks hold at most this many
draws, and ``urn.copy_pointer_draws`` and ``graphs.ba_block_draws`` sample
a longer row in time chunks of this many draws, so no sampler asks the
stream for more than one pass at a time and a pass's temporaries stay in
cache.  ``schedules.Schedule.cumulative`` and ``urn.GuideTable`` build the
sampler's set-up a slice of this many entries at a time, so their memory
beyond the arrays they return is one slice's.  A power of two, for the
doubling that builds the tables.
"""


def _entropy_words(entropy) -> list[int]:
    """The entropy as ``SeedSequence`` reads it: 32-bit words, least significant first.

    An integer gives its words (0 gives one zero word); a tuple gives its
    items' words in order.  Raises ValueError for a negative number and
    TypeError for anything else that is not an integer.
    """
    if isinstance(entropy, tuple):
        return [word for part in entropy for word in _entropy_words(part)]
    if entropy < 0:
        raise ValueError(f"seed must be >= 0, got {entropy}")
    n = operator.index(entropy)
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hasher(init: int, mult: int):
    """``SeedSequence``'s hashmix: a function whose every call advances one hash constant."""
    const = init

    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_state(entropy) -> tuple[int, int]:
    """The LCG state and increment of ``PCG64(SeedSequence(entropy))``, in Python ints.

    ``SeedSequence`` hashes the entropy words into a pool of four words,
    mixes every pool word into every other and then any words past the
    fourth into each; its ``generate_state(4, uint64)`` hashes the pool
    twice over into four 64-bit words.  PCG64 takes the first two as the
    initial state and the last two as the stream selector, and steps the
    LCG twice (``srandom``).
    """
    words = _entropy_words(entropy)
    words += [0] * (4 - len(words))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(word) for word in pool + pool]
    seed = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 | 1
    inc &= _M128
    return ((inc + seed) * _MULT + inc) & _M128, inc


def _mul_add(x, y: int, z):
    """x·y + z mod 2¹²⁸, elementwise, as a (high, low) pair of uint64 arrays.

    ``x`` and ``z`` are (high, low) pairs of uint64 words (arrays or ints),
    ``y`` a Python int.  The high word of the low words' product is summed
    from their 32-bit halves, so no partial product exceeds 64 bits.
    """
    (xh, xl), (zh, zl) = x, z
    yh, yl = y >> 64, y & _M64
    y0, y1 = yl & _M32, yl >> 32
    x0, x1 = xl & _M32, xl >> 32
    mid = x0 * y0
    mid >>= 32
    mid += x1 * y0
    cross = x0 * y1
    cross += mid & _M32
    cross >>= 32
    mid >>= 32
    hi = x1 * y1
    hi += mid
    hi += cross
    hi += xh * yl
    hi += xl * yh
    lo = xl * yl
    lo += zl
    hi += zh
    hi += lo < zl
    return hi, lo


@functools.cache
def _jump_tables():
    """(aᵏ, 1 + a + … + aᵏ⁻¹) for k = 1 … ``PASS``, each a (2, PASS) array of (high, low) words.

    k steps take a state s to aᵏ·s + (1 + a + … + aᵏ⁻¹)·inc.  The tables are
    built once per process by doubling: entries h+1 … 2h are the first h
    times aʰ, plus 1 + … + aʰ⁻¹ for the sums.
    """
    powers = np.empty((2, PASS), dtype=np.uint64)
    sums = np.empty((2, PASS), dtype=np.uint64)
    powers[:, 0] = _MULT >> 64, _MULT & _M64
    sums[:, 0] = 0, 1
    h, power, total = 1, _MULT, 1
    while h < PASS:
        powers[:, h : 2 * h] = _mul_add(powers[:, :h], power, (0, 0))
        sums[:, h : 2 * h] = _mul_add(sums[:, :h], power, (total >> 64, total & _M64))
        h, power, total = 2 * h, power * power & _M128, total * (power + 1) & _M128
    return powers, sums


class Stream:
    """The uniform doubles of ``Generator(PCG64(SeedSequence(entropy)))``, bit for bit.

    ``entropy`` is an integer >= 0 or a tuple of them.  ``random(size)``
    returns the next doubles in an array of that shape and ``advance(steps)``
    skips doubles; ``state`` and ``inc`` are the LCG's 128-bit state and
    increment, which decide every later double.  Each double is the XSL-RR
    output of the next LCG state, shifted right by 11 and scaled by 2⁻⁵³.
    ``random`` works in passes of at most ``PASS`` doubles.  The states of a
    pass come from the per-process jump tables in one vector expression,
    aᵏ·s + cₖ with cₖ = (1 + … + aᵏ⁻¹)·inc; the stream computes its cₖ on
    first use.  How a run of doubles is split into ``random`` calls does not
    change them: each call continues where the last one stopped.
    """

    __slots__ = ("state", "inc", "_offsets")

    def __init__(self, entropy):
        self.state, self.inc = _seed_state(entropy)
        self._offsets = np.empty((2, 0), dtype=np.uint64)

    def advance(self, steps: int) -> Stream:
        """Skip ``steps`` doubles (mod 2¹²⁸, as PCG64's ``advance``) and return the stream.

        The LCG step is composed with itself by square-and-multiply, so the
        jump costs O(log steps).
        """
        steps %= 1 << 128
        mult, plus = _MULT, self.inc
        while steps:
            if steps & 1:
                self.state = (self.state * mult + plus) & _M128
            plus = (mult + 1) * plus & _M128
            mult = mult * mult & _M128
            steps >>= 1
        return self

    def random(self, size) -> np.ndarray:
        """The next doubles in [0, 1), as a float64 array of shape ``size``, filled in C order."""
        out = np.empty(size)
        flat = out.reshape(-1)
        for start in range(0, flat.size, PASS):
            hi, lo = self._next_states(min(flat.size - start, PASS))
            # XSL-RR: the high word xor the low, rotated right by the top 6 bits.
            lo ^= hi
            hi >>= 58
            right = lo >> hi
            np.subtract(64, hi, out=hi)
            hi &= 63
            lo <<= hi
            lo |= right
            lo >>= 11
            np.multiply(lo, 2.0**-53, out=flat[start : start + len(lo)])
        return out

    def _next_states(self, m: int):
        """The next m LCG states as (high, low) uint64 arrays; the stream moves past them."""
        powers, sums = _jump_tables()
        if self._offsets.shape[1] < m:
            self._offsets = np.array(_mul_add(sums[:, :m], self.inc, (0, 0)))
        hi, lo = _mul_add(powers[:, :m], self.state, self._offsets[:, :m])
        self.state = int(hi[-1]) << 64 | int(lo[-1])
        return hi, lo


def as_generator(seed):
    """Return the ``Stream`` of a seed >= 0; pass a generator (anything with ``random``) through unchanged.

    Raises ValueError for a negative seed and TypeError for a seed that is
    not an integer.
    """
    return seed if hasattr(seed, "random") else Stream(seed)


def replicate_stream(master_seed: int, t: int, first: int) -> Stream:
    """The run's stream ``Stream(master_seed)``, advanced to replicate ``first``.

    Its next draw is draw first·t of the stream, the first uniform of
    replicate ``first`` in a length-t run; ``random`` takes one 64-bit step
    per double, so advancing by first·t steps skips exactly the earlier
    replicates.

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
