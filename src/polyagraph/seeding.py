"""Randomness plumbing: one frozen, documented seeding contract.

Every stochastic operation takes either an integer seed or a ready
``numpy.random.Generator``.  A replicated run with master seed s draws from
one stream, ``as_generator(s)``, and replicate r of a length-t run takes
draws r·t … (r+1)·t−1 of it.  ``replicate_stream`` positions that stream at
any replicate with PCG64's ``advance``, so each worker range starts from
its own first replicate, and results do not depend on how replicates are
scheduled onto workers.
"""

from __future__ import annotations

import numpy as np

SEED_CONTRACT = 3
"""Version of the map from a seed to sampled histories, recorded in summary.json.

Contract 1 inverted each draw's cumulative mass through a binary-indexed
(Fenwick) tree.  Contract 2 is the copy-pointer inversion of
``urn.copy_pointer_draws``: still one uniform per step, drawn in a single
``rng.random(t)`` call per replicate from the generator seeded by
``SeedSequence((master_seed, r))``, but mapped to colors differently, so the
same seed gives a different history.  Contract 3 keeps that map and draws
every replicate's uniforms from the one stream of the master seed:
replicate r takes draws r·t … (r+1)·t−1.  Bump it whenever the map from a
seed to histories changes.
"""


def as_generator(seed) -> np.random.Generator:
    """Return a PCG64 generator for a seed >= 0; pass through a Generator unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def replicate_stream(master_seed: int, t: int, first: int) -> np.random.Generator:
    """The run's stream ``as_generator(master_seed)``, advanced to replicate ``first``.

    Its next draw is draw first·t of the stream, the first uniform of
    replicate ``first`` in a length-t run; ``random`` takes one 64-bit step
    per double, so advancing by first·t steps skips exactly the earlier
    replicates.

    Raises ValueError for a negative ``master_seed`` or ``first``.
    """
    rng = as_generator(master_seed)
    if first < 0:
        raise ValueError(f"replicate index must be >= 0, got {first}")
    rng.bit_generator.advance(first * t)
    return rng


def replicate_generator(master_seed: int, index: int) -> np.random.Generator:
    """A generator for sampling one history on its own, seeded by ``(master_seed, index)``.

    Acceptance checks 08 and 09, which loop over single histories, and
    ``perfbench``'s probe use it.  It is not the Monte Carlo engine's rule, which is
    ``replicate_stream``.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, index)))
    )
