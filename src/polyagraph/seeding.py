"""Randomness plumbing: one frozen, documented seeding contract.

Every stochastic operation takes either an integer seed or a ready
``numpy.random.Generator``.  Replicated experiments derive the generator for
replicate ``r`` from ``SeedSequence((master_seed, r))``, so results are
reproducible across machines and independent of how replicates are scheduled
onto workers.
"""

from __future__ import annotations

import numpy as np

SEED_CONTRACT = 2
"""Version of the map from a seed to sampled histories, recorded in summary.json.

Contract 1 inverted each draw's cumulative mass through a binary-indexed
(Fenwick) tree.  Contract 2 is the copy-pointer inversion of
``urn.sample_history``: still one uniform per step, drawn in a single
``rng.random(t)`` call, but mapped to colors differently, so the same seed
gives a different history.  Bump it whenever that map changes.
"""


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
