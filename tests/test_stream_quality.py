"""A statistical battery for the package's uniform stream.

Four classical tests (Knuth, TAOCP vol. 2, §3.3.2), each a χ² test of
counts against their law under independent uniforms:

- equidistribution: the doubles in 2¹⁶ equal bins;
- serial pairs: non-overlapping pairs of doubles in 2⁸×2⁸ equal cells;
- gap: the number of doubles between successive doubles in [1/2, 5/8),
  geometric under the null, in classes 0..62 and ≥ 63;
- runs up: the length of the ascending run that starts each block of 8
  doubles (blocks do not overlap, so lengths are independent), in classes
  1..6 and ≥ 7; a run reaches length r with chance 1/r!.

Each case feeds ``N`` doubles through all four tests in one pass, ``CHUNK``
at a time.  Besides single seeds, it interleaves the streams of adjacent
seeds and of ``replicate_generator``'s (master, 0) and (master, 1), one
double from each in turn, so a correlation between related seeds' streams
shows in the serial, gap and runs counts.  A p-value outside
[``ALPHA``, 1 − ``ALPHA``] fails: too poor a fit, or one too good.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from polyagraph.seeding import as_generator, replicate_generator

N = 2**24
CHUNK = 2**20
ALPHA = 1e-6

_GAP = (0.5, 0.625)
_GAP_CLASSES = 64
_RUN_BLOCK = 8
_RUN_CLASSES = 7


def interleaved(streams, n):
    """n doubles, ``CHUNK`` at a time: one double from each stream in turn."""
    for _ in range(n // CHUNK):
        yield np.stack([rng.random(CHUNK // len(streams)) for rng in streams], axis=1).ravel()


def _p(observed, expected):
    observed = observed.astype(np.float64)
    return float(chi2.sf(np.sum((observed - expected) ** 2 / expected), len(observed) - 1))


def p_values(chunks):
    """The four tests' p-values over the doubles of ``chunks``, by test name."""
    bins = np.zeros(2**16, dtype=np.int64)
    cells = np.zeros(2**16, dtype=np.int64)
    gaps = np.zeros(_GAP_CLASSES, dtype=np.int64)
    runs = np.zeros(_RUN_CLASSES, dtype=np.int64)
    n, last = 0, None
    for u in chunks:
        bins += np.bincount((u * 2**16).astype(np.int64), minlength=2**16)
        pairs = (u * 2**8).astype(np.int64).reshape(-1, 2)
        cells += np.bincount(pairs[:, 0] << 8 | pairs[:, 1], minlength=2**16)
        hits = n + np.flatnonzero((u >= _GAP[0]) & (u < _GAP[1]))
        lengths = np.diff(hits) - 1 if last is None else np.diff(hits, prepend=last) - 1
        gaps += np.bincount(np.minimum(lengths, _GAP_CLASSES - 1), minlength=_GAP_CLASSES)
        last = hits[-1] if len(hits) else last
        up = np.diff(u.reshape(-1, _RUN_BLOCK), axis=1) > 0
        lengths = np.cumprod(up, axis=1).sum(axis=1)  # the run's length less one
        runs += np.bincount(np.minimum(lengths, _RUN_CLASSES - 1), minlength=_RUN_CLASSES)
        n += len(u)
    p = _GAP[1] - _GAP[0]
    gap_law = p * (1 - p) ** np.arange(_GAP_CLASSES, dtype=np.float64)
    gap_law[-1] = (1 - p) ** (_GAP_CLASSES - 1)
    at_least = np.array([1 / math.factorial(r) for r in range(1, _RUN_CLASSES + 2)])
    run_law = at_least[:-1] - at_least[1:]
    run_law[-1] = at_least[-2]
    return {
        "equidistribution": _p(bins, n / 2**16),
        "serial pairs": _p(cells, n / 2 / 2**16),
        "gap": _p(gaps, gaps.sum() * gap_law),
        "runs up": _p(runs, runs.sum() * run_law),
    }


CASES = {
    "seed 0": lambda: [as_generator(0)],
    "seed 918273": lambda: [as_generator(918273)],
    "adjacent seeds 918273, 918274": lambda: [as_generator(918273), as_generator(918274)],
    "replicates (80001, 0), (80001, 1)": lambda: [replicate_generator(80_001, 0),
                                                   replicate_generator(80_001, 1)],
}


@pytest.mark.parametrize("case", CASES)
def test_battery(case):
    found = p_values(interleaved(CASES[case](), N))
    assert all(ALPHA <= p <= 1 - ALPHA for p in found.values()), found
