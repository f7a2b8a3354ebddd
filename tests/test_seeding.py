import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyagraph
from conftest import stream_at
from polyagraph.experiments import _replicate_blocks, draw_count_histogram
from polyagraph.schedules import parse_schedule
from polyagraph.seeding import (
    PASS,
    Stream,
    _jump_tables,
    as_generator,
    replicate_generator,
    replicate_stream,
)

# 2³²−1 and 2³² straddle the one-to-two-word split of the SeedSequence
# entropy; 2⁶⁴+5 is three words and 2²⁰⁰+3 is seven.
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3, 918273]
# One row; past 4096 rows; a range not starting at 0; and across r = 2³².
RANGES = [(0, 1), (0, 4097), (4095, 8200), (2**32 - 2, 2**32 + 2)]


def _lcg(rng):
    """The LCG state and increment of a ``Stream`` or of a numpy PCG64 ``Generator``.

    The two decide every later double.
    """
    if isinstance(rng, Stream):
        return rng.state, rng.inc
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def _numpy_stream(entropy):
    """The reference: numpy's generator for seed contract 3's stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class TestStreamMatchesNumpy:
    # The words SeedSequence hashes: one, at the one-to-two-word split, three
    # and seven; a numpy integer; and the (master seed, index) tuples of
    # replicate_generator, the second with a two-word index.
    ENTROPIES = [*MASTER_SEEDS, np.int64(7), (918273, 0), (918273, 2**40)]
    # Empty, one, around one and two vector passes of PASS doubles, a t=12
    # block of the engine and a t=5000 row.
    SIZES = [0, 1, PASS - 1, PASS, PASS + 1, 2 * PASS - 1, 2 * PASS, 2 * PASS + 1, (341, 12),
             (1, 5000)]

    @pytest.mark.parametrize("size", SIZES, ids=str)
    @pytest.mark.parametrize("entropy", ENTROPIES, ids=repr)
    def test_doubles_and_jumps(self, entropy, size):
        stream, reference = Stream(entropy), _numpy_stream(entropy)
        assert _lcg(stream) == _lcg(reference)
        for steps in (0, 1, 2**64 + 3):
            drawn = stream.random(size)
            assert drawn.dtype == np.float64
            assert np.array_equal(drawn, reference.random(size))
            assert stream.advance(steps) is stream
            reference.bit_generator.advance(steps)
            assert _lcg(stream) == _lcg(reference)
        assert np.array_equal(stream.random(size), reference.random(size))

    def test_jump_tables_and_offsets_are_one_pass_long(self):
        stream = Stream(5)
        stream.random(3 * PASS + 7)  # four passes, the last short
        powers, sums = _jump_tables()
        assert powers.shape == sums.shape == stream._offsets.shape == (2, PASS)

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (-(2**70), ValueError), (-1.5, ValueError),
        (1.5, TypeError), (np.float64(2.0), TypeError), (None, TypeError), ("5", TypeError),
    ], ids=repr)
    def test_bad_seed_raises_as_before(self, seed, error):
        # The exception types of the numpy-backed as_generator, which refused a
        # negative seed itself and left SeedSequence to refuse other non-integers.
        with pytest.raises(error):
            as_generator(seed)
        with pytest.raises(error):
            replicate_stream(seed, 5, 0)

    def test_generators_pass_through(self):
        stream, reference = Stream(3), _numpy_stream(3)
        assert as_generator(stream) is stream
        assert as_generator(reference) is reference


class TestReplicateGenerators:
    @pytest.mark.parametrize("lo,hi", RANGES)
    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_equals_one_at_a_time_rule(self, seed, lo, hi):
        # A range's rows, drawn in one call from the stream advanced to lo,
        # equal each replicate's draws r·t … (r+1)·t−1 taken on their own.
        t = 7
        rng = replicate_stream(seed, t, lo)
        rows = rng.random((hi - lo, t))
        for r, row in zip(range(lo, hi), rows):
            assert np.array_equal(row, stream_at(seed, r * t).random(t)), r
        assert _lcg(rng) == _lcg(stream_at(seed, hi * t))

    def test_empty_range(self):
        schedule = parse_schedule("const:1")
        for model in ("polya", "ba"):
            assert list(_replicate_blocks(model, 3, schedule, 5, 3, 3)) == []

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_reference_jump_matches_contiguous_stream(self, seed):
        # Check the LCG reference against plain consumption of the stream.
        whole = as_generator(seed).random(4097 * 3 + 5)
        for steps in (0, 1, 12, 4097, 4097 * 3):
            assert np.array_equal(stream_at(seed, steps).random(5), whole[steps : steps + 5])

    @pytest.mark.parametrize("first", [1, 341, 2**32 + 3])
    @pytest.mark.parametrize("t", [0, 12])
    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_starts_at_replicate_first(self, seed, t, first):
        rng = replicate_stream(seed, t, first)
        assert _lcg(rng) == _lcg(stream_at(seed, first * t))

    # A negative seed or start must fail at the call with the engine's own
    # message, for every caller ExperimentConfig's check does not cover.
    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            replicate_stream(seed, 5, 0)
        with pytest.raises(ValueError):
            replicate_generator(seed, 0)

    def test_negative_start(self):
        with pytest.raises(ValueError, match="replicate index must be >= 0, got -1"):
            replicate_stream(5, 3, -1)

    def test_draw_count_histogram_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            draw_count_histogram(1, 5, parse_schedule("const:1"), 3, -1)


def test_cli_import_leaves_numpy_random_unloaded():
    # Loading numpy.random costs start-up time and ~6 MB of resident memory
    # in every CLI process; it must wait until a generator is needed.
    src = str(Path(polyagraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, polyagraph.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_the_process_pool_unloaded():
    # Loading the pool costs ~1 MB of resident memory in every CLI process;
    # generate, exact and --threads 1 never use it.
    src = str(Path(polyagraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, polyagraph.cli; sys.exit(any(m in sys.modules for m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
