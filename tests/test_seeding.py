import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyagraph
from polyagraph.experiments import draw_count_histogram
from polyagraph.schedules import parse_schedule
from polyagraph.seeding import replicate_generator, replicate_generators

# 2³²−1 and 2³² straddle the one-to-two-word split of the master seed; 2⁶⁴+5
# is three words and 2²⁰⁰+3 is seven, more than the pool of four holds.
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3, 918273]
# One row; past one chunk of 4096; across a chunk boundary not at its start;
# and across r = 2³², where r's own entropy grows to two words.
RANGES = [(0, 1), (0, 4097), (4095, 8200), (2**32 - 2, 2**32 + 2)]


class TestReplicateGenerators:
    @pytest.mark.parametrize("lo,hi", RANGES)
    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_equals_one_at_a_time_rule(self, seed, lo, hi):
        generators = list(replicate_generators(seed, lo, hi))
        assert len(generators) == hi - lo
        for r, bulk in zip(range(lo, hi), generators):
            reference = replicate_generator(seed, r)
            assert bulk.bit_generator.state == reference.bit_generator.state, r
            assert np.array_equal(bulk.random(7), reference.random(7)), r

    def test_empty_range(self):
        assert list(replicate_generators(5, 3, 3)) == []

    # A negative seed has no little-endian word split; it must fail at the
    # call, as SeedSequence does, not loop.
    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            replicate_generators(seed, 0, 1)
        with pytest.raises(ValueError):
            replicate_generator(seed, 0)

    def test_negative_start(self):
        with pytest.raises(ValueError, match="replicate index must be >= 0, got -1"):
            replicate_generators(5, -1, 2)

    @pytest.mark.parametrize("model", ["polya", "ba"])
    def test_draw_count_histogram_negative_seed(self, model):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            draw_count_histogram(1, 5, parse_schedule("const:1"), 3, -1, model=model)


def test_cli_import_leaves_numpy_random_unloaded():
    # Loading numpy.random costs start-up time and ~6 MB of resident memory
    # in every CLI process; it must wait until a generator is needed.
    src = str(Path(polyagraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, polyagraph.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
