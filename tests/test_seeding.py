import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyagraph
from conftest import ReferenceStream
from polyagraph.experiments import _replicate_blocks, draw_count_histogram
from polyagraph.schedules import parse_schedule
from polyagraph.seeding import (
    PASS,
    SEED_CONTRACT,
    Stream,
    as_generator,
    pass_slices,
    replicate_generator,
    replicate_stream,
)

# Seeds of one 64-bit word, 2⁶⁴+5 of two and 2²⁰⁰+3 of four.
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3, 918273]
# One row; past 4096 rows; a range not starting at 0; and across r = 2³².
RANGES = [(0, 1), (0, 4097), (4095, 8200), (2**32 - 2, 2**32 + 2)]


def test_seed_contract_fingerprint():
    # The first four doubles of three seeds, one of each kind of key.  Any
    # change to the map from a seed to its uniforms must bump SEED_CONTRACT
    # and re-pin these.
    assert SEED_CONTRACT == 4
    assert {seed: [x.hex() for x in Stream(seed).random(4).tolist()]
            for seed in (0, 2**64 + 5, (80_001, 0))} == {
        0: ["0x1.0606c54beddd8p-2", "0x1.69c646d522698p-4",
            "0x1.2977a36354edcp-2", "0x1.21efdf7ad8bd9p-1"],
        2**64 + 5: ["0x1.c25da080f4ed4p-2", "0x1.3d2d578e3d3f0p-1",
                    "0x1.e74fa088aa992p-1", "0x1.c9b287134c804p-3"],
        (80_001, 0): ["0x1.ca72082be20d7p-1", "0x1.a244d546bd574p-1",
                      "0x1.f87ce513e70d0p-3", "0x1.2b38da911a266p-1"],
    }, f"the seed-to-uniform map changed: bump SEED_CONTRACT (now {SEED_CONTRACT})"


class TestStreamMatchesNumpy:
    """``Stream`` against the scalar reference ``conftest.ReferenceStream``.

    The class keeps the name it had while numpy's PCG64 generator was the
    reference, so its test ids stay stable.
    """

    # Seeds of one to four words, and 2⁶⁴−1 and 2⁶⁴ at the one-to-two-word
    # split; a numpy integer; and the (master seed, index) tuples of
    # replicate_generator, the second with an index past 2³².
    ENTROPIES = [*MASTER_SEEDS, 2**64 - 1, 2**64, np.int64(7), (918273, 0), (918273, 2**40)]
    # Empty, one, around one and two vector passes of PASS doubles, a t=12
    # block of the engine and a t=5000 row.
    SIZES = [0, 1, PASS - 1, PASS, PASS + 1, 2 * PASS - 1, 2 * PASS, 2 * PASS + 1, (341, 12),
             (1, 5000)]

    @pytest.mark.parametrize("size", SIZES, ids=str)
    @pytest.mark.parametrize("entropy", ENTROPIES, ids=repr)
    def test_doubles_and_jumps(self, entropy, size):
        # The last jump carries the counter across 2⁶⁴.
        stream, reference = Stream(entropy), ReferenceStream(entropy, 0)
        for steps in (0, 1, 2**64 + 3):
            drawn = stream.random(size)
            assert drawn.dtype == np.float64
            assert np.array_equal(drawn, reference.random(size))
            assert stream.advance(steps) is stream
            reference.position += steps
        assert np.array_equal(stream.random(size), reference.random(size))

    @pytest.mark.parametrize("seed", [0, 918273, 2**200 + 3, (80_001, 0)], ids=repr)
    def test_key_is_the_reference_fold(self, seed):
        # The key is folded in Python ints, one word at a time.
        key = Stream(seed).key
        assert type(key) is int and key == ReferenceStream(seed, 0).key

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (-(2**70), ValueError), (-1.5, ValueError),
        (1.5, TypeError), (np.float64(2.0), TypeError), (None, TypeError), ("5", TypeError),
        ((1, -1), ValueError), ((1, 1.5), TypeError), ((1, (2,)), TypeError),
    ], ids=repr)
    def test_bad_seed_raises_as_before(self, seed, error):
        # The exception types of the numpy-backed as_generator, which refused a
        # negative seed itself and left SeedSequence to refuse other non-integers.
        with pytest.raises(error):
            as_generator(seed)
        with pytest.raises(error):
            replicate_stream(seed, 5, 0)

    def test_generators_pass_through(self):
        stream, reference = Stream(3), np.random.default_rng(3)
        assert as_generator(stream) is stream
        assert as_generator(reference) is reference


class TestReplicateGenerators:
    @pytest.mark.parametrize("lo,hi", RANGES)
    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_equals_one_at_a_time_rule(self, seed, lo, hi):
        # A range's rows, drawn in one call from the stream at replicate lo,
        # equal each replicate's draws r·t … (r+1)·t−1 taken on their own.
        t = 7
        rng = replicate_stream(seed, t, lo)
        rows = rng.random((hi - lo, t))
        for r, row in zip(range(lo, hi), rows):
            assert np.array_equal(row, ReferenceStream(seed, r * t).random(t)), r
        assert np.array_equal(rng.random(3), ReferenceStream(seed, hi * t).random(3))

    def test_empty_range(self):
        schedule = parse_schedule("const:1")
        for model in ("polya", "ba"):
            assert list(_replicate_blocks(model, 3, schedule, 5, 3, 3)) == []

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_reference_jump_matches_contiguous_stream(self, seed):
        # Check the reference against plain consumption of the stream.
        whole = as_generator(seed).random(4097 * 3 + 5)
        for steps in (0, 1, 12, 4097, 4097 * 3):
            assert np.array_equal(ReferenceStream(seed, steps).random(5),
                                  whole[steps : steps + 5])

    @pytest.mark.parametrize("first", [1, 341, 2**32 + 3])
    @pytest.mark.parametrize("t", [0, 12])
    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_starts_at_replicate_first(self, seed, t, first):
        rng = replicate_stream(seed, t, first)
        assert np.array_equal(rng.random(3), ReferenceStream(seed, first * t).random(3))

    # Past 2³² replicates of t=12, past 2⁶³, and across the 2⁶⁴ counter wrap,
    # each read over a pass edge.
    @pytest.mark.parametrize("position", [0, PASS - 1, PASS + 1, 12 * (2**32 + 3), 2**63 + 5,
                                          2**64 - PASS // 2, 2**64 + 7])
    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_doubles_at_any_position(self, seed, position):
        rng = as_generator(seed).advance(position)
        assert np.array_equal(rng.random(PASS + 2), ReferenceStream(seed, position).random(PASS + 2))

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


@pytest.mark.parametrize("n", [0, 1, 12, PASS - 1, PASS, PASS + 1, 5000, 2 * PASS,
                               3 * PASS + 1, 10**6 + 3])
def test_pass_slices_are_equal_and_cover_the_length(n):
    slices = pass_slices(n)
    assert len(slices) == -(-n // PASS)
    edges = [0, *(stop for _, stop in slices)]
    assert slices == list(zip(edges, edges[1:])) and edges[-1] == n
    lengths = [stop - start for start, stop in slices]
    assert all(0 < length <= PASS for length in lengths)
    assert max(lengths, default=0) - min(lengths, default=0) <= 1


def test_pass_slices_of_the_paper_horizon():
    # t = 5000 is two half passes, not a pass and a 904-draw tail.
    assert pass_slices(5000) == [(0, 2500), (2500, 5000)]
    assert pass_slices(PASS + 1) == [(0, 2048), (2048, PASS + 1)]


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
