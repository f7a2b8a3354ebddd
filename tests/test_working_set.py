"""The samplers' working set: one call's memory beyond the draws it returns.

A row longer than a pass is drawn in ``seeding.pass_slices``' equal slices,
and each chunk computes its pointers and draws over buffers it already holds,
so a call's traced peak, less the returned array, stays under five
pass-long 8-byte arrays at any t.
"""

import tracemalloc

import pytest

from conftest import Recording
from polyagraph.graphs import ba_block_draws
from polyagraph.schedules import NaturalLog
from polyagraph.seeding import PASS, Stream, pass_slices
from polyagraph.urn import GuideTable, copy_pointer_draws

BOUND = 5 * PASS * 8

# A full t=12 block of the engine, a row one draw past a pass, and a row
# of four slices, whose later chunks point into earlier ones.
CASES = [(PASS // 12, 12), (1, PASS + 1), (1, 3 * PASS + 1)]


def _samplers(m, t):
    table = GuideTable(NaturalLog().cumulative(t))
    return {"urn": lambda rng: copy_pointer_draws(m, table, rng),
            "ba": lambda rng: ba_block_draws(m, t, rng)}


def _peak_beyond_result(call):
    """The traced peak of ``call()`` above its start, less the array it returns."""
    call()  # a first call outside the trace, so nothing lazily built is counted
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start - result.nbytes


@pytest.mark.parametrize("sampler", ["urn", "ba"])
@pytest.mark.parametrize("m, t", CASES, ids=str)
def test_peak_beyond_the_draws_is_under_five_passes(sampler, m, t):
    sample = _samplers(m, t)[sampler]
    assert _peak_beyond_result(lambda: sample(Stream(1))) < BOUND


@pytest.mark.parametrize("sampler", ["urn", "ba"])
@pytest.mark.parametrize("t", [PASS + 1, 5000, 3 * PASS + 1])
def test_a_row_past_a_pass_is_read_in_equal_slices(sampler, t):
    rng = Recording(Stream(2))
    assert _samplers(1, t)[sampler](rng).shape == (1, t)
    assert rng.sizes == [stop - start for start, stop in pass_slices(t)]
