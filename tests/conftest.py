"""Shared fixtures, a test-local oracle and an in-process CLI runner.

``enumerate_paths`` replays the urn along every possible draw sequence with
plain scalar arithmetic, independently of the library's enumeration and
recurrence code paths, so tests can cross-check any distributional claim at
small horizons.
"""

import collections
import contextlib
import io
import itertools
import math

import numpy as np
import pytest
import scipy.stats

from polyagraph.cli import main as cli_main
from polyagraph.schedules import Constant, NaturalLog, Table, paper_f, paper_g


CliResult = collections.namedtuple("CliResult", "exit_code stdout stderr")


def run_cli(*args) -> CliResult:
    """Run the ``polyagraph`` command line ``args`` in this process.

    Each argument is passed as ``str(arg)``.  Returns the exit code and the
    text written to standard output and to standard error.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([str(arg) for arg in args], standalone_mode=False)
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


def battery_schedules():
    """The schedule battery used across exactness tests."""
    return [
        ("const:0.5", Constant(0.5)),
        ("const:1", Constant(1.0)),
        ("const:2", Constant(2.0)),
        ("ln", NaturalLog()),
        ("paper-f", paper_f()),
    ]


def schedule_kinds(t):
    """One schedule of each kind, covering times 1..t: constant, ln, steps, rational segments, table."""
    return [
        ("const:0.5", Constant(0.5)),
        ("ln", NaturalLog()),
        ("paper-f", paper_f()),
        ("paper-g", paper_g()),
        ("table", Table(tuple((np.arange(t) % 7 / 2).tolist()))),
    ]


@pytest.fixture(name="battery")
def battery_fixture():
    return battery_schedules()


def enumerate_paths(t, schedule):
    """All length-t draw sequences with their probabilities, by direct replay.

    Returns a list of ``(path, probability)`` with 1-based colors.  Only
    usable for small t (the path count is t!).
    """
    assert t >= 1
    deltas = [float(schedule.value(n)) for n in range(1, t + 1)]
    paths = []
    for tail in itertools.product(*[range(1, n + 1) for n in range(2, t + 1)]):
        path = (1, *tail)
        weights = [1.0]
        total = 1.0
        prob = 1.0
        for n, color in enumerate(path, start=1):
            prob *= weights[color - 1] / total
            weights[color - 1] += deltas[n - 1]
            weights.append(1.0)
            total += deltas[n - 1] + 1.0
        paths.append((path, prob))
    return paths


def ba_draws_loop(t, rng):
    """Degree-proportional attachment targets from an explicit endpoint list.

    The scalar reference for ``graphs.ba_draws``: the same ``rng.random(t)``
    uniforms, one Python step per draw, appending both endpoints of each new
    edge to the list that the next step samples from.
    """
    draws = np.empty(t, dtype=np.int64)
    if t == 0:
        return draws
    endpoints = np.empty(2 * t + 1, dtype=np.int64)
    endpoints[0] = 1
    size = 1
    uniforms = rng.random(t)
    for n in range(1, t + 1):
        target = int(endpoints[int(uniforms[n - 1] * size)])
        draws[n - 1] = target
        endpoints[size] = target
        endpoints[size + 1] = n + 1
        size += 2
    return draws


class Replay:
    """A generator whose ``random(size)`` returns the next entries of fixed uniforms, in C order.

    It feeds chosen uniforms, such as edge values, to the samplers, which
    read their rows in one or more ``random`` calls.
    """

    def __init__(self, uniforms):
        self._flat = np.asarray(uniforms, dtype=np.float64).ravel()
        self._at = 0

    def random(self, size):
        count = math.prod(np.atleast_1d(size))
        out = self._flat[self._at : self._at + count]
        assert len(out) == count, "asked for more uniforms than were given"
        self._at += count
        return out.reshape(size).copy()


class Recording:
    """A generator that passes ``random`` on to ``rng`` and records each call's size."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(math.prod(np.atleast_1d(size)))
        return self.rng.random(size)


# PCG64's 128-bit LCG multiplier; each 64-bit output is one step of
# state <- state * mult + inc (mod 2**128).
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def stream_at(master_seed, steps):
    """``as_generator(master_seed)`` after ``steps`` 64-bit outputs (one per double).

    The scalar reference for PCG64's ``advance``: the LCG step is composed
    with itself by square-and-multiply in Python integers, so a stream can
    be positioned past 2**32 replicates without drawing them.
    """
    bit_generator = np.random.PCG64(np.random.SeedSequence(master_seed))
    state = bit_generator.state
    x, mult, plus = state["state"]["state"], _PCG64_MULT, state["state"]["inc"]
    while steps:
        if steps & 1:
            x = (x * mult + plus) % 2**128
        plus = (mult + 1) * plus % 2**128
        mult = mult * mult % 2**128
        steps >>= 1
    state["state"]["state"] = x
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def path_degrees(path):
    """Degrees of vertices 1..t+1 for a draw sequence (1-based list, entry 0 unused)."""
    t = len(path)
    degrees = [0] + [1] * (t + 1)
    for color in path:
        degrees[color] += 1
    return degrees


def pooled_chi_square_p(expected, observed):
    """Chi-square p-value after pooling bins in order until each expects >= 5."""
    exp_bins, obs_bins = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= 5:
            exp_bins.append(acc_e)
            obs_bins.append(acc_o)
            acc_e = acc_o = 0.0
    exp_bins[-1] += acc_e
    obs_bins[-1] += acc_o
    stat = sum((o - e) ** 2 / e for e, o in zip(exp_bins, obs_bins))
    return float(scipy.stats.chi2.sf(stat, len(exp_bins) - 1))
