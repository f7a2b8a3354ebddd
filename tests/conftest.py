"""Shared fixtures and a test-local oracle.

``enumerate_paths`` replays the urn along every possible draw sequence with
plain scalar arithmetic, independently of the library's enumeration and
recurrence code paths, so tests can cross-check any distributional claim at
small horizons.
"""

import itertools

import pytest
import scipy.stats

from polyagraph.schedules import Constant, NaturalLog, paper_f


def battery_schedules():
    """The schedule battery used across exactness tests."""
    return [
        ("const:0.5", Constant(0.5)),
        ("const:1", Constant(1.0)),
        ("const:2", Constant(2.0)),
        ("ln", NaturalLog()),
        ("paper-f", paper_f()),
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
