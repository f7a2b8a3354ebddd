"""Monte Carlo experiment engine and birth-time statistics.

Replicated generation with a frozen seeding rule (replicate r uses the
generator derived from ``(master_seed, r)``), pooled integer aggregation so
results are independent of worker scheduling, and the exact counterparts of
the empirical birth-time quantities.

Birth-time conventions: vertex j is born at time j - 1, and all birth-time
statistics range over vertices j = 1..t, excluding the final vertex (which
always has degree 1 and birth time t).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InsufficientData
from .exact import ENUMERATION_CAP, pmf_constant_delta_dp, pmf_general
from .graphs import EvolvingGraph, ba_draws
from .schedules import Constant, Schedule, parse_schedule
from .seeding import replicate_generator, replicate_generators  # noqa: F401
# perfbench/tracing.py wraps ``replicate_generator``, ``ba_draws`` and
# ``sample_history`` in this module's namespace, and its probe calls
# ``experiments.replicate_generator`` and ``experiments.sample_history``; the
# engine calls ``ba_draws`` by this name.
from .urn import DrawHistory, copy_pointer_draws, sample_history  # noqa: F401

MODELS = ("polya", "ba")
OUTPUT_KINDS = ("degree_distribution", "birth_time", "summary")

# Draws per replicate block: small enough that a block's working arrays stay
# in cache and a t=5000 block is a single row, so memory matches sampling one
# replicate at a time.
BLOCK_ELEMENTS = 4096


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment: a model, a horizon, a replicate count, and a master seed.

    These fields, in this order, are the keys of a config document (``configio``).
    """

    model: str
    schedule_spec: str | None = None
    t: int
    replicates: int
    seed: int
    outputs: tuple[str, ...] = OUTPUT_KINDS
    out: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.t < 0:
            raise ValueError(f"horizon must be >= 0, got {self.t}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.model == "polya" and not self.schedule_spec:
            raise ValueError("model 'polya' requires a schedule")
        if self.model == "ba" and self.schedule_spec:
            raise ValueError("model 'ba' takes no schedule")
        if not self.outputs:
            raise ValueError(f"outputs must name at least one of {OUTPUT_KINDS}")
        unknown = set(self.outputs) - set(OUTPUT_KINDS)
        if unknown:
            raise ValueError(f"unknown outputs {sorted(unknown)}; known: {OUTPUT_KINDS}")

    def schedule(self) -> Schedule | None:
        return parse_schedule(self.schedule_spec) if self.schedule_spec else None


@dataclass
class DegreeHistogram:
    """Vertex counts per degree pooled over replicates (index = degree)."""

    horizon: int
    replicates: int
    counts: np.ndarray = field(repr=False)

    def total_vertices(self) -> int:
        return int(self.counts.sum())


@dataclass
class BirthTimeCurve:
    """Pooled birth-time totals per degree over (replicate, vertex) pairs.

    Sums and sample counts are kept as exact integers; a degree with no
    contributing pair is absent (mean None), not zero.
    """

    horizon: int
    birth_sums: np.ndarray = field(repr=False)
    n_samples: np.ndarray = field(repr=False)

    def mean_birth_time(self, k: int) -> float | None:
        if not 1 <= k <= self.horizon + 1:
            raise ValueError(f"degree {k} outside 1..{self.horizon + 1}")
        n = int(self.n_samples[k])
        if n == 0:
            return None
        return int(self.birth_sums[k]) / n

    def rows(self):
        """Yield (degree, mean_birth_time, n_samples) for present degrees."""
        for k in range(1, self.horizon + 2):
            n = int(self.n_samples[k])
            if n:
                yield k, int(self.birth_sums[k]) / n, n


@dataclass(frozen=True)
class ReplicateSummary:
    index: int
    max_degree: int


@dataclass
class MonteCarloResult:
    config: ExperimentConfig
    degree_histogram: DegreeHistogram
    birth_time: BirthTimeCurve
    replicate_summaries: tuple[ReplicateSummary, ...]


def _replicate_blocks(model, t, schedule, master_seed, lo, hi):
    """Yield ``(first_index, draws)`` for replicates lo..hi-1, a block at a time.

    ``draws`` is an (m, t) array whose row i is replicate first_index + i,
    driven by its own ``(master_seed, r)`` generator, taken in order from one
    ``replicate_generators`` stream for the range; a block holds at most
    ``BLOCK_ELEMENTS`` draws (always at least one row), which bounds its
    memory.  Polya rows share one ``copy_pointer_draws`` call and one
    ``schedule.cumulative(t)``.
    """
    rows = max(1, BLOCK_ELEMENTS // max(t, 1))
    S = schedule.cumulative(t) if model == "polya" else None
    generators = replicate_generators(master_seed, lo, hi)
    for first in range(lo, hi, rows):
        rngs = list(islice(generators, rows))
        if model == "ba":
            yield first, np.stack([ba_draws(t, rng) for rng in rngs])
        else:
            yield first, copy_pointer_draws(np.stack([rng.random(t) for rng in rngs]), S)


def _aggregate_range(model, t, schedule, master_seed, lo, hi):
    """Pooled integer aggregates for replicates lo..hi-1.

    Each block's birth-time sums pass through float64 (``bincount``
    weights) before they become integers.  One bin of a block sums at most
    max(t²/2, (BLOCK_ELEMENTS/2)·t) birth times, so the sums are exact while
    that stays below 2⁵³, i.e. for t below about 1.3·10⁸.
    """
    counts = np.zeros(t + 2, dtype=np.int64)
    birth_sums = np.zeros(t + 2, dtype=np.int64)
    n_samples = np.zeros(t + 2, dtype=np.int64)
    births = np.arange(t, dtype=np.float64)  # birth time of vertex j is j - 1
    summaries = []
    for first, draws in _replicate_blocks(model, t, schedule, master_seed, lo, hi):
        m = len(draws)
        # Row i's colors land in bins i·(t+2) .. i·(t+2)+t+1 of one bincount.
        offsets = (t + 2) * np.arange(m)[:, None]
        deg = np.bincount((draws + offsets).ravel(), minlength=m * (t + 2)).reshape(m, t + 2)
        deg += 1
        deg[:, 0] = 0
        counts += np.bincount(deg[:, 1:].ravel(), minlength=t + 2)
        if t:
            interior = deg[:, 1 : t + 1].ravel()  # vertices born before the horizon
            birth_sums += np.bincount(interior, weights=np.tile(births, m),
                                      minlength=t + 2).astype(np.int64)
            n_samples += np.bincount(interior, minlength=t + 2)
        summaries.extend(ReplicateSummary(index=first + i, max_degree=int(k))
                         for i, k in enumerate(deg.max(axis=1)))
    return counts, birth_sums, n_samples, summaries


def run_monte_carlo(config: ExperimentConfig, *, threads: int | None = None) -> MonteCarloResult:
    """Run the configured replicates and pool their statistics.

    Replicate r draws from the generator seeded by ``(config.seed, r)``
    regardless of worker layout, and all aggregation is exact integer
    addition, so the result is identical for any number of worker processes.
    """
    t, total = config.t, config.replicates
    schedule = config.schedule()
    workers = threads if threads is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, total))
    bounds = np.linspace(0, total, workers + 1, dtype=int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(ranges) <= 1:
        partials = [_aggregate_range(config.model, t, schedule, config.seed, 0, total)]
    else:
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [
                pool.submit(_aggregate_range, config.model, t, schedule, config.seed, lo, hi)
                for lo, hi in ranges
            ]
            partials = [f.result() for f in futures]
    counts = np.zeros(t + 2, dtype=np.int64)
    birth_sums = np.zeros(t + 2, dtype=np.int64)
    n_samples = np.zeros(t + 2, dtype=np.int64)
    summaries: list[ReplicateSummary] = []
    for c, bs, ns, summ in partials:
        counts += c
        birth_sums += bs
        n_samples += ns
        summaries.extend(summ)
    return MonteCarloResult(
        config=config,
        degree_histogram=DegreeHistogram(horizon=t, replicates=total, counts=counts),
        birth_time=BirthTimeCurve(horizon=t, birth_sums=birth_sums, n_samples=n_samples),
        replicate_summaries=tuple(summaries),
    )


def degree_distribution(histogram: DegreeHistogram) -> list[tuple[int, float]]:
    """Pooled degree frequencies: counts over replicates * (t + 1) vertices.

    Zero-count degrees are omitted.
    """
    total = histogram.replicates * (histogram.horizon + 1)
    if total <= 0:
        raise ValueError("empty histogram")
    return [(k, int(c) / total) for k, c in enumerate(histogram.counts) if c > 0]


def tail_slope(distribution, k_min: int, k_max: int) -> float:
    """Least-squares slope of log p(k) against log k over [k_min, k_max]."""
    pts = [(k, p) for k, p in distribution if k_min <= k <= k_max and p > 0]
    if len(pts) < 5:
        raise InsufficientData(
            f"need at least 5 nonzero degrees in [{k_min}, {k_max}], got {len(pts)}"
        )
    log_k = np.log([k for k, _ in pts])
    log_p = np.log([p for _, p in pts])
    return float(np.polyfit(log_k, log_p, 1)[0])


def _mean_birth(degrees_before_horizon: np.ndarray, k: int) -> float | None:
    hits = np.nonzero(degrees_before_horizon == k)[0]
    if hits.size == 0:
        return None
    return float(hits.mean())  # position i is vertex i+1, born at time i


def average_birth_time(history: DrawHistory, k: int) -> float | None:
    """Mean birth time of the degree-k vertices born before the horizon.

    Averages j - 1 over vertices j = 1..t whose degree at the horizon is k;
    None when no such vertex exists.
    """
    t = len(history)
    if not 1 <= k <= t + 1:
        raise ValueError(f"degree {k} outside 1..{t + 1}")
    counts = history.draw_counts()
    return _mean_birth(counts[1 : t + 1] + 1, k)


def average_birth_time_of_graph(graph: EvolvingGraph, k: int) -> float | None:
    """Same statistic computed from a materialized graph's degree array."""
    t = graph.horizon
    if not 1 <= k <= t + 1:
        raise ValueError(f"degree {k} outside 1..{t + 1}")
    return _mean_birth(np.asarray(graph.degrees[1 : t + 1]), k)


def _count_pmf(j: int, t: int, schedule: Schedule, cap: int):
    if isinstance(schedule, Constant):
        return pmf_constant_delta_dp(j, t, float(schedule.delta))
    return pmf_general(j, t, schedule, cap=cap)


def expected_birth_time_exact(t: int, k: int, schedule: Schedule, *,
                              cap: int = ENUMERATION_CAP) -> float:
    """Exact expected birth-time total for degree k: sum of (j-1) P(degree_j = k).

    The sum runs over vertices j = 1..t.  This is the exact counterpart of
    the per-replicate birth-time total (not of the within-replicate mean,
    whose denominator is itself random).
    """
    if not 1 <= k <= t + 1:
        raise ValueError(f"degree {k} outside 1..{t + 1}")
    total = 0.0
    for j in range(1, t + 1):
        if k - 1 > t - j + 1:
            continue
        pmf = _count_pmf(j, t, schedule, cap)
        total += (j - 1) * float(pmf.probs[k - 1])
    return total


def expected_birth_time_table(t: int, schedule: Schedule, *,
                              cap: int = ENUMERATION_CAP) -> np.ndarray:
    """``expected_birth_time_exact`` for every degree at once (index = degree)."""
    table = np.zeros(t + 2)
    for j in range(1, t + 1):
        pmf = _count_pmf(j, t, schedule, cap)
        table[1 : 1 + len(pmf.probs)] += (j - 1) * pmf.probs
    return table


def expected_degree_count_table(t: int, schedule: Schedule, *,
                                cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Expected number of degree-k vertices among those born before the horizon."""
    table = np.zeros(t + 2)
    for j in range(1, t + 1):
        pmf = _count_pmf(j, t, schedule, cap)
        table[1 : 1 + len(pmf.probs)] += pmf.probs
    return table


def draw_count_histogram(j: int, t: int, schedule: Schedule | None, replicates: int,
                         master_seed: int, *, model: str = "polya") -> np.ndarray:
    """Empirical histogram of color j's draw count over replicates.

    Entry k counts the replicates in which color j was drawn exactly k times
    through the horizon; the support is 0..t-j+1.  Uses the same per-replicate
    seeding rule as ``run_monte_carlo``.
    """
    if not 1 <= j <= t:
        raise ValueError(f"color {j} outside 1..{t}")
    hist = np.zeros(t - j + 2, dtype=np.int64)
    for _, draws in _replicate_blocks(model, t, schedule, master_seed, 0, replicates):
        hist += np.bincount(np.count_nonzero(draws == j, axis=1), minlength=t - j + 2)
    return hist
