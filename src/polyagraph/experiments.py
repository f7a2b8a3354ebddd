"""Monte Carlo experiment engine and birth-time statistics.

Replicated generation with a frozen seeding rule (replicate r of a
length-t run takes draws r·t … (r+1)·t−1 of the master seed's one stream),
pooled integer aggregation so results are independent of worker scheduling,
and the exact counterparts of the empirical birth-time quantities.  A run's
one record, ``MonteCarloResult``, is its config plus two pooled integer
tables per degree; every empirical statistic is derived from them.

Birth-time conventions: vertex j is born at time j - 1, and all birth-time
statistics range over vertices j = 1..t, excluding the final vertex (which
always has degree 1 and birth time t).  Degrees come from
``graphs.degree_rows``, which alone knows that a vertex's degree is one plus
its color's draw count; the engine pools its degree tables, and
``average_birth_time_of_graph`` reads a materialized graph's.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InsufficientData
from .exact import pmf_constant_delta_dp, pmf_general
from .graphs import EvolvingGraph, ba_block_draws, degree_rows
from .records import Record
from .schedules import Constant, Schedule, parse_schedule
from .seeding import PASS, replicate_stream
from .urn import GuideTable, copy_pointer_draws
# perfbench/tracing.py wraps ``replicate_generator``, ``ba_draws`` and
# ``sample_history`` in this module's namespace, and its probe calls all
# three by these names; the engine itself calls none of them.
from .graphs import ba_draws  # noqa: F401
from .seeding import replicate_generator  # noqa: F401
from .urn import sample_history  # noqa: F401

MODELS = ("polya", "ba")
OUTPUT_KINDS = ("degree_distribution", "birth_time", "summary")

# Runs of fewer draws (t·R) than this go in one process whatever the thread
# cap: below it, starting and feeding a process pool costs more than splitting
# the replicates saves (the break-even, measured on 2 cores, is the table in
# ROADMAP.md at commit e063225).
POOL_MIN_DRAWS = 1 << 20


class ExperimentConfig(Record):
    """One experiment: a model, a horizon, a replicate count, and a master seed.

    These fields, in this order, are the keys of a config document (``configio``).
    A run pools int64 tables, whose bins reach at most R·(t+1) vertices or,
    as a degree's birth-time sum, R·t(t−1)/2; numpy's int64 sums wrap
    silently past 2⁶³, so a config where either could is refused.
    """

    _keyword_only = True

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
        if len(set(self.outputs)) < len(self.outputs):
            raise ValueError(f"outputs name a kind more than once: {','.join(self.outputs)}")
        if self.replicates * max(self.t + 1, self.t * (self.t - 1) // 2) >= 2**63:
            raise ValueError(f"replicates={self.replicates} at t={self.t} could overflow the "
                             "int64 pooled sums: replicates*max(t+1, t*(t-1)/2) must be "
                             "below 2**63")

    def schedule(self) -> Schedule | None:
        return parse_schedule(self.schedule_spec) if self.schedule_spec else None


class MonteCarloResult(Record):
    """One run: its config, its pooled degree tables, and the processes that sampled.

    ``counts[k]`` counts the vertices 1..t+1 of degree k over all replicates,
    and ``birth_sums[k]`` totals the birth times of the vertices 1..t of
    degree k; every statistic of the run is read off these two exact integer
    tables and the config.  Compared and hashed by identity, since an array
    field has no single truth value.
    """

    config: ExperimentConfig
    counts: np.ndarray
    birth_sums: np.ndarray
    processes: int

    def birth_time_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns (degree, mean_birth_time, n_samples) of the degrees 1..t+1 present.

        ``n_samples`` is ``counts`` less R at degree 1: the birth-time
        statistics leave out vertex t + 1, which is never drawn by time t and
        so has degree 1 in every replicate.  A degree with no contributing
        (replicate, vertex) pair is absent, not a zero row.
        """
        n_samples = self.counts.copy()
        n_samples[1] -= self.config.replicates
        k = 1 + np.flatnonzero(n_samples[1:])
        return k, self.birth_sums[k] / n_samples[k], n_samples[k]


def _replicate_blocks(model, t, schedule, master_seed, lo, hi):
    """Yield the draws of replicates lo..hi-1 in order, as (m, t) blocks.

    The range reads the run's one stream, advanced once to replicate lo by
    ``replicate_stream``, and each block's row for replicate r holds draws
    r·t … (r+1)·t−1 of the stream.  A block of t ≤ ``PASS`` holds as many
    whole rows as fit in one pass, ``PASS // t``, and takes its uniforms in
    one ``rng.random((m, t))`` call; a longer row is a block of its own,
    which the sampler reads in time chunks of one pass.  So no call asks
    the stream for more than a pass, and a block's working memory beyond
    its draws stays one pass's.  Blocks map to colors by one
    ``copy_pointer_draws`` call (Polya, sharing one ``GuideTable`` of
    ``schedule.cumulative(t)``) or one ``ba_block_draws`` call (BA).
    """
    rows = max(1, PASS // max(t, 1))
    table = GuideTable(schedule.cumulative(t)) if model == "polya" else None
    rng = replicate_stream(master_seed, t, lo)
    for first in range(lo, hi, rows):
        m = min(rows, hi - first)
        yield ba_block_draws(m, t, rng) if model == "ba" else copy_pointer_draws(m, table, rng)


def _aggregate_range(model, t, schedule, master_seed, lo, hi):
    """The tables ``MonteCarloResult.counts`` and ``birth_sums`` of replicates lo..hi-1.

    The degrees of a block come from one ``degree_rows`` call, and both
    tables are int64 sums, exact within ``ExperimentConfig``'s bound.
    """
    counts = np.zeros(t + 2, dtype=np.int64)
    birth_sums = np.zeros(t + 2, dtype=np.int64)
    for draws in _replicate_blocks(model, t, schedule, master_seed, lo, hi):
        deg = degree_rows(draws)
        counts += np.bincount(deg[:, 1:].ravel(), minlength=t + 2)
        # Vertex j = 1..t, born at time j - 1, adds its birth time to its
        # degree's bin.  Index and values are both flat: numpy 2.4.6's add.at
        # sums a 2-D index against 1-D values wrongly, and runs twice as slow
        # on values broadcast to the index's shape.
        np.add.at(birth_sums, deg[:, 1 : t + 1].ravel(), np.tile(np.arange(t), len(deg)))
    return counts, birth_sums


def _available_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(config: ExperimentConfig, *, threads: int | None = None) -> MonteCarloResult:
    """Run the configured replicates and pool their statistics.

    A run of fewer than ``POOL_MIN_DRAWS`` draws (t·R) runs in this process.
    A larger one splits its replicates into contiguous ranges over a process
    pool of at most ``threads`` workers (default: the cores this process may
    run on), never more than the cores or replicates; ``result.processes``
    says how many sampled.  Replicate r takes draws r·t … (r+1)·t−1 of the
    stream ``as_generator(config.seed)`` regardless of layout (each range
    advances the stream to its first replicate), and all aggregation is exact
    integer addition, so the result is identical for any number of processes.
    """
    t, total = config.t, config.replicates
    schedule = config.schedule()
    workers = 1
    if t * total >= POOL_MIN_DRAWS:
        cores = _available_cores()
        workers = max(1, min(cores if threads is None else threads, cores, total))
    if workers == 1:
        partials = [_aggregate_range(config.model, t, schedule, config.seed, 0, total)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, total, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_aggregate_range, config.model, t, schedule, config.seed,
                            int(lo), int(hi))
                for lo, hi in zip(bounds, bounds[1:])
            ]
            partials = [f.result() for f in futures]
    counts, birth_sums = zip(*partials)
    return MonteCarloResult(config=config, counts=sum(counts), birth_sums=sum(birth_sums),
                            processes=workers)


def degree_distribution(result: MonteCarloResult) -> list[tuple[int, float]]:
    """Pooled degree frequencies: counts over replicates * (t + 1) vertices.

    Zero-count degrees are omitted.
    """
    total = result.config.replicates * (result.config.t + 1)
    return [(k, int(c) / total) for k, c in enumerate(result.counts) if c > 0]


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


def average_birth_time_of_graph(graph: EvolvingGraph, k: int) -> float | None:
    """Mean birth time of the graph's degree-k vertices born before the horizon.

    Averages j - 1 over vertices j = 1..t whose degree at the horizon is k;
    None when no such vertex exists.
    """
    t = graph.horizon
    if not 1 <= k <= t + 1:
        raise ValueError(f"degree {k} outside 1..{t + 1}")
    hits = np.flatnonzero(graph.degrees[1 : t + 1] == k)
    return float(hits.mean()) if hits.size else None  # position i is vertex i+1, born at time i


def _exact_tables(t: int, schedule: Schedule):
    """Per-degree (birth-time total, vertex count) expectations, one pass over colors."""
    births = np.zeros(t + 2)
    counts = np.zeros(t + 2)
    for j in range(1, t + 1):
        if isinstance(schedule, Constant):
            probs = pmf_constant_delta_dp(j, t, float(schedule.delta)).probs
        else:
            probs = pmf_general(j, t, schedule).probs
        births[1 : 1 + len(probs)] += (j - 1) * probs
        counts[1 : 1 + len(probs)] += probs
    return births, counts


def expected_birth_time_table(t: int, schedule: Schedule) -> np.ndarray:
    """Exact expected birth-time total per degree k: sum of (j-1) P(degree_j = k).

    Entry k is the degree-k total; the sum runs over vertices j = 1..t.  This
    is the exact counterpart of the per-replicate birth-time total (not of
    the within-replicate mean, whose denominator is itself random).
    """
    return _exact_tables(t, schedule)[0]


def expected_degree_count_table(t: int, schedule: Schedule) -> np.ndarray:
    """Expected number of degree-k vertices among those born before the horizon."""
    return _exact_tables(t, schedule)[1]


def draw_count_histogram(j: int, t: int, schedule: Schedule, replicates: int,
                         master_seed: int) -> np.ndarray:
    """Empirical histogram of color j's draw count over Polya urn replicates.

    Entry k counts the replicates in which color j was drawn exactly k times
    through the horizon; the support is 0..t-j+1.  Uses the same seeding rule
    as a Polya ``run_monte_carlo``, so replicate r is that run's replicate r.
    """
    if not 1 <= j <= t:
        raise ValueError(f"color {j} outside 1..{t}")
    hist = np.zeros(t - j + 2, dtype=np.int64)
    for draws in _replicate_blocks("polya", t, schedule, master_seed, 0, replicates):
        hist += np.bincount(np.count_nonzero(draws == j, axis=1), minlength=t - j + 2)
    return hist
