import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ba_draws_loop, battery_schedules, enumerate_paths, path_degrees, stream_at
from polyagraph import experiments
from polyagraph.errors import CapExceeded, InsufficientData
from polyagraph.exact import pmf_constant_delta_dp
from polyagraph.experiments import (
    BLOCK_ELEMENTS,
    POOL_MIN_DRAWS,
    ExperimentConfig,
    _replicate_blocks,
    average_birth_time,
    average_birth_time_of_graph,
    degree_distribution,
    draw_count_histogram,
    expected_birth_time_exact,
    expected_birth_time_table,
    expected_degree_count_table,
    run_monte_carlo,
    tail_slope,
)
from polyagraph.graphs import ba_block_draws, generate
from polyagraph.schedules import Constant, NaturalLog
from polyagraph.seeding import as_generator
from polyagraph.urn import DrawHistory, copy_pointer_draws, sample_history


def _polya(t, replicates, seed, schedule="const:1"):
    return ExperimentConfig(model="polya", t=t, replicates=replicates, seed=seed,
                            schedule_spec=schedule)


def _reference_draws(model, t, schedule, master_seed, replicates):
    """Each replicate's draws, sampled on its own, in replicate order.

    Replicate r reads the next t uniforms of the one stream, that is row r
    of ``as_generator(master_seed).random((replicates, t))``.
    """
    rng = as_generator(master_seed)
    for _ in range(replicates):
        yield ba_draws_loop(t, rng) if model == "ba" else sample_history(t, schedule, rng).draws


def _reference_result(config):
    """``run_monte_carlo``'s aggregates from a loop over replicates.

    Per replicate: a degree ``bincount``, then a histogram, a float-weighted
    birth-time sum and a sample count, each from one more ``bincount``.
    """
    t = config.t
    counts = np.zeros(t + 2, dtype=np.int64)
    birth_sums = np.zeros(t + 2, dtype=np.int64)
    n_samples = np.zeros(t + 2, dtype=np.int64)
    births = np.arange(t, dtype=np.float64)
    for draws in _reference_draws(config.model, t, config.schedule(), config.seed,
                                  config.replicates):
        deg = np.bincount(draws, minlength=t + 2)
        deg += 1
        deg[0] = 0
        counts += np.bincount(deg[1:], minlength=t + 2)
        if t:
            interior = deg[1 : t + 1]
            birth_sums += np.bincount(interior, weights=births, minlength=t + 2).astype(np.int64)
            n_samples += np.bincount(interior, minlength=t + 2)
    return counts, birth_sums, n_samples


def _table(birth_sums, n_samples):
    """``birth_time_table`` of reference sums and sample counts, as lists."""
    k = 1 + np.flatnonzero(n_samples[1:])
    return [k.tolist(), (birth_sums[k] / n_samples[k]).tolist(), n_samples[k].tolist()]


def _columns(result):
    return [column.tolist() for column in result.birth_time_table()]


class TestConfig:
    def test_polya_requires_schedule(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="polya", t=5, replicates=1, seed=0)

    def test_ba_rejects_schedule(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="ba", t=5, replicates=1, seed=0,
                             schedule_spec="const:1")

    def test_bad_model(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="urn", t=5, replicates=1, seed=0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            _polya(-1, 1, 0)
        with pytest.raises(ValueError):
            _polya(5, 0, 0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            _polya(5, 1, -1)

    def test_unknown_output(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="ba", t=5, replicates=1, seed=0,
                             outputs=("degree_distribution", "plots"))

    def test_empty_outputs(self):
        with pytest.raises(ValueError, match="outputs must name at least one"):
            ExperimentConfig(model="ba", t=5, replicates=1, seed=0, outputs=())

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            ExperimentConfig("ba", None, 5, 1, 0)


class TestRunMonteCarlo:
    def test_single_vertex(self):
        result = run_monte_carlo(_polya(0, 1, 0), threads=1)
        counts = result.counts
        assert counts[1] == 1
        assert counts.sum() == 1

    def test_two_vertices(self):
        result = run_monte_carlo(_polya(1, 1, 0), threads=1)
        assert degree_distribution(result) == [(1, 0.5), (2, 0.5)]

    def test_histogram_mass(self):
        config = _polya(40, 7, 5, schedule="ln")
        result = run_monte_carlo(config, threads=1)
        assert result.counts.sum() == 7 * 41
        assert degree_distribution(result)
        total = math.fsum(p for _, p in degree_distribution(result))
        assert total == pytest.approx(1, abs=1e-12)

    def test_repeatable(self):
        a = run_monte_carlo(_polya(60, 10, 99), threads=1)
        b = run_monte_carlo(_polya(60, 10, 99), threads=1)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.birth_sums, b.birth_sums)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 0)  # pool this small run
        config = ExperimentConfig(model="ba", t=50, replicates=21, seed=4)
        serial = run_monte_carlo(config, threads=1)
        parallel = run_monte_carlo(config, threads=2)
        assert (serial.processes, parallel.processes) == (1, 2)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.birth_sums, parallel.birth_sums)
        assert _columns(serial) == _columns(parallel)

    def test_replicate_seeding_rule_is_frozen(self):
        # Replicate r must take draws 20r .. 20r+19 of the master seed's stream.
        config = _polya(20, 3, 1234)
        result = run_monte_carlo(config, threads=1)
        uniforms = as_generator(1234).random((3, 20))

        counts = np.zeros(22, dtype=np.int64)
        for r in range(3):
            draws = copy_pointer_draws(uniforms[r : r + 1], Constant(1.0).cumulative(20))[0]
            deg = np.bincount(draws, minlength=22) + 1
            deg[0] = 0
            counts += np.bincount(deg[1:], minlength=22)
        assert np.array_equal(result.counts, counts)

    @pytest.mark.parametrize("t, replicates, processes", [
        (1024, POOL_MIN_DRAWS // 1024 - 1, 1),   # one replicate below the threshold
        (1024, POOL_MIN_DRAWS // 1024, 2),       # at the threshold
        (POOL_MIN_DRAWS, 1, 1),                  # never more processes than replicates
    ])
    def test_run_size_picks_the_process_count(self, t, replicates, processes):
        config = ExperimentConfig(model="ba", t=t, replicates=replicates, seed=0)
        assert run_monte_carlo(config, threads=2).processes == processes

    @pytest.mark.parametrize("cores, processes", [({0}, 1), ({0, 3, 5}, 3), (None, 2)])
    def test_default_process_count_follows_the_affinity(self, cores, processes,
                                                        monkeypatch):
        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 0)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        if cores is None:  # an OS without affinity masks: fall back to cpu_count
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: cores,
                                raising=False)
        assert run_monte_carlo(_polya(12, 10, 3), threads=None).processes == processes


class TestBlockedEngine:
    # Blocks hold at most 4096 draws: t=12 packs 341 replicates per block,
    # so 1000 replicates span three blocks (two per worker at threads=2);
    # 4095, 4096 and 4097 straddle the one-row limit.
    SIZES = [(0, 5), (1, 5), (12, 1000), (4095, 3), (4096, 3), (4097, 3)]
    # 2⁶⁴+5 is three 32-bit entropy words, which with r's fill the pool of four.
    SEEDS = (606, 2**64 + 5)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec", [name for name, _ in battery_schedules()] + [None])
    def test_equals_per_replicate_loop(self, spec, threads, monkeypatch):
        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 0)  # threads=2 pools these runs
        for seed, (t, replicates) in itertools.product(self.SEEDS, self.SIZES):
            if spec is None:
                config = ExperimentConfig(model="ba", t=t, replicates=replicates, seed=seed)
            else:
                config = _polya(t, replicates, seed, schedule=spec)
            result = run_monte_carlo(config, threads=threads)
            assert result.processes == min(threads, replicates)
            counts, birth_sums, n_samples = _reference_result(config)
            assert np.array_equal(result.counts, counts), (seed, t)
            assert np.array_equal(result.birth_sums, birth_sums), (seed, t)
            assert _columns(result) == _table(birth_sums, n_samples), (seed, t)

    # Block boundaries at t=12 fall every 341 replicates; 2³²+3 is past the
    # point where a 32-bit replicate index or offset would wrap.
    @pytest.mark.parametrize("lo", [0, 1, 340, 341, 4095, 4097, 2**32 + 3])
    @pytest.mark.parametrize("t", [0, 1, 12, 4097])
    @pytest.mark.parametrize("model", ["polya", "ba"])
    def test_range_rows_are_the_streams_rows(self, model, t, lo):
        rows = max(1, BLOCK_ELEMENTS // max(t, 1))
        hi = lo + 2 * rows + 1  # two full blocks and one short one
        schedule = NaturalLog() if model == "polya" else None
        blocks = list(_replicate_blocks(model, t, schedule, 606, lo, hi))
        assert [len(block) for block in blocks] == [rows, rows, 1]
        uniforms = stream_at(606, lo * t).random((hi - lo, t))
        expected = (ba_block_draws(uniforms) if model == "ba"
                    else copy_pointer_draws(uniforms, schedule.cumulative(t)))
        assert np.array_equal(np.concatenate(blocks), expected)


class TestBirthTimeCurve:
    def test_two_vertex_run(self):
        result = run_monte_carlo(_polya(1, 1, 0), threads=1)
        # Vertex 1 (degree 2, born at 0) is the only vertex before the horizon;
        # vertex 2 (degree 1) is left out, so degree 1 has no row.
        assert _columns(result) == [[2], [0.0], [1]]

    def test_rows_skip_absent_degrees(self):
        result = run_monte_carlo(_polya(30, 4, 11), threads=1)
        rows = list(zip(*result.birth_time_table()))
        assert rows
        for k, mean, n in rows:
            assert n > 0
            assert 0 <= mean <= 30


class TestAverageBirthTime:
    def test_golden_history(self):
        history = DrawHistory(schedule=Constant(1.0), draws=np.array([1, 1, 2, 2]))
        # Degrees of vertices 1..4 are 3, 3, 1, 1 (vertex 5 is outside).
        assert average_birth_time(history, 3) == 0.5
        assert average_birth_time(history, 1) == 2.5
        assert average_birth_time(history, 2) is None

    def test_horizon_one(self):
        history = DrawHistory(schedule=Constant(1.0), draws=np.array([1]))
        assert average_birth_time(history, 2) == 0.0
        assert average_birth_time(history, 1) is None  # vertex 2 is outside the range

    def test_degree_out_of_range(self):
        history = DrawHistory(schedule=Constant(1.0), draws=np.array([1]))
        with pytest.raises(ValueError):
            average_birth_time(history, 3)

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_history_and_graph_paths_agree(self, seed, t):
        history, graph = generate(t, NaturalLog(), seed=seed)
        for k in range(1, t + 2):
            assert average_birth_time(history, k) == average_birth_time_of_graph(graph, k)


class TestExpectedBirthTime:
    def test_horizon_one(self):
        assert expected_birth_time_exact(1, 2, Constant(1.0)) == 0.0
        assert expected_birth_time_exact(1, 1, Constant(1.0)) == 0.0

    def test_against_path_enumeration(self):
        # The exact value is the path-probability-weighted total of birth
        # times over degree-k vertices born before the horizon.
        t = 4
        for sched in (Constant(1.0), Constant(2.0), NaturalLog()):
            paths = enumerate_paths(t, sched)
            for k in range(1, t + 2):
                oracle = 0.0
                for path, prob in paths:
                    degrees = path_degrees(path)
                    oracle += prob * sum(j - 1 for j in range(1, t + 1)
                                         if degrees[j] == k)
                got = expected_birth_time_exact(t, k, sched)
                assert got == pytest.approx(oracle, abs=1e-12)

    def test_frozen_small_case(self):
        # t=3, unit reinforcement, degree 1: hand-derived expected total 32/15.
        assert expected_birth_time_exact(3, 1, Constant(1.0)) == pytest.approx(
            32 / 15, abs=1e-12
        )

    def test_table_matches_scalar(self):
        sched = Constant(1.0)
        table = expected_birth_time_table(12, sched)
        for k in range(1, 14):
            assert table[k] == pytest.approx(
                expected_birth_time_exact(12, k, sched), abs=1e-12
            )

    def test_cap_propagates(self):
        with pytest.raises(CapExceeded):
            expected_birth_time_exact(40, 2, NaturalLog())

    def test_expected_counts_sum_to_interior_vertices(self):
        # Every vertex before the horizon has exactly one degree.
        for sched in (Constant(0.5), NaturalLog()):
            table = expected_degree_count_table(10, sched)
            assert math.fsum(table.tolist()) == pytest.approx(10, abs=1e-9)


class TestDrawCountHistogram:
    def test_total_mass(self):
        hist = draw_count_histogram(2, 12, Constant(1.0), replicates=300, master_seed=7)
        assert hist.sum() == 300
        assert len(hist) == 12  # support 0..11

    def test_roughly_matches_exact_law(self):
        replicates = 3000
        hist = draw_count_histogram(2, 12, Constant(1.0), replicates=replicates,
                                    master_seed=31415)
        exact = pmf_constant_delta_dp(2, 12, 1.0).probs
        tv = 0.5 * np.abs(hist / replicates - exact).sum()
        assert tv < 0.05

    def test_equals_per_replicate_loop(self):
        j, t, replicates, schedule = 3, 12, 1000, NaturalLog()
        hist = draw_count_histogram(j, t, schedule, replicates, master_seed=8)
        expected = np.zeros(t - j + 2, dtype=np.int64)
        for draws in _reference_draws("polya", t, schedule, 8, replicates):
            expected[np.count_nonzero(draws == j)] += 1
        assert np.array_equal(hist, expected)

    def test_repeatable(self):
        a = draw_count_histogram(3, 10, NaturalLog(), replicates=50, master_seed=1)
        b = draw_count_histogram(3, 10, NaturalLog(), replicates=50, master_seed=1)
        assert np.array_equal(a, b)


class TestTailSlope:
    def test_exact_power_law(self):
        ks = np.arange(2, 101)
        ps = ks.astype(float) ** -3
        ps /= ps.sum()
        slope = tail_slope(list(zip(ks.tolist(), ps.tolist())), 2, 100)
        assert slope == pytest.approx(-3.0, abs=1e-9)

    def test_flat_distribution(self):
        pts = [(k, 0.1) for k in range(1, 11)]
        assert tail_slope(pts, 1, 10) == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            tail_slope([(2, 0.5), (3, 0.5)], 2, 10)
