import concurrent.futures
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Recording,
    ReferenceStream,
    ba_draws_loop,
    battery_schedules,
    enumerate_paths,
    path_degrees,
    schedule_kinds,
)
from polyagraph import experiments
from polyagraph.errors import CapExceeded, InsufficientData
from polyagraph.exact import pmf_constant_delta_dp
from polyagraph.experiments import (
    POOL_MIN_DRAWS,
    ExperimentConfig,
    _replicate_blocks,
    degree_distribution,
    draw_count_histogram,
    expected_birth_time_table,
    expected_degree_count_table,
    run_monte_carlo,
    tail_slope,
)
from polyagraph.graphs import ba_block_draws, graph_from_draws
from polyagraph.schedules import Constant, NaturalLog
from polyagraph.seeding import PASS, as_generator, replicate_stream
from polyagraph.urn import GuideTable, copy_pointer_draws, sample_history


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
        yield ba_draws_loop(t, rng) if model == "ba" else sample_history(t, schedule, rng)


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

    def test_runs_whose_int64_sums_could_wrap_are_refused(self):
        # A degree's birth-time sum can reach R·t(t-1)/2: 1.0e19 > 2⁶³ at R=2·10⁵, 9.0e18 at
        # 1.8·10⁵.  At t <= 3 the vertex count R·(t+1) is the larger bin.
        with pytest.raises(ValueError, match=r"^replicates=200000 at t=10000000 could overflow "
                                             r"the int64 pooled sums: "):
            ExperimentConfig(model="polya", schedule_spec="ln", t=10**7, replicates=2 * 10**5,
                             seed=0)
        assert ExperimentConfig(model="polya", schedule_spec="ln", t=10**7,
                                replicates=18 * 10**4, seed=0).replicates == 18 * 10**4
        with pytest.raises(ValueError, match=r"^replicates=9223372036854775808 at t=0 "):
            ExperimentConfig(model="ba", t=0, replicates=2**63, seed=0)
        ExperimentConfig(model="ba", t=0, replicates=2**63 - 1, seed=0)

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            ExperimentConfig("ba", None, 5, 1, 0)

    def test_signature_lists_the_fields(self):
        # tests/test_benchmark_hooks.py binds perfbench's calls against it.
        sig = inspect.signature(ExperimentConfig)
        assert list(sig.parameters) == ["model", "schedule_spec", "t", "replicates", "seed",
                                        "outputs", "out"]
        assert {p.kind for p in sig.parameters.values()} == {inspect.Parameter.KEYWORD_ONLY}
        assert sig.parameters["out"].default is None
        assert sig.parameters["t"].default is inspect.Parameter.empty
        sig.bind(model="ba", t=5, replicates=1, seed=0)
        with pytest.raises(TypeError):
            sig.bind(model="ba", t=5, replicates=1, seed=0, colour="red")
        with pytest.raises(TypeError):
            sig.bind("ba", t=5, replicates=1, seed=0)
        assert str(inspect.signature(Constant)).startswith("(delta: 'float')")
        assert str(inspect.signature(NaturalLog)).startswith("()")


@pytest.mark.parametrize("make", [
    lambda: run_monte_carlo(ExperimentConfig(model="ba", t=5, replicates=2, seed=1)),
    lambda: graph_from_draws(np.array([1, 1])),
    lambda: pmf_constant_delta_dp(2, 5, 1.0),
], ids=["MonteCarloResult", "EvolvingGraph", "Pmf"])
def test_array_records_compare_by_identity(make):
    # A field-wise == over ndarray fields would raise instead of returning a bool.
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)


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
        monkeypatch.setattr(experiments, "_available_cores", lambda: 2)  # even on one core
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
        rng = as_generator(1234)

        table = GuideTable(Constant(1.0).cumulative(20))
        counts = np.zeros(22, dtype=np.int64)
        for r in range(3):
            draws = copy_pointer_draws(1, table, rng)[0]
            deg = np.bincount(draws, minlength=22) + 1
            deg[0] = 0
            counts += np.bincount(deg[1:], minlength=22)
        assert np.array_equal(result.counts, counts)

    @pytest.mark.parametrize("t, replicates, processes", [
        (1024, POOL_MIN_DRAWS // 1024 - 1, 1),   # one replicate below the threshold
        (1024, POOL_MIN_DRAWS // 1024, 2),       # at the threshold
        (POOL_MIN_DRAWS, 1, 1),                  # never more processes than replicates
    ])
    def test_run_size_picks_the_process_count(self, t, replicates, processes, monkeypatch):
        monkeypatch.setattr(experiments, "_available_cores", lambda: 2)
        config = _polya(t, replicates, 0)
        assert run_monte_carlo(config, threads=2).processes == processes

    @pytest.mark.parametrize("model, t, replicates, processes", [
        ("ba", 512, 3, 1),       # one replicate below the BA threshold
        ("ba", 512, 4, 2),       # at it
        ("polya", 512, 2, 2),    # the urn pools from POOL_MIN_DRAWS
    ])
    def test_ba_runs_pool_from_more_draws(self, model, t, replicates, processes, monkeypatch):
        # BA samples faster than the urn, so its pool breaks even later (2²³
        # draws against 2²² on 2 cores); the threshold scales with POOL_MIN_DRAWS.
        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 1024)
        monkeypatch.setattr(experiments, "_available_cores", lambda: 2)
        assert experiments.BA_POOL_FACTOR == 2
        schedule = "const:1" if model == "polya" else None
        config = ExperimentConfig(model=model, schedule_spec=schedule, t=t,
                                  replicates=replicates, seed=0)
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

    @pytest.mark.parametrize("cores, replicates", [(2, 20), (3, 20), (3, 2)])
    def test_pool_never_has_more_workers_than_cores(self, cores, replicates, monkeypatch):
        # A stand-in pool records its size and runs each range inline, so a
        # cap far above the cores starts no process.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 0)
        monkeypatch.setattr(experiments, "_available_cores", lambda: cores)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        config = _polya(12, replicates, 3, schedule="ln")
        pooled = run_monte_carlo(config, threads=100_000)
        assert sizes == [pooled.processes] == [min(cores, replicates)]
        serial = run_monte_carlo(config, threads=1)
        assert np.array_equal(pooled.counts, serial.counts)
        assert np.array_equal(pooled.birth_sums, serial.birth_sums)


class TestBlockedEngine:
    # Blocks hold at most a pass of 4096 draws: t=12 packs 341 replicates per
    # block, so 1000 replicates span three blocks (two per worker at
    # threads=2); 4095, 4096 and 4097 straddle the one-row limit, past which a
    # row is drawn in equal time chunks, and 8193 is the first with three.
    SIZES = [(0, 5), (1, 5), (12, 1000), (PASS - 1, 3), (PASS, 3), (PASS + 1, 3),
             (2 * PASS + 1, 2)]
    # 2⁶⁴+5 is three 32-bit entropy words, which with r's fill the pool of four.
    SEEDS = (606, 2**64 + 5)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec", [name for name, _ in battery_schedules()]
                             + ["paper-g", "table", None])
    def test_equals_per_replicate_loop(self, spec, threads, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 0)  # threads=2 pools these runs
        monkeypatch.setattr(experiments, "_available_cores", lambda: 2)  # even on one core
        if spec == "table":  # masses 0, 0.5, ..., 3 over and over, for every horizon below
            path = tmp_path / "table.txt"
            path.write_text("".join(f"{n % 7 / 2}\n" for n in range(3 * PASS)))
            spec = f"table:{path}"
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
        rows = max(1, PASS // max(t, 1))
        hi = lo + 2 * rows + 1  # two full blocks and one short one
        schedule = NaturalLog() if model == "polya" else None
        blocks = list(_replicate_blocks(model, t, schedule, 606, lo, hi))
        assert [len(block) for block in blocks] == [rows, rows, 1]
        rng = ReferenceStream(606, lo * t)
        expected = (ba_block_draws(hi - lo, t, rng) if model == "ba"
                    else copy_pointer_draws(hi - lo, GuideTable(schedule.cumulative(t)), rng))
        assert np.array_equal(np.concatenate(blocks), expected)

    @pytest.mark.parametrize("t", [12, PASS - 1, PASS, PASS + 1, 2 * PASS + 1])
    @pytest.mark.parametrize("model", ["polya", "ba"])
    def test_no_call_asks_for_more_than_a_pass(self, model, t, monkeypatch):
        streams = []

        def recording_stream(*args):
            streams.append(Recording(replicate_stream(*args)))
            return streams[-1]

        monkeypatch.setattr(experiments, "replicate_stream", recording_stream)
        replicates = 2 * PASS // t + 1  # three blocks at t=12, the last one short
        schedule = NaturalLog() if model == "polya" else None
        blocks = list(_replicate_blocks(model, t, schedule, 606, 0, replicates))
        assert sum(len(block) for block in blocks) == replicates
        [stream] = streams
        assert sum(stream.sizes) == replicates * t and max(stream.sizes) <= PASS


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


class TestExpectedBirthTime:
    def test_horizon_one(self):
        assert expected_birth_time_table(1, Constant(1.0))[1:].tolist() == [0.0, 0.0]

    def test_against_path_enumeration(self):
        # The exact value is the path-probability-weighted total of birth
        # times over degree-k vertices born before the horizon.
        t = 4
        for sched in (Constant(1.0), Constant(2.0), NaturalLog()):
            paths = enumerate_paths(t, sched)
            table = expected_birth_time_table(t, sched)
            for k in range(1, t + 2):
                oracle = 0.0
                for path, prob in paths:
                    degrees = path_degrees(path)
                    oracle += prob * sum(j - 1 for j in range(1, t + 1)
                                         if degrees[j] == k)
                assert table[k] == pytest.approx(oracle, abs=1e-12)

    def test_frozen_small_case(self):
        # t=3, unit reinforcement, degree 1: hand-derived expected total 32/15.
        assert expected_birth_time_table(3, Constant(1.0))[1] == pytest.approx(
            32 / 15, abs=1e-12
        )

    def test_cap_propagates(self):
        with pytest.raises(CapExceeded):
            expected_birth_time_table(40, NaturalLog())

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

    @pytest.mark.parametrize("t", [PASS - 1, PASS, PASS + 1, 2 * PASS + 1])
    def test_equals_per_replicate_loop_around_a_pass(self, t):
        for name, schedule in schedule_kinds(t):
            for j in (1, 2, t):
                hist = draw_count_histogram(j, t, schedule, 3, master_seed=t)
                expected = np.zeros(t - j + 2, dtype=np.int64)
                for draws in _reference_draws("polya", t, schedule, t, 3):
                    expected[np.count_nonzero(draws == j)] += 1
                assert np.array_equal(hist, expected), (name, j)

    @pytest.mark.parametrize("j", [0, 11, -1])
    def test_color_outside_the_horizon_is_refused(self, j):
        with pytest.raises(ValueError, match=rf"^color {j} outside 1..10$"):
            draw_count_histogram(j, 10, NaturalLog(), replicates=5, master_seed=1)

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
