"""End-to-end acceptance checks.

Every shipped guarantee is enforced here at its stated tolerance, one test
per criterion, each printing a PASS/FAIL line (visible with ``pytest -s``).
Statistical criteria run with fixed seeds, so the whole module is
deterministic.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import battery_schedules, pooled_chi_square_p, run_cli
from polyagraph import experiments
from polyagraph.exact import (
    brute_force_table,
    delta_one_simplified_pmf,
    pmf_constant_delta,
    pmf_constant_delta_dp,
    pmf_general,
)
from polyagraph.experiments import (
    ExperimentConfig,
    _replicate_blocks,
    degree_distribution,
    draw_count_histogram,
    expected_birth_time_table,
    expected_degree_count_table,
    run_monte_carlo,
    tail_slope,
)
from polyagraph.schedules import Constant
from polyagraph.seeding import replicate_generator
from polyagraph.urn import UrnState, composition, sample_history, step


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def test_01_forced_path_compositions_exact():
    with criterion(1, "forced draws (1,2,1) at amount 2 reproduce the exact "
                      "compositions in under 1 ms"):
        sched = Constant(Fraction(2))
        expected = [
            [Fraction(3, 4), Fraction(1, 4)],
            [Fraction(3, 7), Fraction(3, 7), Fraction(1, 7)],
            [Fraction(5, 10), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10)],
        ]
        step(UrnState(), sched, drawn=1)  # warm the path before timing
        started = time.perf_counter()
        urn = UrnState()
        for drawn, want in zip((1, 2, 1), expected):
            urn = step(urn, sched, drawn=drawn)
            assert composition(urn) == want
        elapsed = time.perf_counter() - started
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"

        float_urn = UrnState()
        for drawn, want in zip((1, 2, 1), expected):
            float_urn = step(float_urn, Constant(2.0), drawn=drawn)
            got = composition(float_urn)
            assert max(abs(g - float(w)) for g, w in zip(got, want)) <= 1e-12


def test_02_golden_graph():
    with criterion(2, "draws (1,1,2,2) yield exactly the golden edge set"):
        from polyagraph.graphs import graph_from_draws

        graph = graph_from_draws(np.array([1, 1, 2, 2]))
        assert set(map(tuple, graph.edges.tolist())) == {(1, 1), (1, 2), (1, 3), (2, 4), (2, 5)}
        assert len(graph.edges) == 5


def test_03_oracle_equivalence():
    with criterion(3, "tuple-sum distribution matches the path-enumeration "
                      "oracle to 1e-10 for the whole battery, t <= 8, in < 30 s"):
        started = time.perf_counter()
        worst = 0.0
        for _, sched in battery_schedules():
            for t in range(1, 9):
                table = brute_force_table(t, sched)
                for j in range(1, t + 1):
                    got = pmf_general(j, t, sched)
                    gap = float(np.max(np.abs(got.probs - table[j, : t - j + 2])))
                    worst = max(worst, gap)
        elapsed = time.perf_counter() - started
        assert worst <= 1e-10, f"worst gap {worst:.3g}"
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_04_normalization():
    with criterion(4, "exact distributions sum to one: tuple sums to 1e-9 for "
                      "t <= 14, recurrence to 1e-12 up to t = 10000"):
        for _, sched in battery_schedules():
            for t in range(1, 15):
                for j in range(1, t + 1):
                    dev = abs(math.fsum(pmf_general(j, t, sched).probs.tolist()) - 1.0)
                    assert dev <= 1e-9, (j, t, sched, dev)
        for delta in (0.5, 1.0, 2.0):
            for j in (1, 5000, 9999):
                pmf = pmf_constant_delta_dp(j, 10_000, delta)
                dev = abs(math.fsum(pmf.probs.tolist()) - 1.0)
                assert dev <= 1e-12, (j, delta, dev)


def test_05_constant_amount_consistency():
    with criterion(5, "constant-amount routes agree to 1e-10 for t <= 14, and "
                      "the simplified unit form's mismatch is reported"):
        for delta in (0.5, 1.0, 2.0):
            sched = Constant(delta)
            for t in range(1, 15):
                for j in range(1, t + 1):
                    a = pmf_constant_delta(j, t, delta)
                    b = pmf_general(j, t, sched)
                    c = pmf_constant_delta_dp(j, t, delta)
                    assert float(np.max(np.abs(a.probs - b.probs))) <= 1e-10
                    assert float(np.max(np.abs(a.probs - c.probs))) <= 1e-10

        verified = pmf_general(2, 12, Constant(1.0))
        simplified = delta_one_simplified_pmf(2, 12)
        gap = float(np.max(np.abs(simplified.probs - verified.probs)))
        assert gap > 1e-6, "expected the simplified closed form to disagree"
        assert simplified.probs[0] == pytest.approx(
            verified.probs[0] * (2 * 12 / 2**11), rel=1e-12
        )
        print(f"  criterion 5 note: simplified unit-reinforcement closed form "
              f"differs at (j, t) = (2, 12) by max gap {gap:.3g}; "
              f"verified values are authoritative")


def test_06_exact_versus_empirical_counts():
    with criterion(6, "exact law of vertex 2's draw count at t = 12 passes a "
                      "0.001-level chi-square against 10^4 replicates with "
                      "TV <= 0.02 in < 10 s"):
        started = time.perf_counter()
        replicates = 10_000
        exact = pmf_constant_delta_dp(2, 12, 1.0).probs
        hist = draw_count_histogram(2, 12, Constant(1.0), replicates=replicates,
                                    master_seed=60_001)
        tv = 0.5 * float(np.abs(hist / replicates - exact).sum())
        assert tv <= 0.02, f"TV {tv:.4f}"

        p_value = pooled_chi_square_p(exact * replicates, hist)
        elapsed = time.perf_counter() - started
        assert p_value >= 0.001, f"chi-square p = {p_value:.5f}"
        assert elapsed < 10, f"took {elapsed:.1f} s"
        print(f"  criterion 6 note: TV = {tv:.4f}, chi-square p = {p_value:.3f}")


def test_07_power_law_and_baseline_agreement():
    with criterion(7, "unit-reinforcement and baseline runs at t = 5000, "
                      "R = 250 both show tail slope in [-3.5, -2.5] with "
                      "TV <= 0.03 between their degree distributions"):
        started = time.perf_counter()
        polya = run_monte_carlo(
            ExperimentConfig(model="polya", t=5000, replicates=250, seed=70_001,
                             schedule_spec="const:1"),
            threads=2,
        )
        baseline = run_monte_carlo(
            ExperimentConfig(model="ba", t=5000, replicates=250, seed=70_002),
            threads=2,
        )
        dist_polya = degree_distribution(polya)
        dist_ba = degree_distribution(baseline)
        slope_polya = tail_slope(dist_polya, 3, 50)
        slope_ba = tail_slope(dist_ba, 3, 50)
        assert -3.5 <= slope_polya <= -2.5, f"slope {slope_polya:.3f}"
        assert -3.5 <= slope_ba <= -2.5, f"slope {slope_ba:.3f}"

        as_dict_polya = dict(dist_polya)
        as_dict_ba = dict(dist_ba)
        support = set(as_dict_polya) | set(as_dict_ba)
        tv = 0.5 * sum(abs(as_dict_polya.get(k, 0.0) - as_dict_ba.get(k, 0.0))
                       for k in support)
        elapsed = time.perf_counter() - started
        assert tv <= 0.03, f"TV {tv:.4f}"
        assert elapsed < 300, f"took {elapsed:.1f} s"
        print(f"  criterion 7 note: slopes {slope_polya:.3f} / {slope_ba:.3f}, "
              f"TV = {tv:.4f}, {elapsed:.1f} s")


def test_08_composition_equals_degree_share():
    with criterion(8, "at unit reinforcement the urn composition equals the "
                      "degree shares entrywise to 1e-12 at every step to t = 5000"):
        t = 5000
        draws = sample_history(t, Constant(1.0), replicate_generator(80_001, 0))
        weights = np.zeros(t + 2)
        degrees = np.zeros(t + 2, dtype=np.int64)
        weights[1] = 1.0
        degrees[1] = 1
        worst = 0.0
        for n in range(1, t + 1):
            drawn = int(draws[n - 1])
            weights[drawn] += 1.0
            weights[n + 1] = 1.0
            degrees[drawn] += 1
            degrees[n + 1] = 1
            total = 2 * n + 1
            gap = float(np.max(np.abs(weights[1 : n + 2] - degrees[1 : n + 2]))) / total
            worst = max(worst, gap)
        assert worst <= 1e-12, f"worst composition gap {worst:.3g}"


def test_09_birth_time_consistency():
    with criterion(9, "Monte Carlo birth-time totals at t = 12 (R = 10^5) sit "
                      "within 3 standard errors of the exact expectation for "
                      "every degree with >= 50 expected contributors"):
        t = 12
        sched = Constant(1.0)
        replicates = 100_000
        exact = expected_birth_time_table(t, sched)
        contributors = expected_degree_count_table(t, sched)

        births = np.arange(t, dtype=np.float64)
        sums = np.zeros(t + 2)
        squares = np.zeros(t + 2)
        for draws in _replicate_blocks("polya", t, sched, 90_001, 0, replicates):
            # Row i of a block is one replicate; its bins are i·(t+2) .. i·(t+2)+t+1.
            m = len(draws)
            offsets = (t + 2) * np.arange(m)[:, None]
            deg = np.bincount((draws + offsets).ravel(), minlength=m * (t + 2))
            deg = deg.reshape(m, t + 2) + 1
            per_degree = np.bincount((deg[:, 1 : t + 1] + offsets).ravel(),
                                     weights=np.tile(births, m), minlength=m * (t + 2))
            per_degree = per_degree.reshape(m, t + 2)
            sums += per_degree.sum(axis=0)
            squares += (per_degree * per_degree).sum(axis=0)

        checked, worst = 0, 0.0
        for k in range(1, t + 2):
            if replicates * contributors[k] < 50:
                continue
            mean = sums[k] / replicates
            variance = max((squares[k] - replicates * mean**2) / (replicates - 1), 0.0)
            stderr = math.sqrt(variance / replicates)
            gap = abs(mean - exact[k])
            if stderr == 0:
                # Only vertex 1 (birth time 0) can reach this degree, so the
                # per-replicate total is constantly zero, as is the exact value.
                assert gap == 0, f"degree {k}: gap {gap} with zero spread"
            else:
                assert gap <= 3 * stderr, (
                    f"degree {k}: mc {mean:.4f} vs exact {exact[k]:.4f} "
                    f"({gap / stderr:.2f} standard errors)"
                )
                worst = max(worst, gap / stderr)
            checked += 1
        assert checked >= 5, f"only {checked} degrees met the contributor floor"
        print(f"  criterion 9 note: {checked} degrees checked, worst gap "
              f"{worst:.2f} standard errors")


def test_10_byte_identical_reruns(tmp_path, monkeypatch):
    with criterion(10, "experiment reruns with one master seed are "
                       "byte-identical for any thread count"):
        # This run is far below the pool's threshold; lower it, and allow two
        # cores, so that --threads 2 really runs two processes.
        monkeypatch.setattr(experiments, "POOL_MIN_DRAWS", 0)
        monkeypatch.setattr(experiments, "_available_cores", lambda: 2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = paper-f\nt = 300\nreplicates = 20\nseed = 100001\n"
        )
        outputs = []
        for label, threads in (("a", 1), ("b", 2), ("c", 1)):
            out = tmp_path / label
            result = run_cli("experiment", "--config", cfg, "--out", out, "--threads", threads)
            assert result.exit_code == 0
            assert f" {threads} process" in result.stderr
            outputs.append(out)
        for name in ("degree_distribution.csv", "birth_time.csv", "summary.json"):
            blobs = {(out / name).read_bytes() for out in outputs}
            assert len(blobs) == 1, f"{name} differs across runs"
