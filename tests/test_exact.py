import math

import numpy as np
import pytest

from conftest import battery_schedules, enumerate_paths
from polyagraph import exact
from polyagraph.errors import CapExceeded, InvalidColor, ScheduleRangeError
from polyagraph.exact import (
    Pmf,
    brute_force_pmf,
    brute_force_table,
    delta_one_simplified_pmf,
    normalization_check,
    pmf_constant_delta,
    pmf_constant_delta_dp,
    pmf_dp,
    pmf_general,
)
from polyagraph.schedules import Constant, NaturalLog, paper_f, paper_g, parse_schedule

# Two schedules with flat windows of every length at small horizons, and
# different amounts before them.
STEPS = [(spec, parse_schedule(spec)) for spec in ("step:3=1,7=4,inf=2.5",
                                                   "step:5=1,12=10,inf=100")]


def _flat(j, t, schedule):
    """Whether the amount is the same at every time of color j's window, j..t-1."""
    deltas = schedule.values(t)
    return bool(np.all(deltas[j - 1:t - 1] == deltas[j - 1]))


class TestPmfGeneral:
    def test_newest_color_zero_draws(self):
        for _, sched in battery_schedules():
            for t in (1, 3, 7):
                cum = float(np.sum(sched.values(t - 1))) if t > 1 else 0.0
                expected = (t - 1 + cum) / (t + cum)
                assert pmf_general(t, t, sched).probs[0] == pytest.approx(
                    expected, abs=1e-12
                )

    def test_two_step_example(self):
        pmf = pmf_general(2, 2, Constant(1.0))
        assert pmf.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_matches_oracle(self, battery):
        for _, sched in battery:
            for t in range(1, 7):
                table = brute_force_table(t, sched)
                for j in range(1, t + 1):
                    got = pmf_general(j, t, sched)
                    assert np.max(np.abs(got.probs - table[j, : t - j + 2])) <= 1e-12

    def test_split_states_match_oracles(self, battery, monkeypatch):
        # Past 4 subset states the pass halves its set, so every window of
        # 4 or more is carried on in halves.
        monkeypatch.setattr(exact, "_SPLIT", 4)
        for _, sched in [*battery, ("paper-g", paper_g())]:
            for t in range(1, 8):
                table = brute_force_table(t, sched)
                paths = enumerate_paths(t, sched)
                for j in range(1, t + 1):
                    got = pmf_general(j, t, sched).probs
                    masses = np.zeros(t - j + 2)
                    for path, prob in paths:
                        masses[path.count(j)] += prob
                    assert np.max(np.abs(got - table[j, : t - j + 2])) <= 1e-12
                    assert np.max(np.abs(got - masses)) <= 1e-12

    def test_normalized_at_the_cap(self):
        pmf = pmf_general(3, 27, NaturalLog())  # window 25, split at the default size
        assert normalization_check(pmf) <= 1e-12

    def test_color_out_of_range(self):
        with pytest.raises(InvalidColor):
            pmf_general(4, 3, Constant(1.0))
        with pytest.raises(InvalidColor):
            pmf_general(0, 3, Constant(1.0))

    def test_cap(self):
        with pytest.raises(CapExceeded) as err:
            pmf_general(1, 26, Constant(1.0))
        assert "Monte Carlo" in str(err.value)
        pmf_general(15, 30, Constant(1.0))  # window 16 is under the cap


class TestPmfConstant:
    def test_zero_reinforcement_closed_form(self):
        # With no reinforcement the process picks uniformly among colors, and
        # the no-draw probability telescopes to (j-1)/t.
        for j, t in [(2, 5), (3, 9), (7, 12)]:
            pmf = pmf_constant_delta(j, t, 0.0)
            assert pmf.probs[0] == pytest.approx((j - 1) / t, abs=1e-12)

    def test_matches_general(self):
        for delta in (0.5, 1.0, 2.0, 10.0):
            sched = Constant(delta)
            for t in (1, 4, 8, 10):
                for j in range(1, t + 1):
                    a = pmf_constant_delta(j, t, delta)
                    b = pmf_general(j, t, sched)
                    assert np.max(np.abs(a.probs - b.probs)) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pmf_constant_delta(1, 3, -1.0)


class TestRecurrence:
    def test_matches_enumeration(self):
        for delta in (0.5, 1.0, 2.0, 10.0):
            for t in (1, 5, 10):
                for j in range(1, t + 1):
                    a = pmf_constant_delta_dp(j, t, delta)
                    b = pmf_constant_delta(j, t, delta)
                    assert np.max(np.abs(a.probs - b.probs)) <= 1e-10

    def test_newest_color_two_point_law(self):
        for delta in (0.5, 1.0, 3.0):
            for t in (2, 6, 11):
                total = t + (t - 1) * delta
                pmf = pmf_constant_delta_dp(t, t, delta)
                assert pmf.probs == pytest.approx(
                    [(total - 1) / total, 1 / total], abs=1e-14
                )

    def test_conserves_mass_at_large_horizon(self):
        pmf = pmf_constant_delta_dp(1, 2000, 1.0)
        assert normalization_check(pmf) <= 1e-12

    def test_no_cap(self):
        pmf_constant_delta_dp(1, 40, 2.0)  # window 40 would exceed the sum's cap

    def test_bit_identical_to_the_closed_form_chain(self):
        # At 0.3 the cumulative masses and (n-1)*0.3 differ in the last bit,
        # so this pins the closed-form denominator n + (n-1)*delta.
        delta = 0.3
        for j, t in [(1, 50), (2, 12), (7, 400), (300, 1000), (9, 9)]:
            probs = np.zeros(t - j + 2)
            probs[0] = 1.0
            ks = np.arange(t - j + 2, dtype=float)
            for n in range(j, t + 1):
                q = (1.0 + ks * delta) / (n + (n - 1) * delta)
                moved = probs * q
                probs = probs * (1.0 - q)
                probs[1:] += moved[:-1]
            assert np.array_equal(pmf_constant_delta_dp(j, t, delta).probs, probs), (j, t)
            assert np.array_equal(pmf_dp(j, t, Constant(delta)).probs, probs), (j, t)


class TestFlatWindowRecurrence:
    def test_matches_general_on_every_flat_window(self, battery):
        seen = set()
        for spec, sched in [*battery, *STEPS]:
            for t in range(1, 22):
                for j in range(1, t + 1):
                    if not _flat(j, t, sched):
                        continue
                    got = pmf_dp(j, t, sched).probs
                    assert np.max(np.abs(got - pmf_general(j, t, sched).probs)) <= 1e-12
                    seen.add((spec, t - j))
        # ln is flat only over a window of at most one time, j >= t-1; the
        # longest window of the second step schedule is 12..20, after both breaks.
        assert {gap for spec, gap in seen if spec == "ln"} == {0, 1}
        assert max(gap for spec, gap in seen if spec == STEPS[1][0]) == 9

    def test_matches_oracle(self):
        for _, sched in [("ln", NaturalLog()), *STEPS]:
            for t in range(1, 10):
                table = brute_force_table(t, sched)
                for j in range(1, t + 1):
                    if _flat(j, t, sched):
                        got = pmf_dp(j, t, sched).probs
                        assert np.max(np.abs(got - table[j, : t - j + 2])) <= 1e-10

    def test_window_that_is_not_flat_is_refused(self):
        with pytest.raises(ScheduleRangeError, match=r"times 1\.\.4, .* use pmf_general"):
            pmf_dp(1, 5, NaturalLog())
        with pytest.raises(ScheduleRangeError, match=r"times 2499\.\.4999"):
            pmf_dp(2499, 5000, paper_f())  # the amount rises to 100 at time 2500

    def test_late_vertex_under_paper_f(self):
        # Vertex 2501's window lies in paper-f's last segment, past the sum's cap.
        law = pmf_dp(2501, 5000, paper_f())
        assert normalization_check(law) <= 1e-12
        assert law.probs[19:].sum() == pytest.approx(1.26e-3, rel=0.01)  # P(degree >= 20)


class TestDeltaOne:
    def test_matches_recurrence(self):
        for t in range(1, 13):
            for j in range(1, t + 1):
                a = pmf_general(j, t, Constant(1.0))
                b = pmf_constant_delta_dp(j, t, 1.0)
                assert np.max(np.abs(a.probs - b.probs)) <= 1e-10

    def test_factorial_identity(self):
        for k in range(6):
            product = 1.0
            for a in range(1, k + 1):
                product *= 1 + (a - 1) * 1.0
            assert product == math.factorial(k)

    def test_simplified_form_zero_draw_ratio(self):
        # The simplified zero-draw term overstates the verified one by
        # exactly 2t / 2**(t-j+1) for colors >= 2.
        for j, t in [(2, 5), (3, 8), (5, 12)]:
            good = pmf_general(j, t, Constant(1.0))
            alt = delta_one_simplified_pmf(j, t)
            assert alt.probs[0] == pytest.approx(
                good.probs[0] * (2 * t / 2 ** (t - j + 1)), rel=1e-12
            )

    def test_simplified_form_color_one_zero_draws(self):
        # The gamma ratio's pole makes the zero-draw term vanish for color 1,
        # which agrees with the verified law there.
        alt = delta_one_simplified_pmf(1, 6)
        assert alt.probs[0] == 0.0
        assert pmf_general(1, 6, Constant(1.0)).probs[0] == 0.0


class TestOracle:
    def test_single_step(self):
        pmf = brute_force_pmf(1, 1, Constant(1.0))
        assert pmf.probs.tolist() == [0.0, 1.0]

    def test_rows_are_distributions(self, battery):
        for _, sched in battery:
            table = brute_force_table(5, sched)
            for j in range(1, 6):
                assert math.fsum(table[j].tolist()) == pytest.approx(1, abs=1e-12)

    def test_matches_independent_path_replay(self):
        sched = paper_g()
        t = 5
        table = brute_force_table(t, sched)
        for j in range(1, t + 1):
            masses = np.zeros(t + 1)
            for path, prob in enumerate_paths(t, sched):
                masses[sum(1 for c in path if c == j)] += prob
            assert np.max(np.abs(table[j] - masses)) <= 1e-12

    def test_known_path_mass(self):
        # With amount 2, P(color 2 drawn exactly once through time 3) is the
        # mass of the paths (1,2,1), (1,2,3), (1,1,2): 3/28 + 1/28 + 3/28.
        pmf = brute_force_pmf(2, 3, Constant(2.0))
        assert pmf.probs[1] == pytest.approx(7 / 28, abs=1e-14)

    @pytest.mark.parametrize("t", [0, -2])
    def test_horizon_below_one_is_refused(self, t):
        with pytest.raises(ValueError, match=rf"^horizon must be >= 1, got {t}$"):
            brute_force_table(t, Constant(1.0))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_pmf(1, 10, Constant(1.0))


class TestNormalizationCheck:
    def test_hand_built_deficit(self):
        pmf = Pmf(color=2, horizon=2, probs=np.array([0.5, 0.4]))
        assert normalization_check(pmf) == pytest.approx(0.1, abs=1e-15)

    def test_exact_paths_are_normalized(self, battery):
        for _, sched in battery:
            for t in (1, 4, 8, 10):
                for j in range(1, t + 1):
                    assert normalization_check(pmf_general(j, t, sched)) <= 1e-9

    def test_pmf_shape_is_validated(self):
        with pytest.raises(ValueError):
            Pmf(color=1, horizon=3, probs=np.array([1.0, 0.0]))

    def test_support(self):
        pmf = pmf_constant_delta_dp(3, 10, 1.0)
        assert pmf.support.tolist() == list(range(9))
        assert len(pmf.probs) == 9
