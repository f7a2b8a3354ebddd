import bisect
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import battery_schedules, enumerate_paths, pooled_chi_square_p
from polyagraph.errors import InvalidColor, ScheduleRangeError
from polyagraph.exact import pmf_general
from polyagraph.graphs import ba_draws
from polyagraph.schedules import Constant, NaturalLog, RationalSegments, Table, parse_schedule
from polyagraph.seeding import as_generator
from polyagraph.urn import (
    checked_draws,
    composition,
    GuideTable,
    UrnState,
    copy_pointer_draws,
    marginal_draw_prob,
    new_urn,
    replay,
    sample_history,
    step,
)

_SCHEDULES = st.sampled_from([sched for _, sched in battery_schedules()])


class TestNewUrn:
    def test_initial_state(self):
        urn = new_urn()
        assert urn.time == 0
        assert urn.weights == (1,)
        assert urn.total_weight == 1
        assert urn.num_colors == 1

    def test_initial_composition(self):
        assert composition(new_urn()) == [1]


class TestForcedPathGolden:
    def test_compositions_are_exact_fractions(self):
        sched = Constant(Fraction(2))
        urn = new_urn()
        urn = step(urn, sched, drawn=1)
        assert composition(urn) == [Fraction(3, 4), Fraction(1, 4)]
        urn = step(urn, sched, drawn=2)
        assert composition(urn) == [Fraction(3, 7), Fraction(3, 7), Fraction(1, 7)]
        urn = step(urn, sched, drawn=1)
        assert composition(urn) == [
            Fraction(5, 10), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10),
        ]

    def test_float_mode_matches_within_tolerance(self):
        sched = Constant(2.0)
        urn = new_urn()
        for drawn, expected in [(1, (0.75, 0.25)),
                                (2, (3 / 7, 3 / 7, 1 / 7)),
                                (1, (0.5, 0.3, 0.1, 0.1))]:
            urn = step(urn, sched, drawn=drawn)
            assert composition(urn) == pytest.approx(expected, abs=1e-12)


class TestStep:
    def test_forced_out_of_range(self):
        with pytest.raises(InvalidColor):
            step(new_urn(), Constant(1.0), drawn=2)

    def test_zero_reinforcement_still_expands(self):
        urn = step(new_urn(), Constant(0.0), drawn=1)
        assert urn.weights == (1, 1)
        assert urn.total_weight == 2

    def test_one_new_color_per_step(self):
        sched = NaturalLog()
        urn = new_urn()
        for t, color in enumerate(sample_history(29, sched, as_generator(5)), start=1):
            urn = step(urn, sched, drawn=int(color))
            assert urn.num_colors == t + 1
            assert urn.weights[-1] == 1

    def test_time_is_read_off_the_weights(self):
        assert [f.name for f in dataclasses.fields(UrnState)] == ["weights", "total_weight"]
        sched = parse_schedule("paper-g")
        draws = sample_history(40, sched, as_generator(4))
        urn = new_urn()
        for t, color in enumerate(draws.tolist(), start=1):
            urn = step(urn, sched, drawn=color)
            replayed = replay(draws, sched, t)
            assert urn.time == urn.num_colors - 1 == t
            assert replayed.time == replayed.num_colors - 1 == t


class TestConditionalDrawPmf:
    """The law of the next draw given the whole past is ``composition``."""

    def test_matches_composition_values(self):
        sched = Constant(2.0)
        urn = step(new_urn(), sched, drawn=1)
        assert composition(urn) == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_sums_to_one(self):
        sched = NaturalLog()
        urn = new_urn()
        for color in sample_history(25, sched, as_generator(9)):
            urn = step(urn, sched, drawn=int(color))
            assert math.fsum(composition(urn)) == pytest.approx(1, abs=1e-12)


class TestNewColorDrawProb:
    """The newest color's draw law: ``marginal_draw_prob(t, t, schedule)``."""

    def test_first_step_is_certain(self):
        for _, sched in battery_schedules():
            assert marginal_draw_prob(1, 1, sched) == 1.0

    @pytest.mark.parametrize("t", [1, 2, 50, 5000])
    def test_is_one_over_the_total_mass(self, t):
        for _, sched in battery_schedules():
            assert marginal_draw_prob(t, t, sched) == 1.0 / (t + sched.cumulative(t)[t - 1])

    def test_time_zero_is_rejected(self):
        with pytest.raises(ValueError):
            marginal_draw_prob(0, 0, Constant(1.0))

    def test_against_composition_entry(self):
        # At time 2 the newest color's mass fraction is unambiguous.
        sched = Constant(2.0)
        urn = step(new_urn(), sched, drawn=1)
        assert marginal_draw_prob(2, 2, sched) == composition(urn)[-1] == 0.25

    def test_against_path_enumeration(self):
        sched = Constant(1.0)
        assert marginal_draw_prob(3, 3, sched) == pytest.approx(0.2, abs=1e-15)
        total = sum(prob for path, prob in enumerate_paths(3, sched) if path[2] == 3)
        assert marginal_draw_prob(3, 3, sched) == pytest.approx(total, abs=1e-12)

    def test_history_independence(self):
        # Every length-2 prefix leads to the same mass on the newest color,
        # which is the law of drawing that color at time 3.
        sched = Constant(2.0)
        masses = set()
        for first in (1,):
            for second in (1, 2):
                urn = new_urn()
                urn = step(urn, sched, drawn=first)
                urn = step(urn, sched, drawn=second)
                masses.add(composition(urn)[-1])
        assert masses == {1 / 7}
        assert marginal_draw_prob(3, 3, sched) == pytest.approx(1 / 7, abs=1e-15)


class TestMarginalDrawProb:
    def test_first_draw(self):
        assert marginal_draw_prob(1, 1, Constant(1.0)) == 1.0

    def test_against_path_enumeration(self):
        assert marginal_draw_prob(1, 3, Constant(1.0)) == pytest.approx(8 / 15, abs=1e-15)
        # The battery, plus two schedules whose amount changes within t <= 6.
        schedules = [sched for _, sched in battery_schedules()] + [
            parse_schedule("step:2=3,4=0,inf=1.5"),
            RationalSegments(ends=(2, 4, math.inf), kinds=("const", "over_t", "const"),
                             params=(2, 6, 0.5)),
        ]
        for sched, t in itertools.product(schedules, range(1, 7)):
            paths = enumerate_paths(t, sched)
            for j in range(1, t + 1):
                total = math.fsum(prob for path, prob in paths if path[t - 1] == j)
                assert abs(marginal_draw_prob(j, t, sched) - total) <= 1e-12, (sched, j, t)

    @pytest.mark.parametrize("t", [1, 2, 5, 9, 17])
    def test_sums_to_one(self, t):
        for _, sched in battery_schedules():
            total = math.fsum(marginal_draw_prob(j, t, sched) for j in range(1, t + 1))
            assert abs(total - 1) <= 1e-10
            for j in range(1, t + 1):
                assert 0 < marginal_draw_prob(j, t, sched) <= 1

    def test_color_after_horizon_rejected(self):
        with pytest.raises(InvalidColor):
            marginal_draw_prob(4, 3, Constant(1.0))


def _stepped(draws, schedule, t):
    urn = new_urn()
    for drawn in draws[:t].tolist():
        urn = step(urn, schedule, drawn=drawn)
    return urn


class TestDrawHistory:
    @pytest.mark.parametrize("spec", ["const", "fraction", "ln", "step", "paper-f", "paper-g",
                                      "table"])
    def test_replay_equals_forced_steps(self, spec):
        if spec == "fraction":
            sched = Constant(Fraction(2))
        elif spec == "table":
            sched = Table(entries=tuple(as_generator(5).random(300) * 4))
        else:
            sched = parse_schedule({"const": "const:0.7", "step": "step:40=0.3,200=2.5,inf=0"}
                                   .get(spec, spec))
        draws = sample_history(300, sched, as_generator(17))
        for t in (0, 1, 150, 300):
            replayed, stepped = replay(draws, sched, t), _stepped(draws, sched, t)
            assert replayed == stepped  # exact for Fractions, bit for bit for floats
            assert type(replayed.total_weight) is type(stepped.total_weight)

    def test_replay_is_linear_time(self):
        for spec in ("ln", "paper-g"):
            sched = parse_schedule(spec)
            urn = replay(sample_history(10**5, sched, as_generator(3)), sched)
            assert urn.time == 10**5 and urn.num_colors == 10**5 + 1

    def test_replay_beyond_the_history_rejected(self):
        with pytest.raises(IndexError):
            replay(np.array([1, 1]), Constant(1.0), 3)

    def test_first_draw_must_be_color_one(self):
        with pytest.raises(InvalidColor):
            replay(np.array([2]), Constant(1.0))

    def test_draws_must_fit_their_time(self):
        with pytest.raises(InvalidColor):
            replay(np.array([1, 3]), Constant(1.0))

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 40), sched=_SCHEDULES)
    @settings(max_examples=40, deadline=None)
    def test_replayed_weights_match_reinforcement_totals(self, seed, t, sched):
        draws = sample_history(t, sched, as_generator(seed))
        urn = replay(draws, sched)
        deltas = sched.values(t)
        for j in range(1, t + 2):
            expected = 1.0
            for n in range(j, t + 1):  # running sum in time order, like the replay
                if draws[n - 1] == j:
                    expected += deltas[n - 1]
            assert urn.weights[j - 1] == expected
        assert urn.total_weight == pytest.approx(1 + t + float(np.sum(deltas)),
                                                 rel=1e-12)
        assert urn.weights[-1] == 1
        assert math.fsum(composition(urn)) == pytest.approx(1, abs=1e-12)


class TestSampleHistory:
    def test_deterministic_per_seed(self):
        sched = parse_schedule("paper-g")
        a = sample_history(500, sched, as_generator(11))
        b = sample_history(500, sched, as_generator(11))
        assert np.array_equal(a, b)

    def test_empty_horizon(self):
        assert len(sample_history(0, Constant(1.0), as_generator(0))) == 0

    @pytest.mark.parametrize("delta, expected", [(1.0, 2 / 3), (2.0, 3 / 4)],
                             ids=["const1", "const2"])
    def test_first_draw_frequencies(self, delta, expected):
        # After the forced first draw, color 1 holds mass 1 + delta of 2 + delta.
        sched = Constant(delta)
        hits = 0
        n = 3000
        for seed in range(n):
            hits += sample_history(2, sched, as_generator(seed))[1] == 1
        assert hits / n == pytest.approx(expected, abs=0.03)

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(0, 60), sched=_SCHEDULES)
    @settings(max_examples=40, deadline=None)
    def test_draws_always_valid(self, seed, t, sched):
        assert len(checked_draws(sample_history(t, sched, as_generator(seed)))) == t

    @pytest.mark.parametrize("t", [0, 1, 12, 500])
    def test_samplers_return_draw_history_arrays(self, t):
        # The one draw-history type: a (t,) int64 array that checked_draws accepts.
        rows = [sample_history(t, sched, as_generator(seed))
                for seed, (_, sched) in enumerate(battery_schedules())]
        rows.append(ba_draws(t, as_generator(t)))
        for draws in rows:
            assert isinstance(draws, np.ndarray)
            assert draws.dtype == np.int64 and draws.shape == (t,)
            checked_draws(draws)

    @pytest.mark.parametrize("t", [0, 1, 2, 50, 500])
    def test_matches_scalar_reference(self, t):
        for seed, (name, sched) in enumerate(battery_schedules()):
            draws = sample_history(t, sched, as_generator(seed))
            expected = _reference_draws(as_generator(seed).random(t), sched)
            assert draws.tolist() == expected, name

    @pytest.mark.parametrize("t", [0, 1, 50])
    def test_block_rows_match_sample_history(self, t):
        # Each row of a block maps like a one-row call on that row's uniforms.
        for name, sched in battery_schedules():
            uniforms = np.stack([as_generator(seed).random(t) for seed in range(7)])
            block = copy_pointer_draws(uniforms, GuideTable(sched.cumulative(t)))
            assert block.shape == (7, t) and block.dtype == np.int64
            for seed, row in enumerate(block):
                assert np.array_equal(row, sample_history(t, sched, as_generator(seed))), name

    @pytest.mark.parametrize("spec, j, t, seed", [
        ("ln", 3, 10, 31),
        ("paper-f", 1, 9, 32),
        ("const:0", 2, 8, 33),
    ])
    def test_draw_count_law(self, spec, j, t, seed):
        # ln at time 1 and every const:0 step reinforce by zero.
        sched = parse_schedule(spec)
        replicates = 5000
        rng = as_generator(seed)
        counts = [np.count_nonzero(sample_history(t, sched, rng) == j) for _ in range(replicates)]
        observed = np.bincount(counts, minlength=t - j + 2)
        expected = pmf_general(j, t, sched).probs * replicates
        assert pooled_chi_square_p(expected, observed) >= 0.001

    @pytest.mark.parametrize("name, sched", [
        *battery_schedules(),
        ("paper-g", parse_schedule("paper-g")),
        ("const:3e15", Constant(3e15)),  # n + S[n-1] rounds, so x - n can land on S[n-1]
    ])
    def test_largest_uniform_stays_valid(self, name, sched):
        # The largest uniform puts x at the top of the urn's mass, where
        # rounding decides which part and which past time it falls in.
        class TopGenerator:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        assert len(checked_draws(sample_history(500, sched, TopGenerator()))) == 500



# Schedules whose cumulative masses stress the guide table: the battery, a
# zero total (const:0), a zero first mass (ln), zero segments, a bucket scale
# near 1e118, and totals near the float limit (overflowing at large t).
_TABLE_SPECS = [name for name, _ in battery_schedules()] + [
    "const:0", "step:3=0,8=2,20=0,inf=5", "step:2=1,6=0,inf=0.5", "paper-g",
    "const:3e-119", "const:1e307",
]
_EDGE_UNIFORMS = (0.0, 1.0 - 2.0**-53)


def _searchsorted_copy_pointer_draws(uniforms, S):
    """The block sampler as it was before the guide table: one binary search per draw."""
    m, t = uniforms.shape
    n = np.arange(1, t + 1)
    x = uniforms * (n + S[:-1])
    copied_from = np.searchsorted(S, x - n, side="right")
    src = np.where(x < n, n, np.minimum(copied_from, n - 1)) - 1
    src = (src + t * np.arange(m)[:, None]).ravel()
    while True:
        nxt = src[src]
        if (nxt == src).all():
            break
        src = nxt
    return x.ravel()[src].astype(np.int64).reshape(m, t) + 1


class TestGuideTable:
    @given(spec=st.sampled_from(_TABLE_SPECS), t=st.sampled_from([0, 1, 2, 12, 5000]),
           seed=st.integers(0, 2**32 - 1),
           edges=st.lists(st.tuples(st.integers(0, 3 * 5000), st.sampled_from(_EDGE_UNIFORMS)),
                          max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_same_copy_sources_and_draws_as_searchsorted(self, spec, t, seed, edges):
        try:
            S = parse_schedule(spec).cumulative(t)
        except ScheduleRangeError:  # const:1e307 overflows past t = 17
            return
        uniforms = as_generator(seed).random((3, t))
        for position, u in edges:
            if t:
                uniforms.flat[position % uniforms.size] = u
        table = GuideTable(S)
        n = np.arange(1, t + 1)
        x = uniforms * (n + S[:-1])
        copies = x >= n
        found = table.search(x - n)
        assert np.array_equal(found[copies],
                              np.searchsorted(S, (x - n)[copies], side="right"))
        assert np.array_equal(copy_pointer_draws(uniforms, table),
                              _searchsorted_copy_pointer_draws(uniforms, S))

    @given(spec=st.sampled_from(_TABLE_SPECS), t=st.integers(0, 300),
           v=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_search_is_searchsorted_for_any_finite_value(self, spec, t, v):
        try:
            S = parse_schedule(spec).cumulative(t)
        except ScheduleRangeError:
            return
        # The entries of S and their float neighbours are where an off-by-one would show.
        v = np.concatenate([v, S, np.nextafter(S, -np.inf), np.nextafter(S, np.inf)])
        v = v[np.isfinite(v)]
        assert np.array_equal(GuideTable(S).search(v), np.searchsorted(S, v, side="right"))

    @pytest.mark.parametrize("S", [[0.0], [0.0, 0.0, 0.0], [0.0, 1e308], [0.0, 1e-320]],
                             ids=["t0", "zero-total", "subnormal-scale", "overflowing-scale"])
    def test_exact_at_extreme_scales(self, S):
        # len(S)/S[-1]: none (t=0 and a zero total), subnormal, and overflowing.
        S = np.array(S)
        v = np.array([-1.0, 0.0, S[-1], np.nextafter(S[-1], np.inf), 1e300])
        assert np.array_equal(GuideTable(S).search(v), np.searchsorted(S, v, side="right"))


def _reference_draws(uniforms, schedule):
    """Scalar copy-pointer inversion: one bisection over the cumulative mass per step."""
    t = len(uniforms)
    S = schedule.cumulative(t).tolist()
    draws = []
    for n, u in enumerate(uniforms.tolist(), start=1):
        x = u * (n + S[n - 1])
        if x < n:
            draws.append(int(x) + 1)
        else:
            source = min(bisect.bisect_right(S, x - n), n - 1)
            draws.append(draws[source - 1])
    return draws
