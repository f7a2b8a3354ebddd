import math

import numpy as np
import pytest

from polyagraph.errors import ScheduleParseError, ScheduleRangeError
from polyagraph.schedules import (
    Constant,
    NaturalLog,
    RationalSegments,
    Stepped,
    Table,
    paper_f,
    paper_g,
    parse_schedule,
)
from polyagraph.seeding import PASS


class TestParse:
    def test_const(self):
        sched = parse_schedule("const:2.5")
        assert sched == Constant(2.5)
        assert sched.value(1) == 2.5
        assert sched.value(10**6) == 2.5

    def test_ln(self):
        sched = parse_schedule("ln")
        assert sched == NaturalLog()
        assert sched.value(1) == 0.0  # zero reinforcement is allowed
        assert sched.value(7) == math.log(7)

    def test_step_right_open_segments(self):
        sched = parse_schedule("step:5=2,10=3,inf=4")
        assert [sched.value(t) for t in (1, 4, 5, 9, 10, 50)] == [2, 2, 3, 3, 4, 4]

    def test_step_final_level_extends(self):
        sched = parse_schedule("step:5=2,10=3")
        assert sched.value(9) == 3
        assert sched.value(10) == 3
        assert sched.value(10**6) == 3

    def test_step_rejects_unsorted(self):
        with pytest.raises(ScheduleParseError):
            parse_schedule("step:10=1,5=2")

    def test_step_rejects_inner_inf(self):
        with pytest.raises(ScheduleParseError):
            parse_schedule("step:inf=1,10=2")

    def test_step_rejects_missing_value(self):
        with pytest.raises(ScheduleParseError):
            parse_schedule("step:10")

    def test_negative_value_is_a_range_error(self):
        with pytest.raises(ScheduleRangeError):
            parse_schedule("const:-1")
        with pytest.raises(ScheduleRangeError):
            parse_schedule("step:10=-0.5")

    def test_unknown_spec_reports_position(self):
        with pytest.raises(ScheduleParseError) as err:
            parse_schedule("bogus:3")
        assert err.value.position == 0

    def test_bad_number_reports_position(self):
        with pytest.raises(ScheduleParseError) as err:
            parse_schedule("const:abc")
        assert err.value.position == len("const:")

    def test_table(self, tmp_path):
        path = tmp_path / "deltas.txt"
        path.write_text("1.0\n0.5\n\n2.0\n")
        sched = parse_schedule(f"table:{path}")
        assert sched == Table(entries=(1.0, 0.5, 2.0))
        assert sched.value(2) == 0.5
        assert sched.values(0).tolist() == []
        with pytest.raises(ScheduleRangeError, match="1..3, got 4"):
            sched.value(4)
        with pytest.raises(ScheduleRangeError):
            sched.values(10)

    def test_table_empty_path_is_a_parse_error(self):
        with pytest.raises(ScheduleParseError) as err:
            parse_schedule("table:")
        assert err.value.position == len("table:")

    @pytest.mark.parametrize("text, error, message", [
        ("1\n\nx\n", ScheduleParseError, "expected a number, got 'x'"),
        ("1\n  \n2\n-1\n", ScheduleRangeError, "negative reinforcement -1.0"),
        ("\n\nnan\n", ScheduleParseError, "non-finite value 'nan'"),
    ], ids=["not-a-number", "negative", "non-finite"])
    def test_table_error_names_the_file_and_its_line(self, tmp_path, text, error, message):
        path = tmp_path / "deltas.txt"
        path.write_text(text)
        lineno = len(text.splitlines())  # the fault is on the last line, after blank ones
        with pytest.raises(error) as err:
            parse_schedule(f"table:{path}")
        assert str(err.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-lines"])
    def test_table_file_without_entries_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "deltas.txt"
        path.write_text(text)
        with pytest.raises(ScheduleParseError) as err:
            parse_schedule(f"table:{path}")
        assert str(err.value) == f"empty table file {path} (at position {len('table:')})"

    def test_table_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_schedule(f"table:{tmp_path / 'nope.txt'}")

    def test_presets(self):
        assert parse_schedule("paper-f") == paper_f()
        assert parse_schedule("paper-g") == paper_g()


class TestPresets:
    def test_stepped_preset_golden(self):
        f = paper_f()
        assert f.value(1) == 1
        assert f.value(999) == 1
        assert f.value(1000) == 10
        assert f.value(1500) == 10
        assert f.value(2499) == 10
        assert f.value(2500) == 100
        assert f.value(5000) == 100
        assert f.value(7000) == 100  # final level extends

    def test_rational_preset_golden(self):
        g = paper_g()
        assert g.value(1) == 10
        assert g.value(1000) == 10  # shared endpoint goes to the earlier segment
        assert g.value(1600) == 6.25
        assert g.value(2000) == 5
        assert g.value(2500) == 5
        assert g.value(3000) == 5
        assert g.value(3500) == 15000 / 3500
        assert g.value(4000) == 3.75
        assert g.value(4500) == 3.75
        assert g.value(5000) == 3.75
        assert g.value(6000) == 3.75  # final level extends

    def test_presets_against_independent_transcription(self):
        def f_ref(t):
            if t < 1000:
                return 1.0
            if t < 2500:
                return 10.0
            return 100.0

        def g_ref(t):
            if t <= 1000:
                return 10.0
            if t <= 2000:
                return 1e4 / t
            if t <= 3000:
                return 5.0
            if t <= 4000:
                return 1.5e4 / t
            return 3.75

        rng = np.random.default_rng(987654)
        times = rng.integers(1, 5001, size=100)
        f, g = paper_f(), paper_g()
        for t in times:
            t = int(t)
            assert f.value(t) == f_ref(t)
            assert g.value(t) == g_ref(t)


class TestEvaluation:
    @pytest.mark.parametrize("spec", ["const:0.5", "const:1", "const:2", "ln",
                                      "paper-f", "paper-g", "step:3=0,7=1.5", "table",
                                      "over-t-first"])
    def test_values_matches_scalar(self, spec, tmp_path):
        if spec == "table":
            path = tmp_path / "deltas.txt"
            path.write_text("".join(f"{n % 7 * 0.25}\n" for n in range(200)))
            sched = parse_schedule(f"table:{path}")
        elif spec == "over-t-first":
            sched = RationalSegments(ends=(10.0, math.inf), kinds=("over_t", "const"),
                                     params=(3.0, 0.5))
        else:
            sched = parse_schedule(spec)
        vec = sched.values(200)
        assert vec.shape == (200,)
        for t in (1, 2, 3, 50, 199, 200):
            assert vec[t - 1] == sched.value(t)
            assert type(sched.value(t)) is float
        for t in (0, -1):  # the urn draws at times t >= 1 only
            with pytest.raises(ScheduleRangeError):
                sched.value(t)

    def test_cumulative_overflow_is_a_range_error(self):
        with pytest.raises(ScheduleRangeError, match="overflows"):
            parse_schedule("const:1e308").cumulative(5)
        assert parse_schedule("const:1e307").cumulative(5)[-1] == 5e307
        # Finite over the first slice of PASS sums, first overflowing in the second.
        assert np.isfinite(parse_schedule("const:3e304").cumulative(PASS)[-1])
        h = 2 * PASS + 1
        with pytest.raises(ScheduleRangeError,
                           match=rf"^total reinforcement over times 1\.\.{h} overflows$"):
            parse_schedule("const:3e304").cumulative(h)

    @pytest.mark.parametrize("spec", ["const:1", "ln", "paper-f", "paper-g"])
    def test_nonnegative_and_finite_over_horizon(self, spec):
        vec = parse_schedule(spec).values(5000)
        assert np.all(np.isfinite(vec))
        assert np.all(vec >= 0)

    def test_cumulative(self, tmp_path):
        sched = parse_schedule("const:2")
        cum = sched.cumulative(5)
        assert cum.tolist() == [0, 2, 4, 6, 8, 10]
        # Summed a slice of PASS times at a time, the prefix sums must equal
        # one whole-array cumsum bit for bit, on both sides of each slice edge.
        table = tmp_path / "masses.txt"
        masses = ((np.arange(9000) % 7) * 0.3 + 0.1).tolist()
        table.write_text("".join(f"{v!r}\n" for v in masses))
        for spec in ("const:0", "const:-0", "const:0.7", "ln", "step:3=1,4096=2.5,inf=0.25",
                     "paper-f", "paper-g", f"table:{table}"):
            sched = parse_schedule(spec)
            for h in (0, 1, PASS - 1, PASS, PASS + 1, 2 * PASS + 1):
                whole = np.concatenate(([0.0], np.cumsum(sched.values(h))))
                assert sched.cumulative(h).tobytes() == whole.tobytes(), (spec, h)

    def test_negative_time_rejected(self):
        with pytest.raises(ScheduleRangeError):
            NaturalLog().value(0)

    @pytest.mark.parametrize("sched", [
        Constant(1.0), NaturalLog(), Stepped(ends=(5.0,), levels=(1.0,)),
        RationalSegments(ends=(math.inf,), kinds=("over_t",), params=(2.0,)),
        Table(entries=(1.0, 2.0)),
    ], ids=lambda sched: type(sched).__name__)
    @pytest.mark.parametrize("horizon", [-1, -3])
    def test_negative_horizon_is_named(self, sched, horizon):
        for evaluate in (sched.values, sched.cumulative):
            with pytest.raises(ScheduleRangeError, match=rf"^horizon must be >= 0, got {horizon}$"):
                evaluate(horizon)
        assert sched.cumulative(0).tolist() == [0.0]

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Stepped(ends=(), levels=()), ValueError,
         "ends and levels must be equal-length and nonempty"),
        (lambda: Stepped(ends=(5.0, 9.0), levels=(1.0,)), ValueError,
         "ends and levels must be equal-length and nonempty"),
        (lambda: Stepped(ends=(9.0, 5.0), levels=(1.0, 2.0)), ValueError,
         "breakpoints not strictly ascending: (9.0, 5.0)"),
        (lambda: Stepped(ends=(5.0,), levels=(-1.0,)), ScheduleRangeError,
         "negative reinforcement in (-1.0,)"),
        (lambda: RationalSegments(ends=(), kinds=(), params=()), ValueError,
         "segment fields must be equal-length and nonempty"),
        (lambda: RationalSegments(ends=(5.0,), kinds=("const", "over_t"), params=(1.0,)),
         ValueError, "segment fields must be equal-length and nonempty"),
        (lambda: RationalSegments(ends=(5.0,), kinds=("weird",), params=(1.0,)), ValueError,
         "unknown segment kind in ('weird',)"),
        (lambda: RationalSegments(ends=(5.0,), kinds=("const",), params=(-2.0,)),
         ScheduleRangeError, "negative reinforcement in (-2.0,)"),
        (lambda: Table(entries=(1.0, -0.5)), ScheduleRangeError,
         "negative reinforcement in table"),
    ], ids=["stepped-empty", "stepped-lengths", "stepped-unsorted", "stepped-negative",
            "segments-empty", "segments-lengths", "segments-kind", "segments-negative",
            "table-negative"])
    def test_bad_record_is_refused(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message
