import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pooled_chi_square_p, run_cli
from polyagraph import cli, errors
from polyagraph.experiments import OUTPUT_KINDS, _replicate_blocks
from polyagraph.schedules import Schedule, parse_schedule


def test_every_polyagraph_error_is_a_value_error():
    # The CLI turns a ValueError into exit code 2, after CapExceeded into 3.
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert errors.CapExceeded in classes
    for cls in classes:
        assert cls is errors.PolyagraphError or issubclass(cls, ValueError), cls


# Command lines the parser rejects, each with a word its message must name;
# ``{tmp}`` is the test's directory, which holds a valid ``run.cfg``.
_BAD_COMMAND_LINES = {
    "no-command": ([], "COMMAND"),
    "unknown-command": (["frob"], "frob"),
    "non-integer": (["generate", "--t", "x", "--out", "{tmp}/o"], "--t"),
    "unknown-option": (["generate", "--t", "3", "--bogus", "--out", "{tmp}/o"], "--bogus"),
    "abbreviated-option": (["experiment", "--config", "{tmp}/run.cfg", "--out", "{tmp}/o",
                            "--th", "1"], "--th"),
    "missing-config": (["experiment", "--config", "{tmp}/none.cfg", "--out", "{tmp}/o"],
                       "--config"),
    "config-is-a-directory": (["experiment", "--config", "{tmp}", "--out", "{tmp}/o"],
                              "--config"),
    "missing-replay": (["generate", "--replay", "{tmp}/none.txt", "--out", "{tmp}/o"],
                       "--replay"),
    "generate-out-is-a-file": (["generate", "--t", "3", "--out", "{tmp}/run.cfg"], "--out"),
    "repro-out-is-a-file": (["repro", "fig3", "--out", "{tmp}/run.cfg"], "--out"),
    "exact-out-is-a-directory": (["exact", "--j", "1", "--t", "3", "--out", "{tmp}"], "--out"),
    "unknown-method": (["exact", "--j", "1", "--t", "3", "--method", "fast"], "--method"),
    "method-constant": (["exact", "--j", "1", "--t", "3", "--method", "constant"], "--method"),
    "missing-required-option": (["exact", "--t", "3"], "--j"),
    "threads-not-an-integer": (["experiment", "--config", "{tmp}/run.cfg", "--out", "{tmp}/o",
                                "--threads", "abc"],
                               "argument --threads: invalid int value: 'abc'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_COMMAND_LINES))
def test_bad_command_line_is_usage_error(tmp_path, case):
    args, named = _BAD_COMMAND_LINES[case]
    (tmp_path / "run.cfg").write_text("model = ba\nt = 5\nreplicates = 2\nseed = 1\n")
    result = run_cli(*(arg.replace("{tmp}", str(tmp_path)) for arg in args))
    assert result.exit_code == 2
    assert "error" in result.stderr and named in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "o").exists()
    assert result.stdout == ""


@pytest.mark.parametrize("args, usage", [(["--help"], "usage: polyagraph [-h] COMMAND"),
                                         (["experiment", "--help"],
                                          "usage: polyagraph experiment [-h]")])
def test_help_exits_0(args, usage):
    result = run_cli(*args)
    assert result.exit_code == 0
    assert result.stdout.startswith(usage)


class TestGenerate:
    def test_edge_count(self, tmp_path):
        out = tmp_path / "g"
        result = run_cli("generate", "--t", 4, "--schedule", "const:1",
                         "--seed", 7, "--out", out)
        assert result.exit_code == 0
        edges = (out / "edges.txt").read_text().splitlines()
        assert len(edges) == 5
        assert edges[0] == "1 1"
        degrees = (out / "degrees.csv").read_text().splitlines()
        assert degrees[0] == "vertex,degree,birth_time"
        assert len(degrees) == 6

    def test_horizon_zero(self, tmp_path):
        out = tmp_path / "g0"
        result = run_cli("generate", "--t", 0, "--out", out)
        assert result.exit_code == 0
        assert (out / "edges.txt").read_text() == "1 1\n"

    def test_negative_horizon_is_usage_error(self, tmp_path):
        result = run_cli("generate", "--t", "-1", "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert result.stderr == "error: horizon must be >= 0, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_same_seed_same_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("generate", "--t", 50, "--schedule", "ln",
                    "--seed", 5, "--out", out)
        assert (a / "edges.txt").read_bytes() == (b / "edges.txt").read_bytes()

    def test_replay_golden_graph(self, tmp_path):
        replay = tmp_path / "draws.txt"
        replay.write_text("1\n1\n2\n2\n")
        out = tmp_path / "replayed"
        result = run_cli("generate", "--replay", replay, "--out", out)
        assert result.exit_code == 0
        assert (out / "edges.txt").read_text() == "1 1\n1 2\n1 3\n2 4\n2 5\n"

    def test_replay_disagreeing_t(self, tmp_path):
        replay = tmp_path / "draws.txt"
        replay.write_text("1 1\n")
        result = run_cli("generate", "--replay", replay,
                         "--t", "5", "--out", tmp_path / "x")
        assert result.exit_code == 2

    def test_invalid_replay_draws(self, tmp_path):
        replay = tmp_path / "draws.txt"
        for text, message in [("2 1\n", "the first draw must be color 1"),
                              ("0 1\n", "the first draw must be color 1"),
                              ("1 x\n", f"{replay}: draw 'x' is not an integer"),
                              ("1 1.5\n", f"{replay}: draw '1.5' is not an integer")]:
            replay.write_text(text)
            result = run_cli("generate", "--replay", replay,
                             "--out", tmp_path / "x")
            assert result.exit_code == 2, text
            assert message in result.stderr, text
            assert "Traceback" not in result.stderr


    def test_replay_draw_beyond_int64_is_usage_error(self, tmp_path):
        replay = tmp_path / "draws.txt"
        replay.write_text("1 99999999999999999999999\n")
        result = run_cli("generate", "--replay", replay,
                         "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert "exceeds int64" in result.stderr
        assert "Traceback" not in result.stderr

    def test_neither_horizon_nor_replay_is_usage_error(self, tmp_path):
        result = run_cli("generate", "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert result.stderr == "Error: --t is required unless --replay is given\n"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_is_usage_error(self, tmp_path):
        result = run_cli("generate", "--t", "5", "--seed", "-1",
                         "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert "seed must be >= 0, got -1" in result.stderr

    def test_empty_table_path_is_usage_error(self, tmp_path):
        result = run_cli("generate", "--t", "5", "--schedule", "table:",
                         "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert "empty table path" in result.stderr

    def test_overflowing_schedule_is_usage_error(self, tmp_path):
        result = run_cli("generate", "--t", "5", "--schedule", "const:1e308",
                         "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert "overflows" in result.stderr

    def test_history_is_replicate_zero_of_experiment(self, tmp_path):
        # Both read the master seed's one stream from its first draw.
        run_cli("generate", "--t", 40, "--schedule", "paper-g", "--seed", 17,
                "--out", tmp_path / "g")
        edges = (tmp_path / "g" / "edges.txt").read_text().splitlines()[1:]
        draws = [int(edge.split()[0]) for edge in edges]
        block = next(_replicate_blocks("polya", 40, parse_schedule("paper-g"), 17, 0, 3))
        assert draws == block[0].tolist()

        run_cli("experiment", "--model", "polya", "--schedule", "paper-g",
                "--t", 40, "--replicates", 1, "--seed", 17, "--out", tmp_path / "e")
        degrees = [int(row.split(",")[1]) for row in
                   (tmp_path / "g" / "degrees.csv").read_text().splitlines()[1:]]
        rows = (tmp_path / "e" / "degree_distribution.csv").read_text().splitlines()[1:]
        expected = sorted({k: degrees.count(k) / 41 for k in degrees}.items())
        assert [(int(k), float(p)) for k, p in (row.split(",") for row in rows)] == expected


class TestExact:
    def test_stdout_csv(self):
        result = run_cli("exact", "--j", 2, "--t", 12,
                         "--schedule", "const:1", "--method", "dp")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "k,prob"
        assert len(lines) == 13  # support 0..11
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1, abs=1e-9)

    def test_methods_agree(self, tmp_path):
        values = {}
        for method in ("general", "dp", "oracle"):
            out = tmp_path / f"{method}.csv"
            result = run_cli("exact", "--j", 2, "--t", 8,
                             "--schedule", "const:1", "--method", method, "--out", out)
            assert result.exit_code == 0
            rows = out.read_text().splitlines()[1:]
            values[method] = [float(row.split(",")[1]) for row in rows]
        for method in ("dp", "oracle"):
            assert values[method] == pytest.approx(values["general"], abs=1e-10)

    def test_k_filter(self):
        result = run_cli("exact", "--j", 3, "--t", 6, "--k", 0,
                         "--schedule", "const:2", "--method", "general")
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_outside_the_support_is_usage_error(self, k):
        result = run_cli("exact", "--j", 3, "--t", 5, "--k", k)
        assert result.exit_code == 2
        assert result.stderr == f"Error: k={k} outside the support 0..3\n"
        assert result.stdout == ""

    def test_color_after_horizon_is_usage_error(self):
        result = run_cli("exact", "--j", 5, "--t", 3)
        assert result.exit_code == 2

    def test_cap_exceeded_exit_code(self):
        result = run_cli("exact", "--j", 1, "--t", 30,
                         "--schedule", "ln", "--method", "general")
        assert result.exit_code == 3
        assert "cap" in result.stderr

    @pytest.mark.parametrize("method", ["general", "dp", "oracle"])
    def test_overflowing_schedule_is_usage_error(self, method):
        result = run_cli("exact", "--j", 1, "--t", 5,
                         "--schedule", "const:1e308", "--method", method)
        assert result.exit_code == 2
        assert "error: total reinforcement over times 1..5 overflows" in result.stderr
        assert "Traceback" not in result.stderr
        assert "nan" not in result.stderr

    def test_out_of_memory_is_usage_error(self, monkeypatch):
        # numpy raises MemoryError (as _ArrayMemoryError) for an array too
        # large to allocate, such as the cumulative masses of this horizon.
        def too_large(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "pmf_dp", too_large)
        result = run_cli("exact", "--j", 2, "--t", 99999999999, "--method", "dp")
        assert result.exit_code == 2
        assert "error: Unable to allocate 745. GiB" in result.stderr
        assert "Traceback" not in result.stderr

    def test_dp_requires_constant_schedule(self):
        result = run_cli("exact", "--j", 1, "--t", 5,
                         "--schedule", "ln", "--method", "dp")
        assert result.exit_code == 2

    @pytest.mark.parametrize("j, code", [(1, 2), (7, 2), (8, 0), (9, 0)])
    def test_dp_runs_where_the_window_is_flat(self, j, code):
        # ln's amount varies at every time, so only colors t-1 and t have a flat window.
        result = run_cli("exact", "--j", j, "--t", 9, "--schedule", "ln", "--method", "dp")
        assert result.exit_code == code
        if code:
            assert result.stderr == (f"error: the amount varies over color {j}'s window, times "
                                     f"{j}..8, so pmf_dp does not apply; use pmf_general\n")

    def test_dp_on_a_late_paper_f_vertex(self):
        # Vertex 2501's window lies in paper-f's last segment, past the general route's cap.
        result = run_cli("exact", "--j", 2501, "--t", 5000, "--schedule", "paper-f",
                         "--method", "dp")
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 2502  # the header and counts 0..2500


class TestExperiment:
    def test_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = const:1\nt = 60\nreplicates = 5\nseed = 12\n"
        )
        out = tmp_path / "results"
        result = run_cli("experiment", "--config", cfg, "--out", out,
                         "--threads", 1)
        assert result.exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "birth_time.csv", "degree_distribution.csv", "summary.json",
        ]

    def test_inline_flags_only(self, tmp_path):
        out = tmp_path / "inline"
        result = run_cli("experiment", "--model", "ba", "--t", 40,
                         "--replicates", 3, "--seed", 9, "--out", out, "--threads", 1)
        assert result.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["model"] == "ba"

    def test_missing_required_inline(self, tmp_path):
        result = run_cli("experiment", "--model", "ba",
                         "--out", tmp_path / "x")
        assert result.exit_code == 2

    def test_override_to_baseline_drops_schedule(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = ln\nt = 30\nreplicates = 2\nseed = 1\n"
        )
        out = tmp_path / "ba-out"
        result = run_cli("experiment", "--config", cfg, "--model", "ba",
                         "--out", out, "--threads", 1)
        assert result.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["schedule"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = paper-g\nt = 80\nreplicates = 6\nseed = 77\n"
        )
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            run_cli("experiment", "--config", cfg, "--out", out, "--threads", 1)
        for name in ("degree_distribution.csv", "birth_time.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_negative_inline_seed(self, tmp_path, threads):
        result = run_cli("experiment", "--model", "ba", "--t", 5,
                         "--replicates", 3, "--seed", -1, "--out", tmp_path / "neg",
                         "--threads", threads)
        assert result.exit_code == 2
        assert "seed must be >= 0, got -1" in result.stderr
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_negative_config_seed(self, tmp_path, threads):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = polya\nschedule = const:1\nt = 5\nreplicates = 3\nseed = -5\n")
        result = run_cli("experiment", "--config", cfg, "--out", tmp_path / "neg",
                         "--threads", threads)
        assert result.exit_code == 2
        assert "seed must be >= 0, got -5" in result.stderr
        assert not (tmp_path / "neg").exists()

    def test_progress_names_the_processes_that_ran(self, tmp_path):
        # 40·3 draws are below POOL_MIN_DRAWS, so --threads 2 runs in-process;
        # acceptance 10 checks the pooled line.
        result = run_cli("experiment", "--model", "ba", "--t", 40,
                         "--replicates", 3, "--seed", 9, "--out", tmp_path / "o",
                         "--threads", 2)
        assert result.exit_code == 0
        assert result.stderr.startswith("ba t=40 R=3: wrote ")
        assert result.stderr.endswith("s, 1 process)\n")

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        result = run_cli("experiment", "--model", "ba", "--t", "5",
                         "--replicates", "2", "--seed", "1",
                         "--out", tmp_path / "x", "--threads", threads)
        assert result.exit_code == 2
        assert "--threads" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_no_output_directory_is_usage_error(self):
        result = run_cli("experiment", "--model", "ba", "--t", 5, "--replicates", 2, "--seed", 1)
        assert result.exit_code == 2
        assert result.stderr == ("Error: an output directory is required "
                                 "(--out or out= in the config)\n")

    def test_run_whose_sums_could_wrap_is_usage_error(self, tmp_path, monkeypatch):
        # Refused while the config is read, before any work: the stand-ins for
        # the run's routes stop a run the check lets through.
        def stop(*args, **kwargs):
            raise _Stop

        for name in ("run_monte_carlo", "pmf_dp", "draw_count_histogram"):
            monkeypatch.setattr(cli, name, stop)
        flags = ["--t", 10**7, "--out", tmp_path / "o"]
        for args in (["experiment", "--model", "ba", "--seed", 1, *flags],
                     ["repro", "degree-ln", *flags], ["repro", "fig3", *flags]):
            result = run_cli(*args, "--replicates", 2 * 10**5)
            assert result.exit_code == 2, args
            assert result.stderr.startswith(
                "error: command line: replicates=200000 at t=10000000 could overflow the "
                "int64 pooled sums: "), args
            assert not (tmp_path / "o").exists()
        with pytest.raises(_Stop):
            run_cli("experiment", "--model", "ba", "--seed", 1, *flags, "--replicates", 18 * 10**4)

    def test_empty_outputs_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ba\nt = 5\nreplicates = 2\nseed = 1\noutputs = ,\n")
        result = run_cli("experiment", "--config", cfg,
                         "--out", tmp_path / "x", "--threads", "1")
        assert result.exit_code == 2
        assert "outputs must name at least one" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_repeated_outputs_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ba\nt = 5\nreplicates = 2\nseed = 1\noutputs = summary,summary\n")
        result = run_cli("experiment", "--config", cfg,
                         "--out", tmp_path / "x", "--threads", "1")
        assert result.exit_code == 2
        assert "more than once" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_empty_table_path_is_usage_error(self, tmp_path):
        result = run_cli("experiment", "--model", "polya", "--schedule", "table:",
                         "--t", "5", "--replicates", "2", "--seed", "1",
                         "--out", tmp_path / "x", "--threads", "1")
        assert result.exit_code == 2
        assert "empty table path" in result.stderr

    @pytest.mark.parametrize("route", ["--out", "config"])
    def test_output_directory_that_is_a_file_is_usage_error(self, tmp_path, monkeypatch, route):
        # Both routes reach one check of the merged config, before the run.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ba\nt = 5\nreplicates = 2\nseed = 1\n"
                       + ("out = afile\n" if route == "config" else ""))
        args = ["--out", "afile"] if route == "--out" else []
        result = run_cli("experiment", "--config", cfg, "--threads", 1, *args)
        assert result.exit_code == 2
        assert result.stderr == "Error: output directory 'afile' is a file\n"
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_table_path_is_relative_to_the_config_file(self, tmp_path, monkeypatch):
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "tab.txt").write_text("1\n" * 30)
        cfg = tmp_path / "cfg" / "run.cfg"
        cfg.write_text("model = polya\nschedule = table:tab.txt\nt = 30\nreplicates = 2\n"
                       "seed = 1\nout = results\n")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        result = run_cli("experiment", "--config", cfg, "--threads", 1)
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "elsewhere" / "results" / "summary.json").read_text())
        assert summary["config"]["schedule"] == f"table:{tmp_path / 'cfg' / 'tab.txt'}"
        # An inline --schedule keeps resolving against the working directory.
        result = run_cli("experiment", "--config", cfg,
                         "--schedule", "table:tab.txt", "--threads", "1")
        assert result.exit_code == 4
        assert "No such file" in result.stderr


    def test_flags_that_leave_the_schedule_alone_do_not_check_it_again(self, tmp_path,
                                                                       monkeypatch):
        # Reading the config checks the schedule over the horizon and the run
        # builds its prefix sums: --out changes neither, so no third build.
        horizons = []
        cumulative = Schedule.cumulative

        def counted(schedule, horizon):
            horizons.append(horizon)
            return cumulative(schedule, horizon)

        monkeypatch.setattr(Schedule, "cumulative", counted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = polya\nschedule = ln\nt = 30\nreplicates = 2\nseed = 1\n")
        result = run_cli("experiment", "--config", cfg, "--out", tmp_path / "o", "--threads", 1)
        assert result.exit_code == 0
        assert horizons == [30, 30]

    def test_horizon_flag_past_a_config_table_is_a_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tab.txt").write_text("1\n1\n1\n")
        (tmp_path / "run.cfg").write_text("model = polya\nschedule = table:tab.txt\nt = 3\n"
                                          "replicates = 2\nseed = 1\n")
        result = run_cli("experiment", "--config", "run.cfg", "--t", 5, "--out", "o",
                         "--threads", 1)
        assert result.exit_code == 2
        assert result.stderr == "error: command line: table covers times 1..3, got 5\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("route", ["--schedule", "config"])
    @pytest.mark.parametrize("line, message", [
        ("x", "expected a number, got 'x'"), ("-1", "negative reinforcement -1.0"),
    ], ids=["not-a-number", "negative"])
    def test_table_file_error_names_the_file_and_its_line(self, tmp_path, monkeypatch,
                                                         route, line, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tab.txt").write_text(f"1\n\n{line}\n")
        (tmp_path / "run.cfg").write_text("model = polya\nschedule = table:tab.txt\nt = 3\n"
                                          "replicates = 2\nseed = 1\n")
        args = (["--config", "run.cfg"] if route == "config" else
                ["--model", "polya", "--schedule", "table:tab.txt", "--t", 3,
                 "--replicates", 2, "--seed", 1])
        result = run_cli("experiment", *args, "--out", "x", "--threads", 1)
        assert result.exit_code == 2
        # The config's directory is the working one, so both routes name tab.txt,
        # after the config line or the command line that gave the schedule.
        where = "run.cfg:2" if route == "config" else "command line"
        assert result.stderr == f"error: {where}: tab.txt:3: {message}\n"
        assert not (tmp_path / "x").exists()


class _Stop(Exception):
    """Raised in place of the run, so a test sees the config the CLI built."""


# One value per config flag of ``experiment``, on top of a valid polya config.
_BASE = {"model": "polya", "schedule": "const:1", "t": "5", "replicates": "2", "seed": "1",
         "out": "o"}
_CHANGES = {"model": "ba", "schedule": "ln", "t": "7", "replicates": "3", "seed": "9",
            "out": "elsewhere"}


class TestFlagsAndFiles:
    """Config flags and config files go through one reader, ``configio.read_config``."""

    @staticmethod
    def _routes(tmp_path, values):
        """The ``experiment`` arguments that give ``values`` by a config file and by flags."""
        lines = "".join(f"{key} = {text}\n" for key, text in values.items())
        (tmp_path / "run.cfg").write_text(lines)
        flags = [arg for key, text in values.items() for arg in (f"--{key}", text)]
        return {"config": ["--config", "run.cfg"], "flags": flags}

    @pytest.mark.parametrize("key", sorted(_CHANGES))
    def test_file_and_flags_build_equal_configs(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        values = {**_BASE, key: _CHANGES[key]}
        if values["model"] == "ba":
            del values["schedule"]
        seen = {}

        def capture(config, threads):
            seen[route] = config
            raise _Stop

        monkeypatch.setattr(cli, "run_monte_carlo", capture)
        for route, args in self._routes(tmp_path, values).items():
            with pytest.raises(_Stop):
                run_cli("experiment", *args, "--threads", 1)
        assert seen["config"] == seen["flags"]
        assert getattr(seen["flags"], "schedule_spec" if key == "schedule" else key) == (
            int(_CHANGES[key]) if key in ("t", "replicates", "seed") else _CHANGES[key])

    @pytest.mark.parametrize("changes, body", [
        ({"t": "x"}, "key 't' must be an integer, got 'x'"),
        ({"model": "urn"}, "model must be one of ('polya', 'ba'), got 'urn'"),
        ({"seed": "-1"}, "seed must be >= 0, got -1"),
        ({"schedule": "table:short.txt"}, "table covers times 1..3, got 5"),
        ({"schedule": "table:short.txt", "t": "5000"}, "table covers times 1..3, got 5000"),
    ], ids=["bad-integer", "unknown-model", "negative-seed", "short-table",
            "short-table-past-a-pass"])
    def test_bad_value_gives_one_message_by_both_routes(self, tmp_path, monkeypatch,
                                                        changes, body):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "short.txt").write_text("1\n1\n1\n")
        for route, args in self._routes(tmp_path, {**_BASE, **changes}).items():
            result = run_cli("experiment", *args, "--threads", 1)
            assert result.exit_code == 2, route
            source = {"config": "run.cfg: ", "flags": "command line: "}[route]
            assert result.stderr.replace(source, "", 1) == f"error: {body}\n", route
            assert not (tmp_path / "o").exists(), route

    def test_empty_flag_value_is_rejected(self, tmp_path, monkeypatch):
        # An empty --out named the working directory and wrote the results there.
        monkeypatch.chdir(tmp_path)
        result = run_cli("experiment", "--model", "ba", "--t", 5, "--replicates", 2,
                         "--seed", 1, "--out", "", "--threads", 1)
        assert result.exit_code == 2
        assert result.stderr == "error: command line: empty value for 'out'\n"
        assert list(tmp_path.iterdir()) == []


class TestRepro:
    def test_fig3(self, tmp_path):
        out = tmp_path / "fig3"
        result = run_cli("repro", "fig3", "--out", out)
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["empirical_pmf.csv", "exact_pmf.csv", "summary.json"]
        exact_rows = (out / "exact_pmf.csv").read_text().splitlines()[1:]
        empirical_rows = (out / "empirical_pmf.csv").read_text().splitlines()[1:]
        assert len(exact_rows) == 12 and len(empirical_rows) == 12
        # The frozen sample (seed 130312, R = 1000) against the exact law: the
        # acceptance suite's pooled chi-square at the 0.001 level.
        replicates = 1000
        expected = [replicates * float(r.split(",")[1]) for r in exact_rows]
        observed = [round(replicates * float(r.split(",")[1])) for r in empirical_rows]
        assert sum(observed) == replicates
        assert pooled_chi_square_p(expected, observed) >= 0.001

    def test_degree_figure_smoke(self, tmp_path):
        out = tmp_path / "deg"
        result = run_cli("repro", "degree-ln", "--out", out,
                         "--t", 200, "--replicates", 4, "--threads", 1)
        assert result.exit_code == 0
        assert result.stderr.splitlines()[:2] == ["repro degree-ln: finished polya (1 process)",
                                                  "repro degree-ln: finished ba (1 process)"]
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "degree_distribution_ba.csv", "degree_distribution_polya.csv", "summary.json",
        ]

    def test_birthtime_smoke(self, tmp_path):
        out = tmp_path / "bt"
        result = run_cli("repro", "birthtime-all", "--out", out,
                         "--t", 60, "--replicates", 2, "--threads", 1)
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "birth_time_ba.csv", "birth_time_delta1.csv", "birth_time_f.csv",
            "birth_time_g.csv", "birth_time_ln.csv", "summary.json",
        ]

    @pytest.mark.parametrize("figure", ["fig3", "degree-ln"])
    @pytest.mark.parametrize("flag, text", [("--t", "-1"), ("--replicates", "x")])
    def test_bad_override_creates_no_output_directory(self, tmp_path, figure, flag, text):
        result = run_cli("repro", figure, "--out", tmp_path / "x", flag, text)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: command line: ")
        assert not (tmp_path / "x").exists()

    def test_unknown_figure(self, tmp_path):
        result = run_cli("repro", "fig9", "--out", tmp_path / "x")
        assert result.exit_code == 2

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        result = run_cli("repro", "fig3", "--out", tmp_path / "x",
                         "--threads", threads)
        assert result.exit_code == 2
        assert "--threads" in result.stderr


# Schedule strings near the grammar: keywords, numbers after ``const:``,
# breakpoint lists after ``step:`` and free text after a prefix.  ``table:``
# is left out, since it reads files.
_NUMBER = st.one_of(st.integers(-3, 10**6).map(str), st.floats().map(repr),
                    st.text(alphabet="0123456789.-+eEinfa", max_size=6))
_SCHEDULE_TEXT = st.one_of(
    st.sampled_from(["ln", "paper-f", "paper-g", " ln ", "LN", "paper-h"]),
    _NUMBER.map("const:{}".format),
    st.lists(st.tuples(_NUMBER, _NUMBER).map("=".join) | _NUMBER, min_size=1,
             max_size=4).map(lambda pairs: "step:" + ",".join(pairs)),
    st.tuples(st.sampled_from(["", "const:", "step:", "paper-"]),
              st.text(alphabet="0123456789.,=-+eEinfa: ", max_size=16)).map("".join),
).filter(lambda spec: not spec.strip().startswith("table:"))
# Values with no digits, so no key can be set to a large integer by accident.
_JUNK = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs"),
                                       blacklist_characters="\r\n\x0b\x0c\x1c\x1d\x1e"
                                                            "\x85\u2028\u2029"),
                min_size=1, max_size=8)
_NEAR_VALUES = {
    "model": st.sampled_from(["polya", "ba", "urn"]),
    "schedule": st.sampled_from(["ln", "paper-f", "const:0", "step:3=0.5,inf=2"]) | _SCHEDULE_TEXT,
    "t": st.integers(-2, 30).map(str),
    "replicates": st.integers(-1, 4).map(str),
    "seed": st.integers(-5, 2**70).map(str),
    "outputs": st.lists(st.sampled_from([*OUTPUT_KINDS, "", " ", "plots"]),
                        min_size=1, max_size=4).map(",".join),
}


@st.composite
def _config_text(draw):
    """A valid config with up to two keys dropped or changed, and a stray line."""
    model = draw(st.sampled_from(["polya", "ba"]))
    entries = {"model": model, "t": str(draw(st.integers(0, 30))),
               "replicates": str(draw(st.integers(1, 4))),
               "seed": str(draw(st.integers(0, 2**70)))}
    if model == "polya":
        entries["schedule"] = draw(_NEAR_VALUES["schedule"])
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(_NEAR_VALUES)))
        change = draw(st.sampled_from(["drop", "near", "junk"]))
        if change == "drop":
            entries.pop(key, None)
        else:
            entries[key] = draw(_NEAR_VALUES[key] if change == "near" else _JUNK)
    lines = [f"{key} = {value}" for key, value in entries.items()]
    lines += draw(st.lists(_JUNK | _JUNK.map("burnin = {}".format) | st.just("seed = 3"),
                           max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


class TestGrammarFuzz:
    """Malformed schedules and configs exit 2 with a message, never a traceback."""

    @staticmethod
    def _check(result):
        assert result.exit_code in (0, 2), result.stderr
        if result.exit_code == 2:
            assert "Traceback" not in result.stderr
            assert "error" in result.stderr.lower()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=_SCHEDULE_TEXT)
    def test_schedule_grammar(self, tmp_path, spec):
        self._check(run_cli("generate", "--t", "6", "--schedule", spec,
                            "--seed", "3", "--out", tmp_path / "g"))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_config_text())
    def test_config_grammar(self, tmp_path, text):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(text)
        self._check(run_cli("experiment", "--config", cfg,
                            "--out", tmp_path / "out", "--threads", "1"))
