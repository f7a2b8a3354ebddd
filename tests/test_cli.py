import json

import pytest
from click.testing import CliRunner

from polyagraph.cli import main


@pytest.fixture(name="runner")
def runner_fixture():
    return CliRunner()


def _invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestGenerate:
    def test_edge_count(self, runner, tmp_path):
        out = tmp_path / "g"
        result = _invoke(runner, "generate", "--t", 4, "--schedule", "const:1",
                         "--seed", 7, "--out", out)
        assert result.exit_code == 0
        edges = (out / "edges.txt").read_text().splitlines()
        assert len(edges) == 5
        assert edges[0] == "1 1"
        degrees = (out / "degrees.csv").read_text().splitlines()
        assert degrees[0] == "vertex,degree,birth_time"
        assert len(degrees) == 6

    def test_horizon_zero(self, runner, tmp_path):
        out = tmp_path / "g0"
        result = _invoke(runner, "generate", "--t", 0, "--out", out)
        assert result.exit_code == 0
        assert (out / "edges.txt").read_text() == "1 1\n"

    def test_same_seed_same_files(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            _invoke(runner, "generate", "--t", 50, "--schedule", "ln",
                    "--seed", 5, "--out", out)
        assert (a / "edges.txt").read_bytes() == (b / "edges.txt").read_bytes()

    def test_replay_golden_graph(self, runner, tmp_path):
        replay = tmp_path / "draws.txt"
        replay.write_text("1\n1\n2\n2\n")
        out = tmp_path / "replayed"
        result = _invoke(runner, "generate", "--replay", replay, "--out", out)
        assert result.exit_code == 0
        assert (out / "edges.txt").read_text() == "1 1\n1 2\n1 3\n2 4\n2 5\n"

    def test_replay_disagreeing_t(self, runner, tmp_path):
        replay = tmp_path / "draws.txt"
        replay.write_text("1 1\n")
        result = runner.invoke(main, ["generate", "--replay", str(replay),
                                      "--t", "5", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_invalid_replay_draws(self, runner, tmp_path):
        replay = tmp_path / "draws.txt"
        replay.write_text("2 1\n")
        result = runner.invoke(main, ["generate", "--replay", str(replay),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestExact:
    def test_stdout_csv(self, runner):
        result = _invoke(runner, "exact", "--j", 2, "--t", 12,
                         "--schedule", "const:1", "--method", "dp")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "k,prob"
        assert len(lines) == 13  # support 0..11
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1, abs=1e-9)

    def test_methods_agree(self, runner, tmp_path):
        values = {}
        for method in ("general", "constant", "dp", "oracle"):
            out = tmp_path / f"{method}.csv"
            result = _invoke(runner, "exact", "--j", 2, "--t", 8,
                             "--schedule", "const:1", "--method", method, "--out", out)
            assert result.exit_code == 0
            rows = out.read_text().splitlines()[1:]
            values[method] = [float(row.split(",")[1]) for row in rows]
        for method in ("constant", "dp", "oracle"):
            assert values[method] == pytest.approx(values["general"], abs=1e-10)

    def test_k_filter(self, runner):
        result = _invoke(runner, "exact", "--j", 3, "--t", 6, "--k", 0,
                         "--schedule", "const:2", "--method", "general")
        lines = result.output.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_color_after_horizon_is_usage_error(self, runner):
        result = runner.invoke(main, ["exact", "--j", 5, "--t", 3])
        assert result.exit_code == 2

    def test_cap_exceeded_exit_code(self, runner):
        result = runner.invoke(main, ["exact", "--j", 1, "--t", 30,
                                      "--schedule", "ln", "--method", "general"])
        assert result.exit_code == 3
        assert "cap" in result.output

    def test_dp_requires_constant_schedule(self, runner):
        result = runner.invoke(main, ["exact", "--j", 1, "--t", 5,
                                      "--schedule", "ln", "--method", "dp"])
        assert result.exit_code == 2


class TestExperiment:
    def test_from_config_file(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = const:1\nt = 60\nreplicates = 5\nseed = 12\n"
        )
        out = tmp_path / "results"
        result = _invoke(runner, "experiment", "--config", cfg, "--out", out,
                         "--threads", 1)
        assert result.exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "birth_time.csv", "degree_distribution.csv", "summary.json",
        ]

    def test_inline_flags_only(self, runner, tmp_path):
        out = tmp_path / "inline"
        result = _invoke(runner, "experiment", "--model", "ba", "--t", 40,
                         "--replicates", 3, "--seed", 9, "--out", out, "--threads", 1)
        assert result.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["model"] == "ba"

    def test_missing_required_inline(self, runner, tmp_path):
        result = runner.invoke(main, ["experiment", "--model", "ba",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_override_to_baseline_drops_schedule(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = ln\nt = 30\nreplicates = 2\nseed = 1\n"
        )
        out = tmp_path / "ba-out"
        result = _invoke(runner, "experiment", "--config", cfg, "--model", "ba",
                         "--out", out, "--threads", 1)
        assert result.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["schedule"] is None

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = polya\nschedule = paper-g\nt = 80\nreplicates = 6\nseed = 77\n"
        )
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            _invoke(runner, "experiment", "--config", cfg, "--out", out, "--threads", 1)
        for name in ("degree_distribution.csv", "birth_time.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_negative_inline_seed(self, runner, tmp_path, threads):
        result = _invoke(runner, "experiment", "--model", "ba", "--t", 5,
                         "--replicates", 3, "--seed", -1, "--out", tmp_path / "neg",
                         "--threads", threads)
        assert result.exit_code == 2
        assert "seed must be >= 0, got -1" in result.output
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_negative_config_seed(self, runner, tmp_path, threads):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = polya\nschedule = const:1\nt = 5\nreplicates = 3\nseed = -5\n")
        result = _invoke(runner, "experiment", "--config", cfg, "--out", tmp_path / "neg",
                         "--threads", threads)
        assert result.exit_code == 2
        assert "seed must be >= 0, got -5" in result.output
        assert not (tmp_path / "neg").exists()


class TestRepro:
    def test_fig3(self, runner, tmp_path):
        out = tmp_path / "fig3"
        result = _invoke(runner, "repro", "fig3", "--out", out)
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["empirical_pmf.csv", "exact_pmf.csv", "summary.json"]
        exact_rows = (out / "exact_pmf.csv").read_text().splitlines()[1:]
        empirical_rows = (out / "empirical_pmf.csv").read_text().splitlines()[1:]
        assert len(exact_rows) == 12 and len(empirical_rows) == 12
        exact = [float(r.split(",")[1]) for r in exact_rows]
        empirical = [float(r.split(",")[1]) for r in empirical_rows]
        tv = 0.5 * sum(abs(a - b) for a, b in zip(exact, empirical))
        assert tv < 0.05  # frozen seed, R = 1000

    def test_degree_figure_smoke(self, runner, tmp_path):
        out = tmp_path / "deg"
        result = _invoke(runner, "repro", "degree-ln", "--out", out,
                         "--t", 200, "--replicates", 4, "--threads", 1)
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "degree_distribution_ba.csv", "degree_distribution_polya.csv", "summary.json",
        ]

    def test_birthtime_smoke(self, runner, tmp_path):
        out = tmp_path / "bt"
        result = _invoke(runner, "repro", "birthtime-all", "--out", out,
                         "--t", 60, "--replicates", 2, "--threads", 1)
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "birth_time_ba.csv", "birth_time_delta1.csv", "birth_time_f.csv",
            "birth_time_g.csv", "birth_time_ln.csv", "summary.json",
        ]

    def test_unknown_figure(self, runner, tmp_path):
        result = runner.invoke(main, ["repro", "fig9", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
