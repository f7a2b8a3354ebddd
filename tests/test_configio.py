import json

import pytest

from polyagraph.configio import (
    load_config,
    parse_config_text,
    save_config,
    write_outputs,
)
from polyagraph.errors import ConfigError, ScheduleRangeError
from polyagraph.experiments import ExperimentConfig, run_monte_carlo
from polyagraph.seeding import SEED_CONTRACT

MINIMAL = """\
# smoke configuration
model = polya
schedule = const:1
t = 100
replicates = 10
seed = 42
"""


class TestParse:
    def test_minimal_with_defaults(self):
        config = parse_config_text(MINIMAL)
        assert config == ExperimentConfig(
            model="polya", t=100, replicates=10, seed=42, schedule_spec="const:1"
        )
        assert config.outputs == ("degree_distribution", "birth_time", "summary")
        assert config.out is None

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="burnin"):
            parse_config_text(MINIMAL + "burnin = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "seed = 43\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("model = ba\nt = 5\nreplicates = 2\n")

    def test_non_integer(self):
        with pytest.raises(ConfigError, match="replicates"):
            parse_config_text(MINIMAL.replace("replicates = 10", "replicates = many"))

    def test_ba_with_schedule_rejected(self):
        text = MINIMAL.replace("model = polya", "model = ba")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("model polya\n")

    def test_outputs_subset(self):
        config = parse_config_text(MINIMAL + "outputs = summary\n")
        assert config.outputs == ("summary",)

    def test_schedule_must_cover_horizon(self, tmp_path):
        table = tmp_path / "short.txt"
        table.write_text("1\n1\n1\n")
        text = MINIMAL.replace("schedule = const:1", f"schedule = table:{table}")
        with pytest.raises(ScheduleRangeError):
            parse_config_text(text)

    def test_hash_inside_table_path_is_kept(self, tmp_path):
        table = tmp_path / "run#1" / "tab.txt"
        table.parent.mkdir()
        table.write_text("1\n" * 100)
        text = MINIMAL.replace("schedule = const:1", f"schedule = table:{table}")
        assert parse_config_text(text).schedule_spec == f"table:{table}"

    def test_trailing_comment_after_whitespace(self):
        text = MINIMAL.replace("seed = 42", "seed = 42  # note")
        assert parse_config_text(text).seed == 42

    def test_missing_file_is_distinct(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.cfg")


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        config = ExperimentConfig(
            model="polya", t=30, replicates=4, seed=9, schedule_spec="paper-g",
            outputs=("degree_distribution", "summary"), out="results",
        )
        path = save_config(config, tmp_path / "run.cfg")
        assert load_config(path) == config

    def test_ba_round_trip(self, tmp_path):
        config = ExperimentConfig(model="ba", t=12, replicates=2, seed=1)
        assert load_config(save_config(config, tmp_path / "ba.cfg")) == config


class TestWriteOutputs:
    def test_files_and_formats(self, tmp_path):
        config = ExperimentConfig(model="polya", t=9, replicates=3, seed=2,
                                  schedule_spec="const:1")
        result = run_monte_carlo(config, threads=1)
        written = write_outputs(result, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["birth_time.csv", "degree_distribution.csv", "summary.json"]

        degree_text = (tmp_path / "out" / "degree_distribution.csv").read_text()
        lines = degree_text.splitlines()
        assert lines[0] == "k,p"
        parsed = [line.split(",") for line in lines[1:]]
        assert sum(float(p) for _, p in parsed) == pytest.approx(1, abs=1e-12)
        assert all(float(p) == int(float(p) * 30 + 0.5) / 30 for _, p in parsed)
        birth_text = (tmp_path / "out" / "birth_time.csv").read_text()
        assert birth_text.splitlines()[0] == "k,mean_birth_time,n_samples"

        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["model"] == "polya"
        assert summary["config"]["schedule"] == "const:1"
        assert summary["seed"] == 2
        assert summary["seed_contract"] == SEED_CONTRACT == 2
        assert summary["totals"]["total_vertices"] == 3 * 10
        assert summary["totals"]["vertices_per_replicate"] == 10

    def test_rewrite_is_byte_identical(self, tmp_path):
        config = ExperimentConfig(model="ba", t=25, replicates=5, seed=8)
        first = write_outputs(run_monte_carlo(config, threads=1), tmp_path / "a")
        second = write_outputs(run_monte_carlo(config, threads=1), tmp_path / "b")
        for left, right in zip(first, second):
            assert left.read_bytes() == right.read_bytes()

    def test_requested_subset_only(self, tmp_path):
        config = ExperimentConfig(model="ba", t=5, replicates=1, seed=0,
                                  outputs=("summary",))
        written = write_outputs(run_monte_carlo(config, threads=1), tmp_path / "s")
        assert [p.name for p in written] == ["summary.json"]

    def test_seventeen_digit_floats(self, tmp_path):
        from polyagraph.configio import fmt_float

        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(2.0) == "2"
