import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyagraph.configio import (
    config_text,
    load_config,
    parse_config_text,
    write_outputs,
)
from polyagraph.errors import ConfigError
from polyagraph.experiments import OUTPUT_KINDS, ExperimentConfig, run_monte_carlo
from polyagraph.rowtext import CHUNK_ROWS, row_chunks, rows_text
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
        for t in (100, 5000):  # 5000 lies past the first slice of the prefix sums
            text = MINIMAL.replace("schedule = const:1", f"schedule = table:{table}").replace(
                "t = 100", f"t = {t}")
            message = rf"^<config>: table covers times 1\.\.3, got {t}$"
            with pytest.raises(ConfigError, match=message):
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

    def test_empty_outputs_rejected(self):
        with pytest.raises(ConfigError, match="outputs must name at least one"):
            parse_config_text(MINIMAL + "outputs = ,\n")

    def test_repeated_outputs_rejected(self):
        with pytest.raises(ConfigError, match="more than once: summary,summary"):
            parse_config_text(MINIMAL + "outputs = summary,summary\n")

    def test_schedule_total_must_be_finite(self):
        text = MINIMAL.replace("schedule = const:1", "schedule = const:1e308")
        with pytest.raises(ConfigError, match="^<config>: total reinforcement .* overflows$"):
            parse_config_text(text)

    @pytest.mark.parametrize("spec, message", [
        ("bogus", "unrecognized schedule spec 'bogus' (at position 0)"),
        ("const:-1", "negative reinforcement -1.0"),
    ])
    def test_schedule_fault_names_its_line(self, spec, message):
        text = MINIMAL.replace("schedule = const:1", f"schedule = {spec}")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, source="run.cfg")
        assert str(err.value) == f"run.cfg:3: {message}"

    def test_table_path_is_relative_to_the_config_file(self, tmp_path, monkeypatch):
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "tab.txt").write_text("0.5\n" * 100)
        (tmp_path / "cfg" / "run.cfg").write_text(
            MINIMAL.replace("schedule = const:1", "schedule = table:tab.txt"))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        config = load_config("../cfg/run.cfg")
        assert config.schedule_spec == "table:../cfg/tab.txt"
        assert config.schedule().values(100).tolist() == [0.5] * 100
        # Text parsed without a file keeps the working directory.
        with pytest.raises(FileNotFoundError):
            parse_config_text((tmp_path / "cfg" / "run.cfg").read_text())


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        config = ExperimentConfig(
            model="polya", t=30, replicates=4, seed=9, schedule_spec="paper-g",
            outputs=("degree_distribution", "summary"), out="results",
        )
        path = tmp_path / "run.cfg"
        path.write_text(config_text(config))
        assert load_config(path) == config

    def test_ba_round_trip(self, tmp_path):
        config = ExperimentConfig(model="ba", t=12, replicates=2, seed=1)
        path = tmp_path / "ba.cfg"
        path.write_text(config_text(config))
        assert load_config(path) == config

    def test_saved_text_key_order(self):
        config = ExperimentConfig(
            model="polya", t=30, replicates=4, seed=9, schedule_spec="paper-g",
            outputs=("degree_distribution", "summary"), out="results",
        )
        assert config_text(config) == (
            "model = polya\nschedule = paper-g\nt = 30\nreplicates = 4\nseed = 9\n"
            "outputs = degree_distribution,summary\nout = results\n"
        )
        config = ExperimentConfig(model="ba", t=12, replicates=2, seed=1)
        assert config_text(config) == (
            "model = ba\nt = 12\nreplicates = 2\nseed = 1\n"
            "outputs = degree_distribution,birth_time,summary\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_text_round_trip(self, data):
        model = data.draw(st.sampled_from(["polya", "ba"]))
        schedule = None
        if model == "polya":
            schedule = data.draw(st.one_of(
                st.sampled_from(["ln", "paper-f", "paper-g"]),
                st.floats(0, 1e12).map(lambda x: f"const:{x!r}"),
                st.lists(st.tuples(st.integers(1, 10**6), st.floats(0, 1e6)), min_size=1,
                         max_size=4, unique_by=lambda pair: pair[0]).map(
                    lambda pairs: "step:" + ",".join(f"{t}={v!r}" for t, v in sorted(pairs))),
            ))
        config = ExperimentConfig(
            model=model,
            schedule_spec=schedule,
            t=data.draw(st.integers(0, 300)),
            replicates=data.draw(st.integers(1, 10**9)),
            seed=data.draw(st.integers(0, 2**80)),
            outputs=tuple(data.draw(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1,
                                             unique=True))),
            out=data.draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        )
        assert parse_config_text(config_text(config)) == config


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
        assert summary["seed_contract"] == SEED_CONTRACT == 3
        assert summary["totals"]["max_degree"] == max(int(k) for k, _ in parsed)
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

    def test_rows_text_matches_format_17g(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.random(2000) * 10.0 ** rng.integers(-300, 300, 2000),
            [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2e-308, 1.7976931348623157e308],
        ])
        k = np.arange(len(values))
        expected = "".join(f"{i},{format(float(v), '.17g')}\n" for i, v in zip(k, values))
        assert rows_text("%d,%.17g\n", k, values) == expected

    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunks_join_to_the_one_shot_text(self, rows):
        k = np.arange(rows)
        values = np.sqrt(k) / 3
        one_shot = ("%d,%.17g\n" * rows) % tuple(chain.from_iterable(zip(k.tolist(),
                                                                          values.tolist())))
        chunks = list(row_chunks("%d,%.17g\n", k, values))
        assert [chunk.count("\n") for chunk in chunks] == (
            [CHUNK_ROWS] * (rows // CHUNK_ROWS) + [rows % CHUNK_ROWS] * (rows % CHUNK_ROWS > 0))
        assert "".join(chunks) == rows_text("%d,%.17g\n", k, values) == one_shot

    def test_rows_text_of_no_rows_is_empty(self):
        assert rows_text("%d,%.17g,%d\n", np.array([], dtype=np.int64), [], []) == ""

    def test_zero_horizon_birth_time_is_header_only(self, tmp_path):
        config = ExperimentConfig(model="ba", t=0, replicates=3, seed=0)
        write_outputs(run_monte_carlo(config, threads=1), tmp_path)
        assert (tmp_path / "birth_time.csv").read_text() == "k,mean_birth_time,n_samples\n"
        assert (tmp_path / "degree_distribution.csv").read_text() == "k,p\n1,1\n"

    def test_seventeen_digit_floats(self, tmp_path):
        assert rows_text("%d,%.17g\n", [1, 2, 3], [1 / 3, 0.5, 2.0]) == (
            "1,0.33333333333333331\n2,0.5\n3,2\n")
