"""Experiment config documents and result-file writers.

Config values have one reader, ``read_config``: config documents and the
config flags of the CLI's ``experiment`` and ``repro`` all go through it.
The keys are the fields of ``ExperimentConfig``, in its order, with
``schedule`` for ``schedule_spec``: a field without a default is required
(unless the values are read over a base config), an ``int`` field must be an
integer, and ``outputs`` is a comma-separated list that may neither be empty
nor name a kind twice.  Unknown or duplicate keys are rejected, ``model =
ba`` drops a base's schedule, and the schedule must cover the horizon with
a finite total mass.  A document is flat ``key = value`` text; a ``#`` at
the start of a line or after whitespace starts a comment, elsewhere, as in
a ``table:`` path, it is part of the value.  A relative ``table:`` path in
a config file is resolved against the file's directory.

Result files: every CSV row the CLI writes comes from whole columns through
``rowtext`` (floats with 17 significant digits), every JSON file from ``json_text``.

    degree_distribution.csv   header ``k,p``
    birth_time.csv            header ``k,mean_birth_time,n_samples``
    summary.json              config echo, seed contract and pooled totals,
                              with max_degree read off the pooled degree counts
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError, ScheduleRangeError
from .experiments import ExperimentConfig, MonteCarloResult, degree_distribution
from .records import replace
from .rowtext import rows_text
from .schedules import parse_schedule
from .seeding import SEED_CONTRACT

# Config keys are ExperimentConfig's field names, but for this one rename.
_KEY_OF_FIELD = {"schedule_spec": "schedule"}
_FIELD_OF_KEY = {_KEY_OF_FIELD.get(name, name): name for name in ExperimentConfig._fields}
CONFIG_KEYS = tuple(_FIELD_OF_KEY)
_COMMENT = re.compile(r"(?:^|\s)#")


def pmf_csv(k, probs, column: str = "prob") -> str:
    """``k,<column>`` CSV of a law over the draw counts or degrees ``k``."""
    return f"k,{column}\n" + rows_text("%d,%.17g\n", k, probs)


def json_text(payload) -> str:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_config_text(text: str, *, source: str = "<config>", base_dir=None) -> ExperimentConfig:
    """Parse a config document; see the module docstring for the format.

    A relative ``table:`` path is resolved against ``base_dir`` when given.
    """
    def entries():  # (source:line, key, value) of each line that holds more than a comment
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = _COMMENT.split(line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            yield f"{source}:{lineno}", key, value

    return read_config(entries(), None, source, base_dir)


def read_config(entries, base: ExperimentConfig | None, source: str, base_dir) -> ExperimentConfig:
    """The config that ``(where, key, text)`` entries give, over ``base`` unless it is None.

    An entry's own fault is reported at its ``where``, any other at ``source``.
    ``base`` is a config this reader returned, so its schedule is checked
    again only when an entry sets ``schedule``, ``t`` or ``model``.
    """
    raw: dict[str, str] = {}
    wheres: dict[str, str] = {}
    for where, key, text in entries:
        if key not in _FIELD_OF_KEY:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not text:
            raise ConfigError(f"{where}: empty value for {key!r}")
        raw[key], wheres[key] = text, where
    missing = [key for key, name in _FIELD_OF_KEY.items()
               if name not in ExperimentConfig._field_defaults and key not in raw]
    if missing and base is None:
        raise ConfigError(f"{source}: missing required key {missing[0]!r}")
    values = {_FIELD_OF_KEY[key]: _field_value(key, text, source) for key, text in raw.items()}
    spec = values.get("schedule_spec", "")
    if base_dir is not None and spec.startswith("table:") and spec != "table:":
        values["schedule_spec"] = f"table:{Path(base_dir) / spec[len('table:'):]}"
    if values.get("model") == "ba":
        values.setdefault("schedule_spec", None)  # a base's schedule does not carry over
    try:
        config = ExperimentConfig(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    # Parsed now and checked over the whole horizon, unless the base's check still holds.
    recheck = base is None or {"schedule", "t", "model"} & raw.keys()
    if config.schedule_spec is not None and recheck:
        try:
            schedule = parse_schedule(config.schedule_spec)
        except ValueError as exc:  # a fault of the schedule entry's own text
            raise ConfigError(f"{wheres.get('schedule', source)}: {exc}") from None
        try:
            schedule.cumulative(config.t)
        except ScheduleRangeError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    return config


def _field_value(key: str, text: str, source: str):
    kind = ExperimentConfig._fields[_FIELD_OF_KEY[key]]
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{source}: key {key!r} must be an integer, got {text!r}") from None
    if kind.startswith("tuple["):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    return text


def load_config(path) -> ExperimentConfig:
    """Load a config document from a file; its ``table:`` paths are relative to it."""
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path), base_dir=path.parent)


def config_text(config: ExperimentConfig) -> str:
    """The config document of ``config``; ``parse_config_text`` restores an equal config.

    Written to a file, a relative ``table:`` path is read as relative to that file.
    """
    lines = []
    for key, name in _FIELD_OF_KEY.items():
        value = getattr(config, name)
        if isinstance(value, tuple):
            value = ",".join(value)
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_echo(config: ExperimentConfig) -> dict:
    """Every config key but ``out``, for the JSON summaries."""
    return {key: getattr(config, name) for key, name in _FIELD_OF_KEY.items() if key != "out"}


def degree_distribution_csv(result: MonteCarloResult) -> str:
    return pmf_csv(*zip(*degree_distribution(result)), column="p")


def birth_time_csv(result: MonteCarloResult) -> str:
    return "k,mean_birth_time,n_samples\n" + rows_text("%d,%.17g,%d\n", *result.birth_time_table())


def summary_json(result: MonteCarloResult) -> str:
    t = result.config.t
    payload = {
        "config": config_echo(result.config),
        "seed": result.config.seed,
        "seed_contract": SEED_CONTRACT,
        "totals": {
            "replicates": result.config.replicates,
            "vertices_per_replicate": t + 1,
            "edges_per_replicate": t + 1,
            "total_vertices": int(result.counts.sum()),
            "max_degree": int(np.flatnonzero(result.counts)[-1]),
        },
    }
    return json_text(payload)


def write_outputs(result: MonteCarloResult, out_dir) -> list[Path]:
    """Write the requested result files into ``out_dir``; returns the paths.

    File contents are a pure function of the result, so reruns with the same
    seed produce byte-identical files (wall-clock timing is reported on the
    CLI's progress stream instead of here).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, writer in (("degree_distribution.csv", degree_distribution_csv),
                         ("birth_time.csv", birth_time_csv), ("summary.json", summary_json)):
        path = out_dir / name
        if path.stem in result.config.outputs:
            path.write_text(writer(result))
            written.append(path)
    return written
