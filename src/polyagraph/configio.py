"""Experiment config documents and result-file writers.

Config documents are flat ``key = value`` text.  A ``#`` at the start of a
line or after whitespace starts a comment; elsewhere, as in a ``table:``
path, it is part of the value.  Known keys: model, schedule, t, replicates,
seed, outputs, out.  Unknown or duplicate keys are rejected, and the
schedule must evaluate to a finite nonnegative amount at every time up to
the horizon.

Result files (all floats with 17 significant digits):

    degree_distribution.csv   header ``k,p``
    birth_time.csv            header ``k,mean_birth_time,n_samples``
    summary.json              config echo, seed contract and pooled totals
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .experiments import (
    OUTPUT_KINDS,
    ExperimentConfig,
    MonteCarloResult,
    degree_distribution,
)
from .schedules import parse_schedule
from .seeding import SEED_CONTRACT

_KNOWN_KEYS = ("model", "schedule", "t", "replicates", "seed", "outputs", "out")
_INT_KEYS = {"t", "replicates", "seed"}
_COMMENT = re.compile(r"(?:^|\s)#")


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def parse_config_text(text: str, *, source: str = "<config>") -> ExperimentConfig:
    """Parse a config document; see the module docstring for the format."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        raw[key] = value

    for key in ("model", "t", "replicates", "seed"):
        if key not in raw:
            raise ConfigError(f"{source}: missing required key {key!r}")
    values: dict[str, object] = {}
    for key in _INT_KEYS:
        try:
            values[key] = int(raw[key])
        except ValueError:
            raise ConfigError(f"{source}: key {key!r} must be an integer, got {raw[key]!r}") from None
    outputs = OUTPUT_KINDS
    if "outputs" in raw:
        outputs = tuple(part.strip() for part in raw["outputs"].split(",") if part.strip())
    try:
        config = ExperimentConfig(
            model=raw["model"],
            t=values["t"],
            replicates=values["replicates"],
            seed=values["seed"],
            schedule_spec=raw.get("schedule"),
            outputs=outputs,
            out=raw.get("out"),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if config.schedule_spec is not None:
        # Parse now and check the whole horizon; raises its own error classes.
        schedule = parse_schedule(config.schedule_spec)
        amounts = schedule.values(config.t)
        if not np.all(np.isfinite(amounts)) or np.any(amounts < 0):
            raise ConfigError(
                f"{source}: schedule {config.schedule_spec!r} is not finite and "
                f"nonnegative over times 1..{config.t}"
            )
    return config


def load_config(path) -> ExperimentConfig:
    """Load a config document from a file."""
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def config_text(config: ExperimentConfig) -> str:
    lines = [
        f"model = {config.model}",
    ]
    if config.schedule_spec is not None:
        lines.append(f"schedule = {config.schedule_spec}")
    lines.extend(
        [
            f"t = {config.t}",
            f"replicates = {config.replicates}",
            f"seed = {config.seed}",
            f"outputs = {','.join(config.outputs)}",
        ]
    )
    if config.out is not None:
        lines.append(f"out = {config.out}")
    return "\n".join(lines) + "\n"


def save_config(config: ExperimentConfig, path) -> Path:
    """Write a config document; ``load_config`` restores an equal config."""
    path = Path(path)
    path.write_text(config_text(config))
    return path


def config_echo(config: ExperimentConfig) -> dict:
    return {
        "model": config.model,
        "schedule": config.schedule_spec,
        "t": config.t,
        "replicates": config.replicates,
        "seed": config.seed,
        "outputs": list(config.outputs),
    }


def degree_distribution_csv(result: MonteCarloResult) -> str:
    rows = degree_distribution(result.degree_histogram)
    return "k,p\n" + "".join(f"{k},{fmt_float(p)}\n" for k, p in rows)


def birth_time_csv(result: MonteCarloResult) -> str:
    rows = result.birth_time.rows()
    return "k,mean_birth_time,n_samples\n" + "".join(
        f"{k},{fmt_float(mean)},{n}\n" for k, mean, n in rows
    )


def summary_json(result: MonteCarloResult) -> str:
    hist = result.degree_histogram
    payload = {
        "config": config_echo(result.config),
        "seed": result.config.seed,
        "seed_contract": SEED_CONTRACT,
        "totals": {
            "replicates": hist.replicates,
            "vertices_per_replicate": hist.horizon + 1,
            "edges_per_replicate": hist.horizon + 1,
            "total_vertices": hist.total_vertices(),
            "max_degree": max(s.max_degree for s in result.replicate_summaries),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_outputs(result: MonteCarloResult, out_dir) -> list[Path]:
    """Write the requested result files into ``out_dir``; returns the paths.

    File contents are a pure function of the result, so reruns with the same
    seed produce byte-identical files (wall-clock timing is reported on the
    CLI's progress stream instead of here).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    requested = result.config.outputs
    if "degree_distribution" in requested:
        path = out_dir / "degree_distribution.csv"
        path.write_text(degree_distribution_csv(result))
        written.append(path)
    if "birth_time" in requested:
        path = out_dir / "birth_time.csv"
        path.write_text(birth_time_csv(result))
        written.append(path)
    if "summary" in requested:
        path = out_dir / "summary.json"
        path.write_text(summary_json(result))
        written.append(path)
    return written
