"""Command-line interface.

Subcommands: ``generate`` (one graph), ``exact`` (a draw-count distribution),
``experiment`` (a replicated Monte Carlo run), and ``repro`` (bundled
figure-reproduction experiments with frozen configurations).

Progress goes to standard error; data goes to files or standard output.
Exit codes: 0 success, 2 bad arguments, malformed inputs or a horizon too
large for memory, 3 enumeration cap exceeded, 4 I/O failure.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from pathlib import Path

# numpy's bundled OpenBLAS starts worker threads when it loads, and they spin
# idle: the CLI makes no multithreaded BLAS call (its parallelism is the
# replicate pool), so cap BLAS before the first import that loads numpy.
# A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's
# libcrypto (~3.4 MB resident) although the CLI computes no hash.  Without
# _hashlib, hmac and hashlib use their built-in implementations.  A process
# that already imported _hashlib keeps it.
sys.modules.setdefault("_hashlib", None)

import click
import numpy as np

from .configio import (
    birth_time_csv,
    config_echo,
    degree_distribution_csv,
    json_text,
    load_config,
    parse_config_text,
    pmf_csv,
    write_outputs,
)
from .errors import CapExceeded, InvalidColor
from .exact import (
    brute_force_pmf,
    pmf_constant_delta,
    pmf_constant_delta_dp,
    pmf_general,
)
from .experiments import (
    POOL_MIN_DRAWS,
    ExperimentConfig,
    draw_count_histogram,
    run_monte_carlo,
)
from .graphs import generate as generate_graph, graph_from_draws
from .schedules import Constant, parse_schedule


def _handled(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CapExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3) from exc
        except ValueError as exc:  # every other polyagraph error is a ValueError
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2) from exc
        except MemoryError as exc:  # a horizon whose arrays do not fit in memory
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            raise SystemExit(2) from exc
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(4) from exc

    return wrapper


@click.group()
def main():
    """Grow preferential-attachment graphs from an expanding-color urn."""


@main.command("generate")
@click.option("--t", type=int, default=None, help="Number of growth steps.")
@click.option("--schedule", "schedule_spec", default="const:1", show_default=True,
              help="Reinforcement schedule string.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--replay", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              default=None, help="File of forced draw colors (one per step) to "
                                 "rebuild a specific graph instead of sampling.")
@_handled
def cmd_generate(t, schedule_spec, seed, out, replay):
    """Write one graph as an edge list plus a vertex/degree/birth-time table."""
    schedule = parse_schedule(schedule_spec)
    started = time.perf_counter()
    if replay is not None:
        try:
            draws = np.array([int(tok) for tok in replay.read_text().split()], dtype=np.int64)
        except OverflowError:
            raise InvalidColor(f"{replay}: a draw exceeds int64, so it is not a color") from None
        if t is not None and t != len(draws):
            raise click.UsageError(f"--t {t} disagrees with {len(draws)} replay draws")
        graph = graph_from_draws(draws)
    else:
        if t is None:
            raise click.UsageError("--t is required unless --replay is given")
        if t < 0:
            raise click.UsageError(f"--t must be >= 0, got {t}")
        _, graph = generate_graph(t, schedule, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "edges.txt").write_text(graph.edge_list_text())
    (out / "degrees.csv").write_text(graph.degree_table_text())
    elapsed = time.perf_counter() - started
    click.echo(
        f"wrote {graph.num_vertices} vertices, {len(graph.edges)} edges to {out} "
        f"({elapsed:.3f}s)",
        err=True,
    )


@main.command("exact")
@click.option("--j", type=int, required=True, help="Color / vertex index.")
@click.option("--t", type=int, required=True, help="Horizon.")
@click.option("--schedule", "schedule_spec", default="const:1", show_default=True)
@click.option("--method", type=click.Choice(["general", "constant", "dp", "oracle"]),
              default="general", show_default=True)
@click.option("--k", type=int, default=None,
              help="Emit only the row for this draw count.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Output CSV path (default: standard output).")
@_handled
def cmd_exact(j, t, schedule_spec, method, k, out):
    """Write the exact draw-count distribution of color j as k,prob CSV."""
    if not 1 <= j <= t:
        raise click.UsageError(f"need 1 <= j <= t, got j={j}, t={t}")
    schedule = parse_schedule(schedule_spec)
    if method in ("constant", "dp"):
        if not isinstance(schedule, Constant):
            raise click.UsageError(f"--method {method} requires a const: schedule")
        delta = float(schedule.delta)
        pmf = (pmf_constant_delta_dp(j, t, delta) if method == "dp"
               else pmf_constant_delta(j, t, delta))
    elif method == "oracle":
        pmf = brute_force_pmf(j, t, schedule)
    else:
        pmf = pmf_general(j, t, schedule)
    ks = pmf.support
    if k is not None:
        if not 0 <= k < len(ks):
            raise click.UsageError(f"k={k} outside the support 0..{t - j + 1}")
        ks = ks[k:k + 1]
    text = pmf_csv(ks, pmf.probs[ks])
    if out is None:
        click.echo(text, nl=False)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        click.echo(f"wrote {out}", err=True)


def _given(flags: dict) -> dict:
    """The config overrides among ``flags``; click passes an omitted option as None."""
    return {name: value for name, value in flags.items() if value is not None}


def _merged_config(config_path, flags) -> ExperimentConfig:
    overrides = _given(flags)
    if config_path is None:
        missing = [field.name for field in dataclasses.fields(ExperimentConfig)
                   if field.default is dataclasses.MISSING and field.name not in overrides]
        if missing:
            raise click.UsageError(
                f"without --config, {', '.join('--' + m for m in missing)} are required"
            )
        return ExperimentConfig(**overrides)
    if overrides.get("model") == "ba":
        overrides.setdefault("schedule_spec", None)  # a configured schedule does not carry over
    return dataclasses.replace(load_config(config_path), **overrides)


_THREADS_HELP = ("Cap on worker processes for replicates (default: available cores). "
                 f"Runs of fewer than {POOL_MIN_DRAWS} draws (t*R) use one process "
                 "whatever the cap.")


def _processes(result) -> str:
    return f"{result.processes} process" + ("es" if result.processes > 1 else "")


@main.command("experiment")
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None)
@click.option("--model", type=click.Choice(["polya", "ba"]), default=None)
@click.option("--schedule", "schedule_spec", default=None)
@click.option("--t", type=int, default=None)
@click.option("--replicates", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--threads", type=click.IntRange(min=1), default=None, help=_THREADS_HELP)
@_handled
def cmd_experiment(config_path, threads, **flags):
    """Run a replicated experiment from a config file and/or inline flags."""
    config = _merged_config(config_path, flags)
    if config.out is None:
        raise click.UsageError("an output directory is required (--out or out= in the config)")
    started = time.perf_counter()
    result = run_monte_carlo(config, threads=threads)
    written = write_outputs(result, config.out)
    elapsed = time.perf_counter() - started
    click.echo(
        f"{config.model} t={config.t} R={config.replicates}: wrote "
        f"{', '.join(str(p) for p in written)} ({elapsed:.2f}s, {_processes(result)})",
        err=True,
    )


# figure -> (file prefix, writer, runs); run (label, frozen config) writes <prefix>_<label>.csv
_REPRO_RUNS = {
    **{figure: ("degree_distribution", degree_distribution_csv,
                (("polya", f"{figure}.cfg"), ("ba", "ba-baseline.cfg")))
       for figure in ("degree-ln", "degree-f", "degree-g")},
    "birthtime-all": ("birth_time", birth_time_csv, (
        ("delta1", "polya-one.cfg"), ("ln", "degree-ln.cfg"), ("f", "degree-f.cfg"),
        ("g", "degree-g.cfg"), ("ba", "ba-baseline.cfg"))),
}


def _repro_config(name: str, flags) -> ExperimentConfig:
    import importlib.resources

    text = (importlib.resources.files("polyagraph") / "repro" / name).read_text()
    return dataclasses.replace(parse_config_text(text, source=f"repro:{name}"), **_given(flags))


@main.command("repro")
@click.argument("figure", type=click.Choice(("fig3", *_REPRO_RUNS)))
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--threads", type=click.IntRange(min=1), default=None, help=_THREADS_HELP)
@click.option("--t", type=int, default=None,
              help="Override the frozen horizon (for smoke runs).")
@click.option("--replicates", type=int, default=None,
              help="Override the frozen replicate count (for smoke runs).")
@_handled
def cmd_repro(figure, out, threads, **flags):
    """Run a bundled figure-reproduction experiment and emit plot-ready CSVs."""
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    if figure == "fig3":
        config = _repro_config("fig3.cfg", flags)
        vertex = 2
        schedule = config.schedule()
        exact = pmf_constant_delta_dp(vertex, config.t, float(schedule.delta))
        hist = draw_count_histogram(vertex, config.t, schedule,
                                    config.replicates, config.seed)
        (out / "exact_pmf.csv").write_text(pmf_csv(exact.support, exact.probs))
        (out / "empirical_pmf.csv").write_text(
            pmf_csv(exact.support, hist / config.replicates, column="frequency"))
        payload = {"config": config_echo(config), "vertex": vertex}
    else:
        prefix, writer, runs = _REPRO_RUNS[figure]
        payload = {}
        for label, cfg_name in runs:
            config = _repro_config(cfg_name, flags)
            result = run_monte_carlo(config, threads=threads)
            (out / f"{prefix}_{label}.csv").write_text(writer(result))
            payload[label] = config_echo(config)
            click.echo(f"repro {figure}: finished {label} ({_processes(result)})", err=True)
    (out / "summary.json").write_text(json_text(payload))
    elapsed = time.perf_counter() - started
    click.echo(f"repro {figure}: outputs in {out} ({elapsed:.2f}s)", err=True)


if __name__ == "__main__":
    main()
