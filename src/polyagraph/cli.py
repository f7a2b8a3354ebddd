"""Command-line interface, on the standard library's ``argparse``.

Subcommands: ``generate`` (one graph), ``exact`` (a draw-count distribution),
``experiment`` (a replicated Monte Carlo run), and ``repro`` (bundled
figure-reproduction experiments with frozen configurations).  Each is a
``cmd_*`` function whose keyword arguments are its subparser's options;
``main`` parses a command line, runs the command and maps its errors to exit
codes.  The config flags of ``experiment`` and ``repro`` are config keys,
read as text by ``configio.read_config`` like a config file's lines;
``experiment`` takes each of ``configio.CONFIG_KEYS`` but ``outputs``.  The
CLI checks only path kinds, ``--threads`` and ``--k``.  Every
``exact --method`` route is called as ``route(j, t, schedule)`` and checks
its own reach.

Progress goes to standard error; data goes to files or standard output.
Exit codes: 0 success, 2 bad arguments, malformed inputs or a horizon too
large for memory, 3 enumeration cap exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

# numpy's bundled OpenBLAS starts worker threads when it loads, and they spin
# idle: the CLI makes no multithreaded BLAS call (its parallelism is the
# replicate pool), so cap BLAS before the first import that loads numpy.
# A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# The imports below build a large heap of long-lived objects (numpy and the
# package).  Cyclic collections during them only walk that heap, so the
# collector is off while they run.  After them, gc.freeze() moves the heap to
# a generation no collection visits: not later ones, not the last one at
# interpreter exit, and not those in forked pool workers.  The caller's
# enabled or disabled state is restored, also if an import fails.
_gc_was_enabled = gc.isenabled()
gc.disable()

try:
    import numpy as np

    from .configio import (
        CONFIG_KEYS,
        birth_time_csv,
        config_echo,
        degree_distribution_csv,
        json_text,
        load_config,
        parse_config_text,
        pmf_csv,
        read_config,
        write_outputs,
    )
    from .errors import CapExceeded, InvalidColor
    from .exact import brute_force_pmf, pmf_dp, pmf_general
    from .experiments import POOL_MIN_DRAWS, draw_count_histogram, run_monte_carlo
    from .graphs import generate as generate_graph, graph_from_draws
    from .schedules import parse_schedule
finally:
    if _gc_was_enabled:
        gc.enable()
gc.freeze()


class UsageError(argparse.ArgumentTypeError):
    """Arguments that do not fit together or name the wrong kind of path: exit 2.

    Raised while parsing, argparse reports it against the option; raised by
    a command, ``main`` prints it after ``Error: ``.
    """


def _threads(text: str) -> int:
    """A ``--threads`` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise UsageError(f"must be at least 1, got {value}")
    return value


def _existing_file(text: str) -> Path:
    """A path that names an existing file, not a directory (``--config``, ``--replay``)."""
    path = Path(text)
    if not path.exists():
        raise UsageError(f"file {text!r} does not exist")
    if path.is_dir():
        raise UsageError(f"file {text!r} is a directory")
    return path


def _file_path(text: str) -> Path:
    """An output file path, which may not name a directory (``exact --out``)."""
    path = Path(text)
    if path.is_dir():
        raise UsageError(f"file {text!r} is a directory")
    return path


def _directory(text: str) -> Path:
    """An output directory, which need not exist yet but may not name a file."""
    path = Path(text)
    if path.exists() and not path.is_dir():
        raise UsageError(f"output directory {text!r} is a file")
    return path


def _replay_draws(path: Path) -> np.ndarray:
    """The whitespace-separated draw colors in ``path``, as an int64 array."""
    draws = []
    for tok in path.read_text().split():
        try:
            draws.append(int(tok))
        except ValueError:
            raise InvalidColor(f"{path}: draw {tok!r} is not an integer, so not a color") from None
    try:
        return np.array(draws, dtype=np.int64)
    except OverflowError:
        raise InvalidColor(f"{path}: a draw exceeds int64, so it is not a color") from None


def cmd_generate(t, schedule_spec, seed, out, replay):
    """Write one graph as an edge list plus a vertex/degree/birth-time table."""
    schedule = parse_schedule(schedule_spec)
    started = time.perf_counter()
    if replay is not None:
        draws = _replay_draws(replay)
        if t is not None and t != len(draws):
            raise UsageError(f"--t {t} disagrees with {len(draws)} replay draws")
        graph = graph_from_draws(draws)
    else:
        if t is None:
            raise UsageError("--t is required unless --replay is given")
        graph = generate_graph(t, schedule, seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, chunks in (("edges.txt", graph.edge_list_chunks()),
                         ("degrees.csv", graph.degree_table_chunks())):
        with open(out / name, "w") as f:  # written as rendered, never held whole
            f.writelines(chunks)
    elapsed = time.perf_counter() - started
    print(f"wrote {graph.num_vertices} vertices, {graph.num_vertices} edges to {out} "
          f"({elapsed:.3f}s)", file=sys.stderr)


def cmd_exact(j, t, schedule_spec, method, k, out):
    """Write the exact draw-count distribution of color j as k,prob CSV."""
    route = {"general": pmf_general, "dp": pmf_dp, "oracle": brute_force_pmf}[method]
    pmf = route(j, t, parse_schedule(schedule_spec))
    ks = pmf.support
    if k is not None:
        if not 0 <= k < len(ks):
            raise UsageError(f"k={k} outside the support 0..{t - j + 1}")
        ks = ks[k:k + 1]
    text = pmf_csv(ks, pmf.probs[ks])
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}", file=sys.stderr)


def _with_flags(base, flags):
    """``base`` (a config, or None) with the config flags given, read by ``read_config``."""
    entries = [("command line", key, text) for key, text in flags.items() if text is not None]
    return read_config(entries, base, "command line", None)


_THREADS_HELP = ("Cap on worker processes for replicates (default: available cores; never "
                 f"more than the cores). Runs of fewer than {POOL_MIN_DRAWS} draws (t*R) use "
                 "one process whatever the cap.")


def _processes(result) -> str:
    return f"{result.processes} process" + ("es" if result.processes > 1 else "")


def cmd_experiment(config_path, threads, **flags):
    """Run a replicated experiment from a config file and/or inline flags."""
    config = _with_flags(None if config_path is None else load_config(config_path), flags)
    if config.out is None:
        raise UsageError("an output directory is required (--out or out= in the config)")
    _directory(config.out)  # from --out or the config, checked before the run
    started = time.perf_counter()
    result = run_monte_carlo(config, threads=threads)
    written = write_outputs(result, config.out)
    elapsed = time.perf_counter() - started
    print(f"{config.model} t={config.t} R={config.replicates}: wrote "
          f"{', '.join(str(p) for p in written)} ({elapsed:.2f}s, {_processes(result)})",
          file=sys.stderr)


# figure -> (file prefix, writer, runs); run (label, frozen config) writes <prefix>_<label>.csv
_REPRO_RUNS = {
    **{figure: ("degree_distribution", degree_distribution_csv,
                (("polya", f"{figure}.cfg"), ("ba", "ba-baseline.cfg")))
       for figure in ("degree-ln", "degree-f", "degree-g")},
    "birthtime-all": ("birth_time", birth_time_csv, (
        ("delta1", "polya-one.cfg"), ("ln", "degree-ln.cfg"), ("f", "degree-f.cfg"),
        ("g", "degree-g.cfg"), ("ba", "ba-baseline.cfg"))),
}


def _repro_config(name: str, flags):
    import importlib.resources

    text = (importlib.resources.files("polyagraph") / "repro" / name).read_text()
    return _with_flags(parse_config_text(text, source=f"repro:{name}"), flags)


def cmd_repro(figure, out, threads, **flags):
    """Run a bundled figure-reproduction experiment and emit plot-ready CSVs."""
    started = time.perf_counter()
    if figure == "fig3":
        config = _repro_config("fig3.cfg", flags)
        vertex = 2
        schedule = config.schedule()
        exact = pmf_dp(vertex, config.t, schedule)
        hist = draw_count_histogram(vertex, config.t, schedule,
                                    config.replicates, config.seed)
        out.mkdir(parents=True, exist_ok=True)
        (out / "exact_pmf.csv").write_text(pmf_csv(exact.support, exact.probs))
        (out / "empirical_pmf.csv").write_text(
            pmf_csv(exact.support, hist / config.replicates, column="frequency"))
        payload = {"config": config_echo(config), "vertex": vertex}
    else:
        prefix, writer, runs = _REPRO_RUNS[figure]
        configs = {label: _repro_config(name, flags) for label, name in runs}
        out.mkdir(parents=True, exist_ok=True)
        payload = {}
        for label, config in configs.items():
            result = run_monte_carlo(config, threads=threads)
            (out / f"{prefix}_{label}.csv").write_text(writer(result))
            payload[label] = config_echo(config)
            print(f"repro {figure}: finished {label} ({_processes(result)})", file=sys.stderr)
    (out / "summary.json").write_text(json_text(payload))
    elapsed = time.perf_counter() - started
    print(f"repro {figure}: outputs in {out} ({elapsed:.2f}s)", file=sys.stderr)


def _parser() -> argparse.ArgumentParser:
    """One parser with a subparser per command; no option may be abbreviated."""
    parser = argparse.ArgumentParser(
        prog="polyagraph", allow_abbrev=False,
        description="Grow preferential-attachment graphs from an expanding-color urn.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command("generate", cmd_generate)
    option("--t", type=int, help="Number of growth steps.")
    option("--schedule", dest="schedule_spec", metavar="SPEC", default="const:1",
           help="Reinforcement schedule string (default: %(default)s). With --replay it "
                "is only checked: the graph depends on the draws alone.")
    option("--seed", type=int, default=0, help="Master seed (default: %(default)s).")
    option("--out", required=True, type=_directory)
    option("--replay", type=_existing_file,
           help="File of forced draw colors (one per step) to rebuild a specific graph "
                "instead of sampling.")

    option = command("exact", cmd_exact)
    option("--j", type=int, required=True, help="Color / vertex index.")
    option("--t", type=int, required=True, help="Horizon.")
    option("--schedule", dest="schedule_spec", metavar="SPEC", default="const:1",
           help="Reinforcement schedule string (default: %(default)s).")
    option("--method", choices=["general", "dp", "oracle"], default="general",
           help="Exact route (default: %(default)s).")
    option("--k", type=int, help="Emit only the row for this draw count.")
    option("--out", type=_file_path, help="Output CSV path (default: standard output).")

    option = command("experiment", cmd_experiment)
    option("--config", dest="config_path", metavar="PATH", type=_existing_file)
    for key in CONFIG_KEYS:
        if key != "outputs":  # a list of kinds, set in a config document only
            option(f"--{key}")
    option("--threads", type=_threads, help=_THREADS_HELP)

    option = command("repro", cmd_repro)
    option("figure", choices=("fig3", *_REPRO_RUNS))
    option("--out", required=True, type=_directory)
    option("--threads", type=_threads, help=_THREADS_HELP)
    option("--t", help="Override the frozen horizon (for smoke runs).")
    option("--replicates", help="Override the frozen replicate count (for smoke runs).")
    return parser


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def main(argv=None, standalone_mode=True):
    """Run the command line ``argv`` (default: ``sys.argv[1:]``).

    Exits with the command's exit code, or with ``standalone_mode=False``
    returns it.  A bad command line is reported by argparse (exit 2, or 0
    for ``--help``); an error from the command is reported on one line.
    """
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
        code = 0
    except SystemExit as exc:  # raised by argparse for --help and bad command lines
        code = exc.code
    except UsageError as exc:
        code = _fail(2, f"Error: {exc}")
    except CapExceeded as exc:
        code = _fail(3, f"error: {exc}")
    except ValueError as exc:  # every other polyagraph error is a ValueError
        code = _fail(2, f"error: {exc}")
    except MemoryError as exc:  # a horizon whose arrays do not fit in memory
        code = _fail(2, f"error: {str(exc) or 'out of memory'}")
    except OSError as exc:
        code = _fail(4, f"error: {exc}")
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
