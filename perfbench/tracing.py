"""In-memory spans around polyagraph's public calls, and the traced child process.

A span records a name, its start and end (``time.perf_counter`` seconds), the
index of the enclosing span (-1 for a root) and an optional tag.  Spans stay
in a list and are written as JSON when the traced process ends.

The program itself is not edited.  ``install`` swaps each public function the
program calls for a wrapper that records a span, in every module namespace
that calls it (``from .urn import sample_history`` binds the name in
``polyagraph.graphs`` and ``polyagraph.experiments`` separately), and
``uninstall`` puts the originals back.

Run as a script, this file is the traced child process::

    python tracing.py SPANS.json cli ARGS...          # polyagraph.cli in-process
    python tracing.py SPANS.json exact-suite ARGS...  # exact_suite.py in-process
    python tracing.py SPANS.json layers INPUTS OUT

``layers`` runs the calls the CLI hides from a traced parent (per-replicate
sampling inside the process pool) single-process, then a small fixed probe
that touches every layer; see ``run_layers``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

# Schedule classes are named in tags by the preset each one stands for in the
# benchmark's inputs: Stepped only ever carries paper-f and RationalSegments
# only paper-g, and every constant schedule that is sampled is const:1.
SCHEDULE_LABELS = {
    "Constant": "const1",
    "NaturalLog": "ln",
    "Stepped": "paper-f",
    "RationalSegments": "paper-g",
}


class Tracer:
    """Collects spans in memory; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patched: list = []

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, tag) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1], tag)

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, tag)

    def wrap(self, name: str, fn, tag=None):
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start, tag(*args, **kwargs) if tag else None)

        return traced

    def patch(self, owner, attr: str, name: str, tag=None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tag))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path, notes=None) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "tag": t}
            for n, s, e, p, t in self.spans
        ]
        Path(path).write_text(json.dumps({"spans": rows, "notes": notes or {}}))


def _sampler_tag(t, schedule, rng):
    return [SCHEDULE_LABELS.get(type(schedule).__name__, "other"), t]


def _steps_tag(t, rng):
    return t


def _threads_tag(config, *, threads=None):
    return threads


def install(tracer: Tracer) -> None:
    """Wrap every public call the benchmark attributes to a layer."""
    from polyagraph import cli, configio, exact, experiments, graphs, schedules

    for cls in (schedules.Schedule, schedules.Constant, schedules.NaturalLog,
                schedules.Stepped, schedules.RationalSegments, schedules.Table):
        for method in ("values", "cumulative"):
            if method in cls.__dict__:
                tracer.patch(cls, method, f"schedules.{method}")
    tracer.patch(graphs, "as_generator", "seeding.as_generator")
    tracer.patch(experiments, "replicate_generator", "seeding.replicate_generator")
    tracer.patch(graphs, "sample_history", "urn.sample_history", _sampler_tag)
    tracer.patch(experiments, "sample_history", "urn.sample_history", _sampler_tag)
    tracer.patch(experiments, "ba_draws", "graphs.ba_draws", _steps_tag)
    tracer.patch(graphs, "graph_from_draws", "graphs.graph_from_draws")
    tracer.patch(graphs.EvolvingGraph, "edge_list_text", "graphs.edge_list_text")
    tracer.patch(cli, "generate_graph", "graphs.generate")
    tracer.patch(cli, "run_monte_carlo", "experiments.run_monte_carlo", _threads_tag)
    tracer.patch(experiments, "run_monte_carlo", "experiments.run_monte_carlo", _threads_tag)
    for name in ("expected_birth_time_table", "expected_degree_count_table"):
        tracer.patch(experiments, name, f"experiments.{name}")
    for name in ("pmf_general", "pmf_constant_delta", "pmf_constant_delta_dp",
                 "brute_force_pmf"):
        tracer.patch(exact, name, f"exact.{name}")
    for name in ("pmf_general", "pmf_constant_delta_dp"):
        tracer.patch(experiments, name, f"exact.{name}")
    tracer.patch(configio, "parse_config_text", "configio.parse_config_text")
    tracer.patch(cli, "load_config", "configio.load_config")
    tracer.patch(cli, "write_outputs", "configio.write_outputs")
    tracer.patch(configio, "write_outputs", "configio.write_outputs")


# --- the layer run -----------------------------------------------------------

PROBE_SEED = 7_000_001
PROBE_SCHEDULES = ("const:1", "ln", "paper-f", "paper-g")
PROBE_QUERIES = [
    {"name": "general", "kind": "general", "j": 2, "t": 13, "schedule": "ln"},
    {"name": "constant", "kind": "constant", "j": 2, "t": 13, "delta": 1.0},
    {"name": "constant-dp", "kind": "dp", "j": 2, "t": 13, "delta": 1.0,
     "reference_for": "constant"},
    {"name": "dp", "kind": "dp", "j": 2, "t": 1000, "delta": 1.0},
    {"name": "oracle", "kind": "oracle", "j": 2, "t": 7, "schedule": "ln"},
    {"name": "oracle-general", "kind": "general", "j": 2, "t": 7, "schedule": "ln",
     "reference_for": "oracle"},
    {"name": "degree-table", "kind": "degree_table", "t": 60, "schedule": "const:2"},
]


def run_probe(tracer: Tracer, out: Path) -> dict:
    """Small fixed calls into every layer, identical for every workload.

    The benchmark's contract has every per-layer metric reported on every
    workload.  A workload that does not exercise a layer reports that
    layer's metrics from these calls instead; the result table marks them
    ``probe``.  The probe's counts are counted from its own spans and files,
    and repeat exactly.
    """
    from polyagraph import cli, configio, experiments, graphs, schedules

    import exact_suite
    from workloads import exact_counts, max_route_gap, written_bytes

    generator = experiments.replicate_generator
    first = len(tracer.spans)
    with tracer.span("phase.probe"):
        for spec in PROBE_SCHEDULES:
            schedule = schedules.parse_schedule(spec)
            for r in range(3):
                experiments.sample_history(5000, schedule, generator(PROBE_SEED, r))
        unit = schedules.parse_schedule("const:1")
        for r in range(300):
            experiments.sample_history(12, unit, generator(PROBE_SEED, r))
        for r in range(5):
            experiments.ba_draws(5000, generator(PROBE_SEED, r))
        draws = experiments.ba_draws(100_000, generator(PROBE_SEED, 0))
        graphs.graph_from_draws(draws).edge_list_text()
        tiny = experiments.ExperimentConfig(model="polya", t=12, replicates=4,
                                            seed=PROBE_SEED, schedule_spec="const:1")
        for _ in range(5):
            experiments.run_monte_carlo(tiny, threads=1)
            experiments.run_monte_carlo(tiny, threads=2)
        config = configio.parse_config_text(configio.config_text(tiny), source="probe")
        configio.write_outputs(experiments.run_monte_carlo(config, threads=1), out / "probe-mc")
        results = exact_suite.run(PROBE_QUERIES, tracer.span)
        with tracer.span("cli.generate"):
            cli.main(["generate", "--t", "2000", "--seed", str(PROBE_SEED),
                      "--out", str(out / "probe-graph")], standalone_mode=False)
    spans = tracer.spans[first:]
    counts = {
        "urn.steps": sum(tag[1] for name, *_, tag in spans if name == "urn.sample_history"),
        "seeding.calls": sum(1 for name, *_ in spans if name.startswith("seeding.")),
        **exact_counts(PROBE_QUERIES),
        "configio.bytes": written_bytes(out / "probe-mc"),
        "cli.bytes": written_bytes(out / "probe-graph"),
    }
    return {"max_route_gap": max_route_gap(PROBE_QUERIES, results), "counts": counts}


def run_layers(tracer: Tracer, inputs: Path, out: Path) -> dict:
    """Decompose what the CLI runs inside its process pool, then probe.

    For the Monte Carlo workloads every configured run is repeated with
    ``threads=1``, so per-replicate seeding and sampling happen in this
    process and get spans; its outputs must match the pooled run's byte for
    byte.
    """
    from polyagraph import configio, experiments

    with tracer.span("phase.decompose"):
        for cfg in sorted(inputs.glob("*.cfg")):
            config = configio.load_config(cfg)
            result = experiments.run_monte_carlo(config, threads=1)
            configio.write_outputs(result, out / "threads1" / cfg.stem)
    return run_probe(tracer, out)


def main(argv: list[str]) -> int:
    spans_path, target, *rest = argv
    tracer = Tracer()
    install(tracer)
    notes = {}
    started = time.perf_counter()
    try:
        if target == "cli":
            from polyagraph import cli

            with tracer.span(f"cli.{rest[0]}"):
                cli.main(rest, standalone_mode=False)
        elif target == "exact-suite":
            import exact_suite

            exact_suite.main(rest, tracer.span)
        elif target == "layers":
            inputs, out = rest
            notes = run_layers(tracer, Path(inputs), Path(out))
        else:
            raise SystemExit(f"unknown target {target!r}")
    finally:
        tracer.uninstall()
    notes["process_s"] = time.perf_counter() - started
    tracer.dump(spans_path, notes)
    return 0


# --- from spans to per-layer metrics -----------------------------------------

LONG_HISTORY = 1000  # sampler calls at least this long count toward ns per step


class SpanSet:
    """Spans of one or more traced processes, with self times."""

    def __init__(self, dumps: list[dict], root: str | None = None):
        self.spans = []
        for dump in dumps:
            rows = dump["spans"]
            child_time = [0.0] * len(rows)
            for row in rows:
                if row["parent"] >= 0:
                    child_time[row["parent"]] += row["end"] - row["start"]
            for i, row in enumerate(rows):
                top = row
                while top["parent"] >= 0:
                    top = rows[top["parent"]]
                if root is None or top["name"] == root:
                    duration = row["end"] - row["start"]
                    self.spans.append((row["name"], duration, duration - child_time[i],
                                       row["tag"]))

    def select(self, pred) -> list[tuple]:
        return [s for s in self.spans if pred(s[0], s[3])]


def _named(*names):
    return lambda name, tag: name in names


def layer_metrics(mirror: list[dict], layers: dict, counts: dict, wall_plain: float,
                  wall_traced: float, workers: int, route_gap: float | None) -> dict:
    """Per-layer metrics: ``name -> {"value", "unit", "source"}``.

    A time comes from the workload's own spans (the traced repetition, and
    for Monte Carlo the threads=1 decomposition) when the workload makes that
    call, and otherwise from the probe.  A count comes from the workload's
    inputs and written files when the workload does that work (``counts``),
    and otherwise from the probe; never from a clock.
    """
    own = SpanSet(mirror)
    decomposed = SpanSet([layers], "phase.decompose")
    probe = SpanSet([layers], "phase.probe")
    both = SpanSet([])
    both.spans = own.spans + decomposed.spans
    metrics = {}

    def put(name, value, unit, source):
        metrics[name] = {"value": value, "unit": unit, "source": source}

    def measure(name, unit, pred, reduce, pools=((both, "workload"), (probe, "probe"))):
        for pool, source in pools:
            spans = pool.select(pred)
            if spans:
                put(name, reduce(spans), unit, source)
                return

    def count(name, unit):
        if name in counts:
            put(name, counts[name], unit, "computed")
        else:
            put(name, layers["notes"]["counts"][name], unit, "probe count")

    def total(spans):
        return sum(s[1] for s in spans)

    def self_total(spans):
        return sum(s[2] for s in spans)

    def mean_us(spans):
        return 1e6 * total(spans) / len(spans)

    def per_step_ns(spans):
        return 1e9 * total(spans) / sum(s[3] if isinstance(s[3], int) else s[3][1] for s in spans)

    sampler = "urn.sample_history"
    own_only = ((own, "workload"), (probe, "probe"))
    measure("schedules.values_s", "s", lambda n, t: n.startswith("schedules."), self_total,
            own_only)
    measure("seeding.generator_us", "us", lambda n, t: n.startswith("seeding."), mean_us)
    count("seeding.calls", "count")
    measure("urn.sample_s", "s", _named(sampler), total)
    count("urn.steps", "count")
    for label in ("const1", "ln", "paper-f", "paper-g"):
        measure(f"urn.ns_per_step.{label}", "ns",
                lambda n, t, label=label: n == sampler and t[0] == label and t[1] >= LONG_HISTORY,
                per_step_ns)
    measure("urn.call_us", "us", lambda n, t: n == sampler and t[1] < LONG_HISTORY, mean_us)
    put("urn.sample_share", metrics["urn.sample_s"]["value"] / wall_plain, "ratio",
        metrics["urn.sample_s"]["source"])
    measure("graphs.ba_s", "s", _named("graphs.ba_draws"), total)
    measure("graphs.ba_ns_per_step", "ns", _named("graphs.ba_draws"), per_step_ns)
    measure("graphs.build_s", "s", _named("graphs.graph_from_draws"), total)
    measure("graphs.edge_text_s", "s", _named("graphs.edge_list_text"), total)
    pooled = lambda n, t: n == "experiments.run_monte_carlo" and t != 1  # noqa: E731
    single = lambda n, t: n == "experiments.run_monte_carlo" and t == 1  # noqa: E731
    measure("experiments.run_s", "s", pooled, total, own_only)
    measure("experiments.aggregate_s", "s", single, self_total,
            ((decomposed, "workload"), (probe, "probe")))
    one, two = [s[1] for s in probe.select(single)], [s[1] for s in probe.select(pooled)]
    put("experiments.pool_start_s", statistics.median(two) - statistics.median(one), "s", "probe")
    if decomposed.select(single) and own.select(pooled):
        efficiency = total(decomposed.select(single)) / (workers * total(own.select(pooled)))
        put("experiments.parallel_efficiency", efficiency, "ratio", "workload")
    else:
        put("experiments.parallel_efficiency", statistics.median(one) / (workers * statistics.median(two)),
            "ratio", "probe")
    measure("experiments.table_s", "s", _named("suite.birth_table", "suite.degree_table"),
            total, own_only)
    for kind in ("general", "constant", "dp", "oracle"):
        measure(f"exact.{kind}_s", "s", _named(f"suite.{kind}"), total, own_only)
    count("exact.tuples", "count")
    count("exact.oracle_paths", "count")
    if route_gap is not None:
        put("exact.max_route_gap", route_gap, "prob", "workload")
    else:
        put("exact.max_route_gap", layers["notes"]["max_route_gap"], "prob", "probe")
    measure("configio.parse_s", "s", _named("configio.parse_config_text"), total, own_only)
    measure("configio.write_s", "s", _named("configio.write_outputs"), total, own_only)
    count("configio.bytes", "bytes")
    measure("cli.self_s", "s", lambda n, t: n.startswith("cli."), self_total, own_only)
    count("cli.bytes", "bytes")
    put("trace.overhead_s", wall_traced - wall_plain, "s", "workload")
    return metrics


def self_times(mirror: list[dict]) -> dict:
    """Self time per layer (the span name's first part) over the traced repetition."""
    layers: dict = {}
    for name, _, own, _ in SpanSet(mirror).spans:
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
