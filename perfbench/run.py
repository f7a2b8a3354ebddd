"""Benchmark harness for polyagraph.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds nothing: every command starts a fresh interpreter on the sources in
``src``.  With ``--trace 0`` it times whole repetitions of the workload
(launch to exit of every command) until ``--seconds`` are used, and reports
the end-to-end metrics.  With ``--trace 1`` it makes one untraced repetition,
one traced repetition of the same commands, and one layer run (see
``tracing.py``), and reports the per-layer metrics.  Every repetition passes
the correctness gate in ``workloads.py``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with provenance, goes to
``.perfbench_work/results/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKERS, WORKLOADS, max_route_gap, written_bytes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
MIN_REPS = 2        # two repetitions at one seed let the gate compare digests
RUN_LIMIT_S = 170   # hard limit for one whole benchmark run
HELD_OUT_SEED = 918_273  # not used while writing the benchmark or any change


def _env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class Launcher:
    """Starts fresh interpreters and measures each from launch to exit."""

    def __init__(self, work: Path, hard_deadline: float):
        self.env = _env()
        self.log = work / "stderr.log"
        self.hard_deadline = hard_deadline

    def __call__(self, argv: list[str]) -> dict:
        """Run one command; returns wall, CPU and peak RSS of it and its children."""
        with open(self.log, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            watchdog = threading.Timer(max(1.0, self.hard_deadline - time.monotonic()),
                                       _kill_group, (proc.pid,))
            watchdog.start()
            # wait4 reaps the process with the rusage of it and of every
            # descendant it waited for (the pool workers).
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None
        if proc.returncode != 0:
            tail = self.log.read_text(errors="replace").strip().splitlines()[-3:]
            error = f"{' '.join(argv[:4])} ... exited {proc.returncode}: {' | '.join(tail)}"
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "error": error}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _argv(kind: str, args: list[str]) -> list[str]:
    if kind == "cli":
        return ["-m", "polyagraph.cli", *args]
    return [str(BENCH / "exact_suite.py"), *args]


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _digests(out: Path) -> dict:
    return {str(p.relative_to(out)): _digest(p) for p in sorted(out.rglob("*")) if p.is_file()}


def _check(workload, inputs: Path, out: Path) -> list[str]:
    """The workload's correctness gate, run in a child so this process stays small."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workloads.py"), "check",
                               workload.name, str(inputs), str(out)], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        return ["correctness check timed out"]
    if proc.returncode != 0:
        return [f"correctness check exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(workload, inputs: Path, out: Path, launch, reference, argv_for=_argv) -> dict:
    """One repetition: every command of the workload, then the gate.

    The first repetition is checked in full; later ones must write files
    byte-identical to it (same seed, same code), and so share its verdict.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    launches = [launch(argv_for(kind, args)) for kind, args in workload.commands(inputs, out)]
    errors = [l["error"] for l in launches if l["error"]]
    digests, verdict = {}, []
    if not errors:
        digests = _digests(out)
        if reference is None:
            verdict = _check(workload, inputs, out)
        elif digests != reference["digests"]:
            verdict = ["result files differ from the first repetition at the same seed"]
        else:
            verdict = reference["verdict"]
    return {
        "wall_s": sum(l["wall_s"] for l in launches),
        "cpu_s": sum(l["cpu_s"] for l in launches),
        "command_wall_s": [l["wall_s"] for l in launches],
        "command_cpu_s": [l["cpu_s"] for l in launches],
        "peak_rss_mb": max(l["peak_rss_mb"] for l in launches),
        "digests": digests,
        "verdict": verdict,
        "errors": errors + verdict,
    }


def time_setup(workload, inputs: Path, launch) -> dict:
    """A fresh interpreter importing polyagraph and parsing the workload's inputs."""
    return launch(["-c", workload.setup_code(inputs)])


def _summary(values: list[float], unit: str) -> dict:
    """The median of ``values``, with their spread."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": statistics.median(values), "unit": unit,
            "q1": q[0], "q3": q[2], "min": min(values), "max": max(values), "n": len(values)}


def untraced(workload, inputs, work, launch, deadline) -> tuple[dict, dict]:
    """Repetitions until the deadline; every metric is the median of its values.

    Other tenants of a shared machine slow the cores in phases of seconds to
    a minute, so a run holds many short repetitions rather than a few long
    ones, and the median of many is steadier than any single one.
    """
    setups, reps = [], []
    while (len(reps) < MIN_REPS
           or time.perf_counter() + statistics.median(r["wall_s"] for r in reps) <= deadline):
        # Set-up launches are spread over the run, one before each repetition.
        setups.append(time_setup(workload, inputs, launch))
        reps.append(run_rep(workload, inputs, work / "out", launch, reps[0] if reps else None))
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(workload, inputs, launch))
    reps[0]["errors"] += [s["error"] for s in setups if s["error"]]
    metrics = {
        "wall_s": _summary([r["wall_s"] for r in reps], "s"),
        "setup_s": _summary([s["wall_s"] for s in setups], "s"),
        "cpu_s": _summary([r["cpu_s"] for r in reps], "s"),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in reps], "MB"),
    }
    return metrics, {"reps": reps}


def traced(workload, inputs, work, launch) -> tuple[dict, dict]:
    """One plain repetition, the same commands traced, and the layer run."""
    out = work / "out"
    plain = run_rep(workload, inputs, out, launch, None)
    counts = workload.counts(inputs)
    if workload.bytes_metric and not plain["errors"]:
        counts[workload.bytes_metric] = written_bytes(out)
    route_gap = None
    if workload.name == "exact-suite" and not plain["errors"]:
        queries = json.loads((inputs / "queries.json").read_text())
        results = json.loads((out / "results.json").read_text())
        route_gap = max_route_gap(queries, results)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    files = []

    def traced_argv(kind, args):
        files.append(spans_dir / f"mirror{len(files)}.json")
        return [str(BENCH / "tracing.py"), str(files[-1]), kind, *args]

    mirror = run_rep(workload, inputs, out, launch, plain, traced_argv)
    layers_out = work / "layers"
    layers_file = spans_dir / "layers.json"
    layer_run = launch([str(BENCH / "tracing.py"), str(layers_file), "layers",
                        str(inputs), str(layers_out)])
    layer_run["errors"] = [layer_run["error"]] if layer_run["error"] else []
    threads1 = layers_out / "threads1"
    if not layer_run["errors"] and threads1.exists() and _digests(threads1) != plain["digests"]:
        layer_run["errors"].append("threads=1 results differ from the pooled run's")
    reps = [plain, mirror, layer_run]
    if any(r["errors"] for r in reps):
        return {}, {"reps": reps}
    dumps = [json.loads(f.read_text()) for f in files]
    metrics = tracing.layer_metrics(dumps, json.loads(layers_file.read_text()), counts,
                                    plain["wall_s"], mirror["wall_s"], WORKERS, route_gap)
    return metrics, {"reps": reps, "self_s": tracing.self_times(dumps)}


def _cpu_ticks() -> list[int]:
    """The machine-wide CPU time counters of /proc/stat (empty where absent)."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if len(before) < 8 or len(after) < 8:
        return None
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / sum(spent[:8]) if sum(spent[:8]) else None


def provenance(started_load) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "workers": WORKERS, "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit, "source_sha256": source.hexdigest(),
        "loadavg_at_start": list(started_load), "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load = os.getloadavg()
    ticks = _cpu_ticks()
    started = time.perf_counter()
    if not (SRC / "polyagraph" / "__init__.py").is_file():
        print(f"perfbench: no polyagraph sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload.prepare(inputs, args.seed)
    launch = Launcher(work, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics, detail = traced(workload, inputs, work, launch)
        else:
            metrics, detail = untraced(workload, inputs, work, launch, started + args.seconds)
        steps = workload.counts(inputs).get("urn.steps", 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reps = detail["reps"]
    failed = sum(1 for r in reps if r["errors"])
    errors = [e for r in reps for e in r["errors"]]

    steal = _steal_share(ticks, _cpu_ticks())
    lines = [f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
             f"{len(reps)} repetitions attempted, {failed} failed; load average at start "
             f"{load[0]:.2f}, CPU steal during the run "
             + ("unknown" if steal is None else f"{100 * steal:.2f}%")]
    lines += [f"  FAILED: {error}" for error in errors]
    for name, m in metrics.items():
        spread = (f"{m['n']} values, quartiles {m['q1']:.6g}..{m['q3']:.6g}"
                  if "n" in m else m["source"])
        lines.append(f"  {name:<30} {m['value']:<14.6g} {m['unit']:<6} {spread}")
    if not args.trace and steps:
        lines.append(f"  {'steps_per_s':<30} {steps / metrics['wall_s']['value']:<14.6g} 1/s"
                     f"    {steps} urn steps / wall_s")
    lines.append(f"  {'error_rate':<30} {failed / len(reps):<14.6g} ratio  "
                 f"{failed} failed / {len(reps)} attempted")
    for layer, seconds in detail.get("self_s", {}).items():
        lines.append(f"  self time {layer:<20} {seconds:<14.6g} s      traced repetition")
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "provenance": provenance(load),
        "cpu_steal_share": steal,
        "attempted": len(reps), "failed": failed, "errors": errors, "metrics": metrics,
        "self_s": detail.get("self_s"),
        "repetitions": [{k: v for k, v in r.items() if k not in ("digests", "verdict")}
                        for r in reps],
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    results_path = WORK / "results" / f"{work.name}.json"
    results_path.write_text(json.dumps(record, indent=1))
    lines.append(f"  record: {results_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
