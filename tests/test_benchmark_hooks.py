"""The benchmark harness reaches into the package by name.

``perfbench/tracing.py`` swaps public functions for timing wrappers and calls
others directly, and the other ``perfbench`` scripts import from the package.
A refactor that renames, moves or re-signs one of those names breaks
``perfbench/run.py`` without failing any other test; these tests catch it.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from polyagraph import experiments, schedules

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))
_IMPORT_LINE = re.compile(r"^\s*(?:from|import) polyagraph\b.*$", re.MULTILINE)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trees(path):
    """The script's syntax tree, plus the package imports in its code strings."""
    tree = ast.parse(path.read_text())
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for line in _IMPORT_LINE.findall(node.value):
                yield ast.parse(line.strip())


def _references(path):
    """``(module, attribute, call or None)`` for each package name the script uses."""
    for tree in _trees(path):
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "polyagraph":
                aliases.update({a.asname or a.name: f"polyagraph.{a.name}" for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polyagraph."):
                for alias in node.names:
                    yield node.module, alias.name, None
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("polyagraph."):
                        module, _, name = alias.name.rpartition(".")
                        yield module, name, None
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                yield aliases[node.value.id], node.attr, calls.get(id(node))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_every_named_attribute_exists(path):
    seen = 0
    for module_name, attr, call in _references(path):
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{path.name} uses {module_name}.{attr}"
        seen += 1
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        try:
            signature = inspect.signature(getattr(module, attr))
        except (TypeError, ValueError):
            continue
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        signature.bind_partial(*[None] * len(call.args), **keywords)
    if path.name in ("tracing.py", "exact_suite.py", "workloads.py"):
        assert seen


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises KeyError for a name that is gone
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patched}
    finally:
        tracer.uninstall()
    for owner, attr in [("polyagraph.configio", "parse_config_text"),
                        ("polyagraph.configio", "write_outputs"),
                        ("polyagraph.cli", "load_config"),
                        ("polyagraph.cli", "write_outputs"),
                        ("polyagraph.cli", "run_monte_carlo"),
                        ("polyagraph.cli", "generate_graph"),
                        ("polyagraph.experiments", "replicate_generator"),
                        ("polyagraph.experiments", "sample_history"),
                        ("polyagraph.experiments", "ba_draws"),
                        ("Schedule", "values"),
                        ("Schedule", "cumulative")]:
        assert (owner, attr) in patched


def test_schedule_labels_name_schedule_classes():
    for name in _load_tracing().SCHEDULE_LABELS:
        assert issubclass(getattr(schedules, name), schedules.Schedule)


def test_unused_imports_in_experiments_serve_perfbench():
    """Each name a ``# noqa: F401`` line imports into ``experiments`` and the
    module never uses is one ``perfbench/tracing.py`` reaches as
    ``experiments.<name>``, so the waiver hides no dead import."""
    source = Path(experiments.__file__).read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    waived = {alias.asname or alias.name
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and "# noqa: F401" in lines[node.end_lineno - 1]
              for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    reached = {node.attr for node in ast.walk(ast.parse((PERFBENCH / "tracing.py").read_text()))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "experiments"}
    assert waived - used  # today ba_draws, replicate_generator and sample_history
    assert waived - used <= reached
