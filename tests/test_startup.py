"""What importing the package and the CLI does to a fresh interpreter."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polyagraph

SRC = str(Path(polyagraph.__file__).resolve().parents[1])


@pytest.mark.parametrize("path", sorted(Path(SRC, "polyagraph").glob("*.py")),
                         ids=lambda path: path.name)
def test_source_compiles_without_warnings(path):
    # A launch compiles the package from source when no bytecode is cached
    # (PYTHONDONTWRITEBYTECODE, a fresh checkout), so a compile-time warning,
    # such as an invalid escape in a docstring, would reach every run's stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _run(code, **env):
    """Run ``code`` in a fresh interpreter and return its standard output.

    The caller's ``OPENBLAS_NUM_THREADS`` is dropped unless given in ``env``.
    """
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**base, "PYTHONPATH": SRC, **env})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_package_import_is_lazy():
    out = _run("import os, sys\n"
               "before = dict(os.environ)\n"
               "import polyagraph\n"
               "assert dict(os.environ) == before\n"
               "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('polyagraph.')))")
    assert out == ["[]"]



@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_cli_import_freezes_its_heap_and_keeps_the_gc_state(enabled):
    out = _run("import gc, sys\n"
               f"gc.enable() if {enabled} else gc.disable()\n"
               "import polyagraph\n"
               "print(gc.get_freeze_count(), 'numpy' in sys.modules)\n"
               "import polyagraph.cli\n"
               "print(gc.isenabled(), gc.get_freeze_count() > 0)")
    assert out == ["0", "False", str(enabled), "True"]


def test_cli_import_loads_only_the_standard_library_and_numpy():
    # The interpreter's start-up may import site packages (a .pth file), so
    # only the modules that importing the CLI adds are checked.
    out = _run("import sys\n"
               "before = set(sys.modules)\n"
               "import polyagraph.cli\n"
               "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
               "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'polyagraph'}))")
    assert out == ["[]"]


def test_cli_import_generates_no_code():
    # The records are built by records.Record, not by dataclasses, which
    # compiles several methods per class on every launch.
    out = _run("import sys, polyagraph.cli\n"
               "print('dataclasses' in sys.modules)")
    assert out == ["False"]


def test_cli_caps_openblas_at_one_thread():
    out = _run("import os, polyagraph.cli\n"
               "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task'))\n"
               "      if os.path.isdir('/proc/self/task') else -1)")
    assert out[0] == "1"
    if not sys.platform.startswith("linux"):
        pytest.skip("thread count read from /proc/self/task, which is Linux only")
    assert out[1] == "1", "an idle BLAS worker thread was started"


def test_caller_openblas_setting_wins():
    out = _run("import os, polyagraph.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
               OPENBLAS_NUM_THREADS="3")
    assert out == ["3"]


def test_public_names_are_their_submodules_objects():
    out = _run("import importlib, polyagraph\n"
               "for name in polyagraph.__all__:\n"
               "    module = importlib.import_module(f'polyagraph.{polyagraph._SUBMODULE[name]}')\n"
               "    assert getattr(polyagraph, name) is getattr(module, name), name\n"
               "    assert name in vars(polyagraph), name\n"
               "from polyagraph import cli\n"
               "print(len(polyagraph.__all__), cli.__name__)")
    assert out == [str(len(polyagraph.__all__)), "polyagraph.cli"]


def test_unknown_attribute_raises():
    out = _run("import polyagraph\n"
               "try:\n"
               "    polyagraph.no_such_name\n"
               "except AttributeError as err:\n"
               "    print(type(err).__name__)")
    assert out == ["AttributeError"]


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "run_monte_carlo" in code
    _run(code)


def test_small_run_with_two_threads_starts_no_pool(tmp_path):
    # t·R = 2.4·10⁵ draws, below POOL_MIN_DRAWS: --threads 2 is only a cap.
    args = ["experiment", "--model", "polya", "--schedule", "ln", "--t", "12",
            "--replicates", "20000", "--seed", "1", "--out", str(tmp_path), "--threads", "2"]
    out = _run("import sys\n"
               "from polyagraph.cli import main\n"
               f"main({args!r}, standalone_mode=False)\n"
               "print('concurrent.futures.process' in sys.modules)")
    assert out == ["False"]


def test_commands_load_no_random_module_and_no_openssl(tmp_path):
    # The package draws seed contract 4's stream itself (seeding.Stream), so
    # no command loads numpy's random module, whose secrets -> hmac import
    # loads hashlib and maps OpenSSL's libcrypto (~3.4 MB resident).
    commands = [
        ["experiment", "--model", "polya", "--schedule", "paper-f", "--t", "50",
         "--replicates", "5", "--seed", "1", "--out", str(tmp_path / "polya")],
        ["experiment", "--model", "ba", "--t", "50", "--replicates", "5", "--seed", "1",
         "--out", str(tmp_path / "ba")],
        ["generate", "--t", "100", "--seed", "1", "--out", str(tmp_path / "graph")],
        ["repro", "fig3", "--t", "10", "--replicates", "5", "--out", str(tmp_path / "fig3")],
    ]
    out = _run("import os, sys\n"
               "from polyagraph.cli import main\n"
               f"for argv in {commands!r}:\n"
               "    assert main(argv, standalone_mode=False) == 0, argv\n"
               "print([m for m in ('numpy.random', 'hashlib', '_hashlib') if m in sys.modules])\n"
               "maps = '/proc/self/maps'\n"
               "print(any('libcrypto' in line for line in open(maps))\n"
               "      if os.path.exists(maps) else 'unknown')")
    assert out[-2] == "[]"
    if not sys.platform.startswith("linux"):
        pytest.skip("mapped libraries read from /proc/self/maps, which is Linux only")
    assert out[-1] == "False", "OpenSSL's libcrypto was mapped"
