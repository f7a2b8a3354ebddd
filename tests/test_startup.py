"""What importing the package and the CLI does to a fresh interpreter."""

import hmac
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyagraph

SRC = str(Path(polyagraph.__file__).resolve().parents[1])


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


def test_cli_keeps_openssl_unmapped():
    if not sys.platform.startswith("linux"):
        pytest.skip("mapped libraries read from /proc/self/maps, which is Linux only")
    out = _run("import polyagraph.cli, numpy.random\n"
               "print(any('libcrypto' in line for line in open('/proc/self/maps')))")
    assert out == ["False"], "numpy.random mapped OpenSSL's libcrypto"


def test_hashes_work_without_openssl():
    out = _run("import polyagraph.cli, hashlib, hmac, numpy.random\n"
               "print(hashlib.sha256(b'abc').hexdigest(),\n"
               "      hmac.new(b'key', b'message', 'sha256').hexdigest())")
    assert out == ["ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                   hmac.new(b"key", b"message", "sha256").hexdigest()]


def test_process_that_loaded_hashlib_keeps_it():
    out = _run("import _hashlib, sys, polyagraph.cli\n"
               "print(sys.modules['_hashlib'] is _hashlib)")
    assert out == ["True"]
