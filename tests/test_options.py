"""Each defaulted parameter and record field in the package has a caller outside the tests.

An option that only the tests set doubles the configurations to cover and
serves no user.  A record field with a default (``records.Record``) is an
option of the record's constructor, like a defaulted parameter.  ``ALLOWED``
lists every parameter and field with a default, each with the caller that
sets it; a new default fails this test until it is listed here with its
caller.
"""

import ast
from pathlib import Path

import polyagraph

PACKAGE = Path(polyagraph.__file__).resolve().parent

# (module, function or record class, parameter or field) -> the caller
# outside the tests that sets it.
ALLOWED = {
    ("cli", "main", "argv"): "perfbench/tracing.py (None, from the console script: sys.argv[1:])",
    ("cli", "main", "standalone_mode"): "perfbench/tracing.py (False: return the exit code)",
    ("configio", "pmf_csv", "column"): "cli repro fig3 (the empirical 'frequency' file)",
    ("configio", "parse_config_text", "source"): "cli repro (names the bundled config)",
    ("configio", "parse_config_text", "base_dir"): "configio.load_config (the file's directory)",
    ("experiments", "run_monte_carlo", "threads"): "cli experiment and repro (--threads)",
    ("urn", "UrnState", "weights"): "urn.step and urn.replay (the urn after its draws)",
    ("experiments", "ExperimentConfig", "schedule_spec"):
        "configio.read_config (the schedule key; None for model ba)",
    ("experiments", "ExperimentConfig", "outputs"):
        "configio.read_config (the outputs key of a config document)",
    ("experiments", "ExperimentConfig", "out"):
        "configio.read_config (the out key, and experiment --out)",
}


def _defaulted_parameters():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign) and field.value is not None:
                        yield path.stem, node.name, field.target.id
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in defaulted:
                yield path.stem, node.name, arg.arg


def test_every_default_is_set_by_a_listed_caller():
    assert sorted(_defaulted_parameters()) == sorted(ALLOWED)
