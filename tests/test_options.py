"""Each defaulted parameter in the package has a caller outside the tests.

An option that only the tests set doubles the configurations to cover and
serves no user.  ``ALLOWED`` lists every parameter with a default, each with
the caller that sets it; a new default fails this test until it is listed
here with its caller.
"""

import ast
from pathlib import Path

import polyagraph

PACKAGE = Path(polyagraph.__file__).resolve().parent

# (module, function, parameter) -> the caller outside the tests that sets it.
ALLOWED = {
    ("cli", "main", "argv"): "perfbench/tracing.py (None, from the console script: sys.argv[1:])",
    ("cli", "main", "standalone_mode"): "perfbench/tracing.py (False: return the exit code)",
    ("configio", "pmf_csv", "column"): "cli repro fig3 (the empirical 'frequency' file)",
    ("configio", "parse_config_text", "source"): "cli repro (names the bundled config)",
    ("configio", "parse_config_text", "base_dir"): "configio.load_config (the file's directory)",
    ("experiments", "run_monte_carlo", "threads"): "cli experiment and repro (--threads)",
}


def _defaulted_parameters():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
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
