"""The declared dependencies are exactly the third-party modules the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

import polyagraph

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(polyagraph.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _imported_top_level_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.partition(".")[0]


def test_declared_dependencies_match_the_imports():
    requirements = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    third_party = set(_imported_top_level_modules()) - set(sys.stdlib_module_names)
    assert third_party == declared
