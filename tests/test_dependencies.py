"""The package's imports: the declared dependencies are exactly the third-party
modules it imports, and every name it imports is used."""

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


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """The project runs no linter, so this stands in for flake8's F401: a name a
    module imports must appear in its code, unless the import's line says
    ``# noqa: F401`` (a re-export that another program reaches by name)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
