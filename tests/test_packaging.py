"""Every package ealab imports is the standard library, ealab, or declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ealab").glob("*.py"))


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in project["dependencies"]}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_ealab_or_declared(path):
    allowed = set(sys.stdlib_module_names) | {"ealab"} | declared_dependencies()
    undeclared = {name for name in imported_packages(path) if name.lower() not in allowed}
    assert not undeclared, f"{path.name} imports undeclared packages {sorted(undeclared)}"
