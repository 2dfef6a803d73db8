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


# Names that bench/tracing.py patches in a module that does not call them.
TRACER_ONLY_IMPORTS = {
    "criteria.apply",
    "criteria.tensor_power",
    "criteria.haar_pure",
    "cli.apply",
    "channels.hermitian_eigenvalues",
}


def unused_sibling_imports(path: Path) -> set[str]:
    """``module.name`` for each name imported from a sibling module but never used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return {f"{path.stem}.{name}" for name in imported - used}


def test_no_dead_sibling_imports():
    unused = set().union(*(unused_sibling_imports(p) for p in SOURCES))
    assert unused <= TRACER_ONLY_IMPORTS, f"unused imports {sorted(unused - TRACER_ONLY_IMPORTS)}"


def test_cli_leaves_the_sweep_arithmetic_to_criteria():
    """``criteria`` alone computes the sweep's columns and verdicts: ``cli``
    imports no numpy, and from ``criteria`` no private name but
    ``_sweep_columns``."""
    path = ROOT / "src" / "ealab" / "cli.py"
    assert "numpy" not in imported_packages(path)
    private = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "criteria"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private <= {"_sweep_columns"}, f"cli imports {sorted(private)} from criteria"
