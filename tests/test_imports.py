"""Every name a module in src/ or tests/ imports is referenced in that module.

A stdlib-ast scan: an import binds names, and each must appear as a name
load (or inside a quoted annotation) somewhere in the same file. `__future__`
imports and names listed in the module's `__all__` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def referenced_names(tree):
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= referenced_names(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"imported and never referenced: {', '.join(unused)}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "import os.path\n"
                     "def f(x: 'Sequence') -> None:\n"
                     "    return dataclass\n")
    used = referenced_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == [
        "field", "os"]
