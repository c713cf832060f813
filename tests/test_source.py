"""Source checks that no linter runs here: every import in the package is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import aspectra

MODULES = sorted(Path(aspectra.__file__).parent.glob("*.py"))


def _unread_imports(tree: ast.Module) -> list:
    """Names that a module imports and never reads; a name in `__all__` is read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_imports(tree) == []


def test_the_check_sees_an_unread_import():
    tree = ast.parse("from dataclasses import dataclass\nimport numpy as np\n"
                     "import os.path\nx = np.zeros(1)\n__all__ = ['x']\n")
    assert _unread_imports(tree) == ["dataclass (line 1)", "os (line 3)"]
