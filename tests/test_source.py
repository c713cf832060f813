"""Source checks that no linter runs here: every import in the package is
used, every private name the package defines is read somewhere in it, and
the checks of values from outside the program live in data.py alone."""

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


def _private_definitions(tree: ast.Module) -> dict:
    """The private module-level names and methods a module defines, with
    their lines; dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets
                           if isinstance(t, ast.Name) and private(t.id))
        if isinstance(node, ast.ClassDef):
            defined.update((f"{node.name}.{item.name}", item.lineno) for item in node.body
                           if isinstance(item, ast.FunctionDef) and private(item.name))
    return defined


def _unread_private_names(modules: dict) -> list:
    """Private names and methods that no module of `modules` (name -> tree)
    reads, as a name or as an attribute."""
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}: {name} (line {line})"
                  for module, tree in modules.items()
                  for name, line in _private_definitions(tree).items()
                  if name.rpartition(".")[2] not in read)


def test_every_private_name_is_read():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
               for path in MODULES}
    assert _unread_private_names(modules) == []


def test_the_check_sees_an_unread_private_name():
    a = ast.parse("_LIMIT = 3\n_UNUSED = 4\n\ndef _helper():\n    return _LIMIT\n\n"
                  "def _stale():\n    pass\n\nclass Box:\n    def __len__(self):\n"
                  "        return 0\n\n    def _fill(self):\n        pass\n\n"
                  "    def _drop(self):\n        pass\n")
    b = ast.parse("from a import Box, _helper\n_helper()\nBox()._fill()\n")
    assert _unread_private_names({"a.py": a, "b.py": b}) == [
        "a.py: Box._drop (line 17)", "a.py: _UNUSED (line 2)", "a.py: _stale (line 7)"]


CHOICES = {"LOSS_KINDS", "VALID_LINKAGES", "CORRELATION_METHODS"}


def _argument_checks(tree: ast.Module) -> list:
    """Lines that check an argument outside data.py's checkers: an import of
    `numbers`, an isinstance test against bool, or a membership test
    against one of the CHOICES tuples."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            found.append(f"import numbers (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append(f"from numbers import (line {node.lineno})")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.append(f"isinstance bool (line {node.lineno})")
        elif isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                name = getattr(right, "id", getattr(right, "attr", None))
                if isinstance(op, (ast.In, ast.NotIn)) and name in CHOICES:
                    found.append(f"in {name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "data.py"],
                         ids=[p.name for p in MODULES if p.name != "data.py"])
def test_arguments_are_checked_by_the_data_checkers_alone(path):
    # data._integer, _real, _choice, _instance and _reals are the one
    # argument contract; a second check would drift from them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _argument_checks(tree) == []


def test_the_check_sees_an_argument_check():
    tree = ast.parse("import numbers\nfrom numbers import Real\n"
                     "if kind not in LOSS_KINDS or m.linkage in VALID_LINKAGES:\n    pass\n"
                     "ok = method in METHODS\n"
                     "if isinstance(x, bool) or isinstance(y, (int, bool)):\n    pass\n"
                     "ok = isinstance(x, int) and isinstance(y, (str, bytes))\n")
    assert _argument_checks(tree) == [
        "import numbers (line 1)", "from numbers import (line 2)",
        "in LOSS_KINDS (line 3)", "in VALID_LINKAGES (line 3)",
        "isinstance bool (line 6)", "isinstance bool (line 6)"]


BARE = {"TypeError", "ValueError"}


def _bare_raises(tree: ast.Module) -> list:
    """Lines that raise a bare TypeError or ValueError, with or without
    arguments; a bad value raises AspectraError, naming it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) in BARE:
                found.append(f"raise {exc.id} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_bare_type_or_value_error_is_raised(path):
    # a caller catches AspectraError; data.py's checkers raise it, and the
    # document readers re-raise a checker's error with their prefix
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _bare_raises(tree) == []


def test_the_check_sees_a_bare_raise():
    tree = ast.parse("raise TypeError(f'expected {x}')\nraise ValueError\n"
                     "raise KeyError('k')\ntry:\n    pass\nexcept ValueError:\n    raise\n"
                     "raise AspectraError('bad') from None\n")
    assert _bare_raises(tree) == ["raise TypeError (line 1)", "raise ValueError (line 2)"]
