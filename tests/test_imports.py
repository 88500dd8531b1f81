"""Every imported name in the package and its tests is used, and so is every
module-level name of the package.

No linter is a test dependency, so this scans the syntax trees itself:
- a name bound by ``import`` or ``from ... import`` (other than
  ``__future__``) must be read somewhere in its module, or be listed in
  ``__all__``;
- a function, class or variable defined at the top of a package module
  (dunders aside) must be read, as a name or an attribute, somewhere in the
  package or its tests, or be listed in ``__all__``.

It also checks what importing the CLI loads: neither ``dataclasses`` nor
``inspect``, which would add to the start-up of every qtab process.
"""

from __future__ import annotations

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qtab").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def read_anywhere(trees: list[ast.Module]) -> set[str]:
    names = set()
    for tree in trees:
        names |= read_names(tree)
        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return names


@functools.cache
def package_and_tests_read() -> frozenset[str]:
    return frozenset(read_anywhere([ast.parse(path.read_text(), filename=str(path)) for path in MODULES]))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b as c, d\nfrom b import e\n__all__ = ['e']\nd()\n")
    assert sorted(imported_names(tree) - read_names(tree)) == ["c", "os"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_unread_module_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(defined_names(tree) - package_and_tests_read()) == []


def test_scan_sees_an_unread_module_name():
    tree = ast.parse("A = 1\nB: int = 2\nC, D = 3, 4\n__all__ = ['D']\ndef f(): pass\nclass K: pass\nx.B\nf()\n")
    assert sorted(defined_names(tree) - read_anywhere([tree])) == ["A", "C", "K"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import qtab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
