"""Every imported name in the package and its tests is used.

No linter is a test dependency, so this scans the syntax trees itself: a
name bound by ``import`` or ``from ... import`` (other than ``__future__``)
must be read somewhere in its module, or be listed in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "qtab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b as c, d\nfrom b import e\n__all__ = ['e']\nd()\n")
    assert sorted(imported_names(tree) - read_names(tree)) == ["c", "os"]
