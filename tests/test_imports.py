"""Every name a module of the package imports is read in that module."""

import ast
import os

import pytest

import cuspkit

PACKAGE = os.path.dirname(os.path.abspath(cuspkit.__file__))
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def unread_imports(source: str) -> list[str]:
    """The names a module imports and never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as f:
        assert unread_imports(f.read()) == []


def test_the_scan_sees_an_unread_import_and_skips_future_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Sequence\n"
        "from .jets import Jet\n"
        "__all__ = ['Jet']\n"
        "x: Sequence = os.path.sep\n"
    )
    assert unread_imports(source) == ["Callable"]
