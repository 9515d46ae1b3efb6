"""Every name a module of the package or of its tests imports is used in
that module, so an edit that frees an import also removes it. The package's
__init__.py is left out: its imports are the package's public names."""

import ast
from pathlib import Path

import pytest

import rsl

PACKAGE = Path(rsl.__file__).parent
MODULES = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
MODULES += Path(__file__).parent.glob("*.py")


def unused_imports(source):
    """The names source imports, outside __future__, that no name in it reads.
    An attribute chain reads its first name: os.path reads os."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(MODULES), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re\n"
        "from .syntax import DUMMY_SPAN, Token as T\n\ndef f(t: T):\n    return os.sep\n"
    )
    assert unused_imports(source) == ["re", "DUMMY_SPAN"]
