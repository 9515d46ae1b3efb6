"""Every name a module of the package or of its tests imports is used in
that module, so an edit that frees an import also removes it. The package's
__init__.py is left out: its imports are the package's public names. Every
private name a package module defines at module level is read in it too, so
an edit that frees a helper or an alias also removes it. And no package
module reaches into another object's private fields."""

import ast
from pathlib import Path

import pytest

import rsl

PACKAGE = Path(rsl.__file__).parent
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in PACKAGE_MODULES if p.name != "__init__.py"]
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


def unread_private_names(source):
    """The private names (one leading underscore) that source assigns, or
    defines with def or class, at module level and that no name in it reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


# The documented namedtuple API: public names, prefixed so that no field name clashes.
NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make", "_replace"}


def private_field_uses(source):
    """The (line, name) of each attribute with a leading underscore that
    source reads or sets on anything but self or cls, in line order. Dunder
    names, enum sunder names such as _value_, and the namedtuple API are
    exempt."""
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.endswith("_")
        and node.attr not in NAMEDTUPLE_API
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )


@pytest.mark.parametrize("path", sorted(MODULES), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re\n"
        "from .syntax import DUMMY_SPAN, Token as T\n\ndef f(t: T):\n    return os.sep\n"
    )
    assert unused_imports(source) == ["re", "DUMMY_SPAN"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_unread_private_name_is_found():
    source = (
        "__version__ = '1'\n_build = make(Outcome)\n_used, _spare = 1, 2\n"
        "_count: int = 0\n\ndef _helper():\n    return _used + _count\n\n"
        "class _Unused:\n    pass\n\ndef public():\n    _local = 1\n    return _local + _helper()\n"
    )
    assert unread_private_names(source) == ["_build", "_spare", "_Unused"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_uses_no_private_field_of_another_object(path):
    assert private_field_uses(path.read_text(encoding="utf-8")) == []


def test_private_field_use_is_found():
    source = (
        "class Stream:\n    def __init__(self):\n        self._pos = 0\n\n"
        "    @classmethod\n    def make(cls):\n        return cls._build()\n\n"
        "def parse(stream, category, record):\n"
        "    stream._pos += category._value_ + len(type(record)._fields)\n"
        "    return stream._tokens[stream.__class__.__name__]\n"
    )
    assert private_field_uses(source) == [(10, "_pos"), (11, "_tokens")]
