"""The package runs on the oldest Python that pyproject.toml admits: its
source parses with that version's grammar and no module-level regular
expression uses syntax that only a later re module accepts."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import rsl

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

PACKAGE = Path(rsl.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
# Atomic groups and possessive repeats arrived in Python 3.11's re.
LATER_RE_NODES = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def python_floor():
    text = PYPROJECT.read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def module_patterns():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"rsl.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield f"{path.stem}.{name}", value


def node_names(node):
    """Opcode names anywhere in a parsed pattern: the SubPattern, its
    (opcode, argument) items and the subpatterns nested in their arguments."""
    if isinstance(node, (list, tuple, sre_parse.SubPattern)):
        for item in node:
            yield from node_names(item)
    elif isinstance(node, int) and hasattr(node, "name"):
        yield node.name


def later_re_nodes(pattern):
    return LATER_RE_NODES & set(node_names(sre_parse.parse(pattern.pattern, pattern.flags)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_with_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())


def test_module_patterns_use_no_later_re_syntax():
    patterns = dict(module_patterns())
    assert len(patterns) >= 7
    assert {name: later_re_nodes(p) for name, p in patterns.items() if later_re_nodes(p)} == {}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the pattern does not compile before 3.11")
def test_later_re_syntax_is_found():
    assert later_re_nodes(re.compile(r"(?:(?>a|b)*+x)")) == LATER_RE_NODES
    assert later_re_nodes(re.compile(r"(?:(?:a|b)*x)")) == set()
