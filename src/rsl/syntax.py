"""Core syntax of the Robot Skill Language: tokens, spans, and the statement AST.

Every statement is one command keyword, its parameters, and a terminating
semicolon. The twelve command forms are fixed; there are no variables,
expressions, conditionals, or loops.

The lexer makes a few tokens per statement, so the per-token types are cheap
to build: SourceSpan, Token and Number are immutable named tuples, which also
compare equal to plain tuples holding the same values. Statement, Program and
the lexer's and parser's outcomes are frozen_slots classes, with no
per-instance __dict__; the parser builds each Statement by setting its slots,
not through the generated __init__.

Every file rsl reads, shipped or named by a user, is read by read_input, and
every JSON document by json_document, which refuses a key given twice in one
object; json_object refuses an object's key that is not one it takes.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import NamedTuple

# Parameter shape of each statement form, keyed by the lowercase concrete
# keyword. "number" is a numeric literal, "object" an identifier naming a
# world object.
STATEMENT_SCHEMAS: dict[str, tuple[str, ...]] = {
    "forward": ("number",),
    "backward": ("number",),
    "turnleft": ("number",),
    "turnright": ("number",),
    "lookup": ("number",),
    "lookdown": ("number",),
    "lookleft": ("number",),
    "lookright": ("number",),
    "perceive": (),
    "approach": ("object",),
    "goto": ("number", "number"),
    "grasp": ("object",),
}

KEYWORDS = frozenset(STATEMENT_SCHEMAS)

# Commands whose single numeric argument is a motion/camera magnitude and must
# be strictly positive. goto is exempt: its arguments are absolute coordinates.
POSITIVE_MAGNITUDE_KEYWORDS = frozenset(
    kw for kw, schema in STATEMENT_SCHEMAS.items() if schema == ("number",)
)

# Lexeme patterns, spelled out in ASCII: \w and \d also match letters and
# digits of other scripts. A numeral is an optional sign, digits and an
# optional single fraction, with no exponent and no leading or trailing dot.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
NUMERAL = r"-?[0-9]+(?:\.[0-9]+)?"
ANY_CASE_KEYWORD = rf"(?i:{'|'.join(sorted(KEYWORDS))})\b"  # a keyword in any case, a whole word
IDENTIFIER_RE = re.compile(IDENTIFIER + r"\Z")


def finite_number(value: object) -> bool:
    """An int or a float, not a bool, in the float range (math.isfinite fails on a huge int)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def json_document(text: str, error: type[ValueError], what: str, **options):
    """json.loads(text, **options), raising error("duplicate key 'k' in <what>")
    for a key twice in one object, else error("<what> is not valid JSON: ...")."""
    duplicates = []

    def unique(pairs):
        document = dict(pairs)
        if len(document) < len(pairs):
            seen = set()
            duplicates.append(next(k for k, _ in pairs if k in seen or seen.add(k)))
        return document

    try:
        document = json.loads(text, object_pairs_hook=unique, **options)
    except (ValueError, RecursionError) as err:
        raise error(f"{what} is not valid JSON: {err}") from err
    if duplicates:
        raise error(f"duplicate key {duplicates[0]!r} in {what}")
    return document


def json_object(value, error: type[ValueError], what: str, keys) -> None:
    """Raise error("<what> must be a JSON object") unless value is a dict,
    and error("<what> does not take a key 'k'") for its first key not in keys."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    if unknown := [key for key in value if key not in keys]:
        raise error(f"{what} does not take a key {unknown[0]!r}")


def read_input(path, error: type[ValueError], what: str, load=str):
    """load(the file's UTF-8 text). Failing to open, decode or load it raises
    error("cannot read <what> <path>: <reason>")."""
    try:
        with open(path, encoding="utf-8") as file:
            return load(file.read())
    except (OSError, UnicodeDecodeError, error) as err:
        raise error(f"cannot read {what} {path}: {err}") from err


def data_path(name: str) -> str:
    """The path of the shipped file rsl/data/<name>."""
    return os.path.join(os.path.dirname(__file__), "data", name)


class SourceSpan(NamedTuple):
    """1-based source location; col_end is inclusive."""

    line: int
    col_start: int
    col_end: int


def _checked_span(cls, line: int, col_start: int, col_end: int) -> SourceSpan:
    if line < 1 or col_start < 1 or col_end < col_start:
        raise ValueError(f"malformed span {line}:{col_start}-{col_end}")
    return tuple.__new__(cls, (line, col_start, col_end))


# NamedTuple forbids defining __new__ in the class body; the check goes in
# afterwards so that constructing a span stays one Python-level call.
# _make and _replace build the tuple directly and skip it.
SourceSpan.__new__ = staticmethod(_checked_span)


# Placeholder span for statements constructed in memory rather than parsed.
DUMMY_SPAN = SourceSpan(1, 1, 1)


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    COMMA = "comma"
    SEMICOLON = "semicolon"
    END = "end"


# Per keyword, the kinds of the tokens after it in a well-formed statement:
# its parameters in position order, a comma between each two, a semicolon.
# Lists, as the parser compares them with a slice of its token kinds.
STATEMENT_KINDS: dict[str, list[TokenKind]] = {
    kw: [kind for param in schema for kind in (
        TokenKind.COMMA, TokenKind.NUMBER if param == "number" else TokenKind.IDENTIFIER
    )][1:] + [TokenKind.SEMICOLON]
    for kw, schema in STATEMENT_SCHEMAS.items()
}


class Token(NamedTuple):
    """One lexeme. text is the verbatim source slice (empty only for END).

    keyword carries the canonical lowercase command name for KEYWORD tokens,
    value the parsed float for NUMBER tokens.
    """

    kind: TokenKind
    text: str
    span: SourceSpan
    keyword: str | None = None
    value: float | None = None


class Number(NamedTuple):
    """Numeric literal. raw is the source text and is authoritative when
    re-rendering, so round trips never drift."""

    value: float
    raw: str


def _refuse_mutation(self, name: str, *value) -> None:
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def frozen_slots(cls):
    """cls as a slotted frozen dataclass whose __setattr__ and __delattr__
    raise FrozenInstanceError for any name, where the generated pair raises
    TypeError for a name that is not a field."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse_mutation
    return cls


@frozen_slots
class Statement:
    """One command: keyword plus arguments per STATEMENT_SCHEMAS.

    Arguments are Number instances for "number" slots and plain strings for
    "object" slots. The span covers the whole statement and is excluded from
    equality so structural comparison ignores source positions.
    """

    keyword: str
    args: tuple[Number | str, ...] = ()
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)

    def __post_init__(self) -> None:
        schema = STATEMENT_SCHEMAS.get(self.keyword)
        if schema is None:
            raise ValueError(f"unknown command {self.keyword!r}")
        if len(self.args) != len(schema):
            raise ValueError(
                f"{self.keyword} takes {len(schema)} argument(s), got {len(self.args)}"
            )
        for arg, kind in zip(self.args, schema):
            if kind == "number" and not isinstance(arg, Number):
                raise ValueError(f"{self.keyword} expects a numeric argument")
            if kind == "object" and not isinstance(arg, str):
                raise ValueError(f"{self.keyword} expects an object-name argument")


@frozen_slots
class Program:
    """Ordered statements plus the source they came from. Equality is
    structural over the statements; source is provenance only.

    verified is set only by parser.check, on a program it found no
    diagnostic in. It is not a constructor argument and dataclasses.replace
    does not copy it, so a program built or changed by hand is unverified.
    It takes no part in equality or repr."""

    statements: tuple[Statement, ...] = ()
    source: str = field(compare=False, default="")
    verified: bool = field(default=False, init=False, compare=False, repr=False)


def acyclic(function):
    """Run function with the cyclic garbage collector paused, for calls whose
    values form no reference cycle, so reference counting frees them all. The
    pause ends in this wrapper, after the call's frame and locals are gone.
    A caller that has paused the collector already keeps it paused."""

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def render_statement(s: Statement) -> str:
    """Canonical concrete syntax: lowercase keyword, single spaces, ", "
    between goto coordinates, trailing semicolon."""
    args = s.args
    if not args:
        return f"{s.keyword};"
    if len(args) == 1:
        arg = args[0]
        return f"{s.keyword} {arg.raw if isinstance(arg, Number) else arg};"
    return f"{s.keyword} {', '.join([a.raw if isinstance(a, Number) else a for a in args])};"


def render_program(p: Program) -> str:
    """One statement per line."""
    return "\n".join(render_statement(s) for s in p.statements)
