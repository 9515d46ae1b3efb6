"""Core syntax of the Robot Skill Language: tokens, spans, and the statement AST.

Every statement is one command keyword, its parameters, and a terminating
semicolon. The twelve command forms are fixed; there are no variables,
expressions, conditionals, or loops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

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

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# Optional sign, digits, optional single fraction. No exponents, no leading
# or trailing dot.
NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?\Z")


@dataclass(frozen=True)
class SourceSpan:
    """1-based source location; col_end is inclusive."""

    line: int
    col_start: int
    col_end: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.col_start < 1 or self.col_end < self.col_start:
            raise ValueError(
                f"malformed span {self.line}:{self.col_start}-{self.col_end}"
            )


# Placeholder span for statements constructed in memory rather than parsed.
DUMMY_SPAN = SourceSpan(1, 1, 1)


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    COMMA = "comma"
    SEMICOLON = "semicolon"
    END = "end"


@dataclass(frozen=True)
class Token:
    """One lexeme. text is the verbatim source slice (empty only for END).

    keyword carries the canonical lowercase command name for KEYWORD tokens,
    value the parsed float for NUMBER tokens.
    """

    kind: TokenKind
    text: str
    span: SourceSpan
    keyword: str | None = None
    value: float | None = None


@dataclass(frozen=True)
class Number:
    """Numeric literal. raw is the source text and is authoritative when
    re-rendering, so round trips never drift."""

    value: float
    raw: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def render_statement(s: Statement) -> str:
    """Canonical concrete syntax: lowercase keyword, single spaces, ", "
    between goto coordinates, trailing semicolon."""
    args = [a.raw if isinstance(a, Number) else a for a in s.args]
    if not args:
        return f"{s.keyword};"
    return f"{s.keyword} {', '.join(args)};"


def render_program(p: Program) -> str:
    """One statement per line."""
    return "\n".join(render_statement(s) for s in p.statements)
