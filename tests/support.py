"""Shared test helpers: seeded program fuzzers, an independent brute-force
kinematics oracle, and the character-at-a-time scanner the lexer replaced.

The oracle deliberately re-implements execution from scratch (complex-number
arithmetic over plain tuples) so simulator tests compare two genuinely
different derivations of the same semantics. The old scanner is kept as the
reference for the differential test of rsl.lexer.
"""

from __future__ import annotations

import cmath
import math
import random
import string
import sys

from rsl import Category, Diagnostic, Number, Program, Statement
from rsl.syntax import (
    KEYWORDS, NUMBER_RE, STATEMENT_SCHEMAS, SourceSpan, Token, TokenKind,
)

KEYWORD_LIST = sorted(KEYWORDS)
_NAME_ALPHABET = string.ascii_lowercase + "_"
_NAME_CONT = string.ascii_lowercase + string.digits + "_"


def random_number_raw(rng: random.Random, *, allow_nonpositive: bool = False) -> str:
    """A raw numeric literal matching the lexeme rule, positive unless asked."""
    style = rng.randrange(3)
    if style == 0:
        text = str(rng.randint(1, 99))
    elif style == 1:
        text = f"{rng.randint(0, 9)}.{rng.randint(0, 999)}"
    else:
        text = f"{rng.randint(0, 3)}.{rng.randint(1, 99):02d}"
    if allow_nonpositive:
        pick = rng.randrange(4)
        if pick == 0:
            text = "-" + text
        elif pick == 1:
            text = rng.choice(["0", "0.0"])
    elif float(text) == 0.0:
        text = str(rng.randint(1, 9))
    return text


def random_object_name(rng: random.Random) -> str:
    while True:
        name = rng.choice(_NAME_ALPHABET) + "".join(
            rng.choice(_NAME_CONT) for _ in range(rng.randrange(8))
        )
        if name.lower() not in KEYWORDS:
            return name


def random_statement(rng: random.Random) -> Statement:
    keyword = rng.choice(KEYWORD_LIST)
    args: list[Number | str] = []
    for kind in STATEMENT_SCHEMAS[keyword]:
        if kind == "number":
            raw = random_number_raw(rng, allow_nonpositive=(keyword == "goto"))
            args.append(Number(float(raw), raw))
        else:
            args.append(random_object_name(rng))
    return Statement(keyword, tuple(args))


def random_program(rng: random.Random, max_len: int = 6) -> Program:
    count = rng.randint(0, max_len)
    return Program(tuple(random_statement(rng) for _ in range(count)))


def random_junk_source(rng: random.Random) -> str:
    """Adversarial input for totality fuzzing: either raw character noise or
    a soup of plausible and broken lexemes."""
    if rng.random() < 0.5:
        alphabet = (
            string.ascii_letters + string.digits + " \t\n;,./*$-#@\"'(){}[]\\%&!?^~`"
            + "\u00e9\u4e16\x00"
        )
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(61)))
    pieces = [
        "forward", "FORWARD", "Goto", "goto", "grasp", "perceive", "move",
        "1", "1.5", "-2", "123.23.45", "3apple", "1.", "0", ";", ",",
        "$", "/", "//", "/*", "*/", "/* x */", "// y", "table", "_x9",
        "\n", " ", "\t",
    ]
    return " ".join(rng.choice(pieces) for _ in range(rng.randrange(25)))


def _wrap(theta: float) -> float:
    return math.atan2(math.sin(theta), math.cos(theta))


def oracle_execute(statements, objects, grasp_range=0.5, reach_offset=0.5, start=(0.0, 0.0, 0.0)):
    """Brute-force executor over (keyword, args) tuples.

    args holds floats for numbers and strings for object names. Returns a
    state dict on success or (error_kind_name, executed_count) on failure.
    """
    z = complex(start[0], start[1])
    heading = start[2]
    pan = 0.0
    tilt = 0.0
    held = None
    perceived = False
    executed = 0
    for keyword, args in statements:
        if keyword == "forward":
            z += args[0] * cmath.exp(1j * heading)
        elif keyword == "backward":
            z -= args[0] * cmath.exp(1j * heading)
        elif keyword == "turnleft":
            heading = _wrap(heading + args[0])
        elif keyword == "turnright":
            heading = _wrap(heading - args[0])
        elif keyword == "lookup":
            tilt += args[0]
        elif keyword == "lookdown":
            tilt -= args[0]
        elif keyword == "lookleft":
            pan += args[0]
        elif keyword == "lookright":
            pan -= args[0]
        elif keyword == "perceive":
            perceived = True
        elif keyword == "goto":
            z = complex(args[0], args[1])
        elif keyword == "approach":
            if args[0] not in objects:
                return ("UnknownObject", executed)
            target = complex(*objects[args[0]])
            vector = target - z
            if abs(vector) > 0.0:
                heading = cmath.phase(vector)
            z = target - reach_offset * cmath.exp(1j * heading)
        elif keyword == "grasp":
            if args[0] not in objects:
                return ("UnknownObject", executed)
            if held is not None:
                return ("HandFull", executed)
            if abs(complex(*objects[args[0]]) - z) > grasp_range + 1e-9:
                return ("GraspOutOfRange", executed)
            held = args[0]
        else:
            raise AssertionError(f"oracle got unknown keyword {keyword!r}")
        executed += 1
    return {
        "x": z.real,
        "y": z.imag,
        "heading": heading,
        "cam_pan": pan,
        "cam_tilt": tilt,
        "held": held,
        "perceived": perceived,
        "executed": executed,
    }


def statement_as_tuple(statement: Statement):
    args = tuple(a.value if isinstance(a, Number) else a for a in statement.args)
    return (statement.keyword, args)


def headings_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(_wrap(a - b)) <= tol


_WHITESPACE = " \t\r"
_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_BLOB_CHARS = _IDENT_CONT | frozenset(".")


class ReferenceScanner:
    """The hand-written scanner rsl.lexer had before its single-regex
    rewrite, walking the source one character at a time. scan() returns
    (tokens, diagnostics) as tuples."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.i = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []
        self.diagnostics: list[Diagnostic] = []

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.i >= len(self.source):
                return
            if self.source[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def _span(self, text: str) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.col + max(len(text), 1) - 1)

    def _emit(self, kind: TokenKind, text: str, **extra) -> None:
        self.tokens.append(Token(kind, text, self._span(text), **extra))
        self._advance(len(text))

    def _report(self, category: Category, text: str, consume: int) -> None:
        self.diagnostics.append(Diagnostic(category, self._span(text), text))
        self._advance(consume)

    def _rest_of_line(self) -> str:
        end = self.source.find("\n", self.i)
        if end == -1:
            end = len(self.source)
        return self.source[self.i : end]

    def _take(self, allowed: frozenset[str]) -> str:
        j = self.i
        while j < len(self.source) and self.source[j] in allowed:
            j += 1
        return self.source[self.i : j]

    def _scan_comment(self) -> None:
        nxt = self.source[self.i + 1] if self.i + 1 < len(self.source) else ""
        if nxt == "/":
            self._advance(len(self._rest_of_line()))
        elif nxt == "*":
            end = self.source.find("*/", self.i + 2)
            if end == -1:
                text = self._rest_of_line()
                self.diagnostics.append(
                    Diagnostic(Category.COMMENT, self._span(text), text)
                )
                self._advance(len(self.source) - self.i)
            else:
                self._advance(end + 2 - self.i)
        else:
            text = self._rest_of_line()
            self._report(Category.COMMENT, text, len(text))

    def _scan_word(self) -> None:
        word = self._take(_IDENT_CONT)
        if word in KEYWORDS:
            self._emit(TokenKind.KEYWORD, word, keyword=word)
        elif word.lower() in KEYWORDS:
            self.diagnostics.append(
                Diagnostic(Category.KEYWORD, self._span(word), word)
            )
            self._emit(TokenKind.KEYWORD, word, keyword=word.lower())
        else:
            self._emit(TokenKind.IDENTIFIER, word)

    def _scan_number(self) -> None:
        j = self.i + 1 if self.source[self.i] == "-" else self.i
        while j < len(self.source) and self.source[j] in _BLOB_CHARS:
            j += 1
        blob = self.source[self.i : j]
        if NUMBER_RE.match(blob) and math.isfinite(value := float(blob)):
            self._emit(TokenKind.NUMBER, blob, value=value)
        elif any(c in _IDENT_START for c in blob):
            self.diagnostics.append(
                Diagnostic(Category.IDENTIFIER, self._span(blob), blob)
            )
            self._emit(TokenKind.IDENTIFIER, blob)
        else:
            self.diagnostics.append(
                Diagnostic(Category.NUMBER, self._span(blob), blob)
            )
            self._emit(TokenKind.NUMBER, blob, value=_prefix_value(blob))

    def scan(self) -> tuple[tuple[Token, ...], tuple[Diagnostic, ...]]:
        src = self.source
        while self.i < len(src):
            c = src[self.i]
            if c in _WHITESPACE or c == "\n":
                self._advance()
            elif c == ";":
                self._emit(TokenKind.SEMICOLON, c)
            elif c == ",":
                self._emit(TokenKind.COMMA, c)
            elif c == "/":
                self._scan_comment()
            elif c in _IDENT_START:
                self._scan_word()
            elif c in _DIGITS:
                self._scan_number()
            elif c == "-" and self.i + 1 < len(src) and src[self.i + 1] in _DIGITS:
                self._scan_number()
            else:
                self._report(Category.CHARACTER, c, 1)
        self.tokens.append(
            Token(TokenKind.END, "", SourceSpan(self.line, self.col, self.col))
        )
        return tuple(self.tokens), tuple(self.diagnostics)


def _prefix_value(blob: str) -> float:
    """Longest valid numeric prefix of a malformed number, 0.0 if none, found
    by trying every prefix. A prefix too large for a float gives the largest
    finite float of its sign."""
    for end in range(len(blob), 0, -1):
        if NUMBER_RE.match(blob[:end]):
            value = float(blob[:end])
            if math.isinf(value):
                return math.copysign(sys.float_info.max, value)
            return value
    return 0.0
