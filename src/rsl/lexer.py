"""Hand-written scanner: source text to a token stream.

Lexical problems never abort the scan. Each one becomes a diagnostic in one of
the five lexical categories, and where the intended token is obvious the
scanner recovers it so later phases can keep working on the rest of the
statement:

  * case-variant keyword  -> Keyword diagnostic, plus the intended keyword token
  * digit-led identifier  -> Identifier diagnostic, plus an identifier token
  * malformed number      -> Number diagnostic, plus a number token (best-effort value);
                             a literal too large for a finite float is malformed
  * illegal character     -> Character diagnostic, character skipped
  * malformed comment     -> Comment diagnostic, rest of the line consumed
                             (rest of the input for an unterminated block)

Recovering the intended token keeps one mistake one diagnostic instead of a
cascade, which is what the repair loop needs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .diagnostics import Category, Diagnostic
from .syntax import KEYWORDS, NUMBER_RE, SourceSpan, Token, TokenKind

_WHITESPACE = " \t\r"
_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
# Characters absorbed into a malformed number/identifier blob so that e.g.
# "123.23.45" and "3apple" each become a single diagnostic, not two tokens.
_BLOB_CHARS = _IDENT_CONT | frozenset(".")


@dataclass(frozen=True)
class LexOutcome:
    tokens: tuple[Token, ...]
    diagnostics: tuple[Diagnostic, ...]


class _Scanner:
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
                # Unterminated block comment: diagnose its opening line, then
                # treat everything remaining as the intended comment.
                text = self._rest_of_line()
                self.diagnostics.append(
                    Diagnostic(Category.COMMENT, self._span(text), text)
                )
                self._advance(len(self.source) - self.i)
            else:
                self._advance(end + 2 - self.i)
        else:
            # A lone '/' opens nothing valid; assume the rest of the line was
            # meant to be a comment.
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
            self._emit(TokenKind.NUMBER, blob, value=_best_effort_value(blob))

    def scan(self) -> LexOutcome:
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
        return LexOutcome(tuple(self.tokens), tuple(self.diagnostics))


def _best_effort_value(blob: str) -> float:
    """Longest valid numeric prefix of a malformed number, 0.0 if none. A
    prefix too large for a float gives the largest finite float of its sign."""
    for end in range(len(blob), 0, -1):
        if NUMBER_RE.match(blob[:end]):
            value = float(blob[:end])
            if math.isinf(value):
                return math.copysign(sys.float_info.max, value)
            return value
    return 0.0


def lex(source: str) -> LexOutcome:
    """Scan source into tokens plus all lexical diagnostics found.

    Comments (// to end of line, /* ... */) and whitespace produce no tokens.
    The token stream always ends with a single END token. Never raises.
    """
    return _Scanner(source).scan()
