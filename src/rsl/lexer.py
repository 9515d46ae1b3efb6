"""Table-driven scanner: source text to a token stream.

One master regular expression, _TOKEN_RE, names every lexeme class; lex walks
its matches in order and dispatches on the class that matched, so every
character of the source belongs to exactly one match. Line and column come
from the offset of the last newline seen.

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
import re
import sys
from dataclasses import dataclass

from .diagnostics import Category, Diagnostic
from .syntax import KEYWORDS, NUMBER_RE, SourceSpan, Token, TokenKind

# Alternatives are tried in order at each position. Character classes are
# spelled out in ASCII because \w and \d also match letters and digits of
# other scripts, which are illegal characters here.
_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r]+|//[^\n]*)"
    r"|(?P<newline>\n)"
    # The search for */ starts after the /*, so "/*/" does not close.
    r"|(?P<comment>/\*.*?\*/)"
    # Unterminated: diagnose the opening line, swallow the rest of the input.
    r"|(?P<unclosed>/\*[^\n]*).*"
    # A lone / opens nothing valid; the rest of its line is presumed a comment.
    r"|(?P<slash>/[^\n]*)"
    r"|(?P<semicolon>;)"
    r"|(?P<comma>,)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    # Letters and dots are absorbed so that "123.23.45" and "3apple" each
    # become a single diagnostic, not several tokens.
    r"|(?P<blob>-?[0-9][A-Za-z0-9_.]*)"
    r"|(?P<char>.)",
    re.DOTALL,
)
_LETTER_RE = re.compile(r"[A-Za-z_]")
_NUMBER_PREFIX_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


@dataclass(frozen=True)
class LexOutcome:
    tokens: tuple[Token, ...]
    diagnostics: tuple[Diagnostic, ...]


def _best_effort_value(blob: str) -> float:
    """Longest valid numeric prefix of a malformed number (which starts with
    a digit or a minus and a digit). A prefix too large for a float gives
    the largest finite float of its sign."""
    value = float(_NUMBER_PREFIX_RE.match(blob).group())
    if math.isinf(value):
        return math.copysign(sys.float_info.max, value)
    return value


def lex(source: str) -> LexOutcome:
    """Scan source into tokens plus all lexical diagnostics found.

    Comments (// to end of line, /* ... */) and whitespace produce no tokens.
    The token stream always ends with a single END token. Never raises.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        start = m.start()
        if kind == "newline":
            line, line_start = line + 1, start + 1
            continue
        text = m.group(kind)
        col = start - line_start + 1
        span = SourceSpan(line, col, col + len(text) - 1)
        if kind == "semicolon":
            tokens.append(Token(TokenKind.SEMICOLON, text, span))
        elif kind == "comma":
            tokens.append(Token(TokenKind.COMMA, text, span))
        elif kind == "word":
            keyword = text.lower()
            if keyword not in KEYWORDS:
                tokens.append(Token(TokenKind.IDENTIFIER, text, span))
            else:
                if keyword != text:
                    diagnostics.append(Diagnostic(Category.KEYWORD, span, text))
                tokens.append(Token(TokenKind.KEYWORD, text, span, keyword=keyword))
        elif kind == "blob":
            if NUMBER_RE.match(text) and math.isfinite(value := float(text)):
                tokens.append(Token(TokenKind.NUMBER, text, span, value=value))
            elif _LETTER_RE.search(text):
                diagnostics.append(Diagnostic(Category.IDENTIFIER, span, text))
                tokens.append(Token(TokenKind.IDENTIFIER, text, span))
            else:
                diagnostics.append(Diagnostic(Category.NUMBER, span, text))
                value = _best_effort_value(text)
                tokens.append(Token(TokenKind.NUMBER, text, span, value=value))
        elif kind == "char":
            diagnostics.append(Diagnostic(Category.CHARACTER, span, text))
        else:  # comment, unclosed or slash; a block comment may span lines
            if kind != "comment":
                diagnostics.append(Diagnostic(Category.COMMENT, span, text))
            newlines = source.count("\n", start, m.end())
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, m.end()) + 1
    col = len(source) - line_start + 1
    tokens.append(Token(TokenKind.END, "", SourceSpan(line, col, col)))
    return LexOutcome(tuple(tokens), tuple(diagnostics))
