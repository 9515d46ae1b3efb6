"""Table-driven scanner: source text to a token stream.

One master regular expression, _TOKEN_RE, names every lexeme class; lex walks
its matches in order and dispatches on the class that matched, so every
character of the source belongs to exactly one match. Gaps (whitespace,
newlines, closed comments) are a prefix of the next lexeme's match, or of a
last match at the end, so the scan takes one step per token. Line and column
come from the last newline seen, searched for only in gaps that are not empty.
Spans are valid by construction, so tokens and spans skip SourceSpan's check.

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
from .syntax import KEYWORDS, SourceSpan, Token, TokenKind

# Alternatives are tried in order at each position. Character classes are
# spelled out in ASCII because \w and \d also match letters and digits of
# other scripts, which are illegal characters here. The gap never backtracks,
# because char or \Z matches wherever it stops, so it needs no atomic group.
_TOKEN_RE = re.compile(
    # The search for */ starts after the /*, so "/*/" does not close.
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    # A digit-led run of letters, digits and dots is one lexeme, so that
    # "123.23.45" and "3apple" each become a single diagnostic. It is a number
    # when all of it is its prefix: an optional sign, digits and an optional
    # single fraction, with no exponent and no leading or trailing dot.
    r"|(?P<numeral>(?P<prefix>-?[0-9]+(?:\.[0-9]+)?)[A-Za-z0-9_.]*)"
    r"|(?P<semicolon>;)"
    r"|(?P<comma>,)"
    # Unterminated: diagnose the opening line, swallow the rest of the input.
    r"|(?P<unclosed>/\*[^\n]*).*"
    # A lone / opens nothing valid; the rest of its line is presumed a comment.
    r"|(?P<slash>/[^\n]*)"
    r"|(?P<char>.)"
    r"|(?P<end>\Z))",
    re.DOTALL,
)
_LETTER_RE = re.compile(r"[A-Za-z_]")
_FLOAT_MAX = sys.float_info.max

# Enum members as module globals: a lookup on the class runs EnumType's hook.
_KEYWORD, _IDENTIFIER, _NUMBER = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.NUMBER
_SEMICOLON, _COMMA, _END = TokenKind.SEMICOLON, TokenKind.COMMA, TokenKind.END
_BAD_KEYWORD, _BAD_IDENTIFIER = Category.KEYWORD, Category.IDENTIFIER
_BAD_NUMBER, _BAD_CHARACTER, _BAD_COMMENT = Category.NUMBER, Category.CHARACTER, Category.COMMENT
_new = tuple.__new__


@dataclass(frozen=True)
class LexOutcome:
    tokens: tuple[Token, ...]
    diagnostics: tuple[Diagnostic, ...]


def lex(source: str) -> LexOutcome:
    """Scan source into tokens plus all lexical diagnostics found.

    Comments (// to end of line, /* ... */) and whitespace produce no tokens.
    The token stream always ends with a single END token. Never raises.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    # line_start: offset of the line's first character; pos: end of the last
    # lexeme, so source[pos:start] is the gap before the next one.
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if start != pos and (newlines := source.count("\n", pos, start)):
            line += newlines
            line_start = source.rfind("\n", pos, start) + 1
        if kind == "end":
            break
        text = m.group(kind)
        pos = start + len(text)
        col = start - line_start + 1
        span = _new(SourceSpan, (line, col, col + len(text) - 1))
        if kind == "word":
            keyword = text.lower()
            if keyword not in KEYWORDS:
                tokens.append(_new(Token, (_IDENTIFIER, text, span, None, None)))
            else:
                if keyword != text:
                    diagnostics.append(Diagnostic(_BAD_KEYWORD, span, text))
                tokens.append(_new(Token, (_KEYWORD, text, span, keyword, None)))
        elif kind == "numeral":
            prefix = m.group("prefix")
            value = float(prefix)
            if len(prefix) == len(text) and math.isfinite(value):
                tokens.append(_new(Token, (_NUMBER, text, span, None, value)))
            elif _LETTER_RE.search(text):
                diagnostics.append(Diagnostic(_BAD_IDENTIFIER, span, text))
                tokens.append(_new(Token, (_IDENTIFIER, text, span, None, None)))
            else:
                # The recovered value is the prefix's, or the largest finite
                # float of its sign when the prefix is too large for one.
                diagnostics.append(Diagnostic(_BAD_NUMBER, span, text))
                value = max(-_FLOAT_MAX, min(value, _FLOAT_MAX))
                tokens.append(_new(Token, (_NUMBER, text, span, None, value)))
        elif kind == "semicolon":
            tokens.append(_new(Token, (_SEMICOLON, text, span, None, None)))
        elif kind == "comma":
            tokens.append(_new(Token, (_COMMA, text, span, None, None)))
        elif kind == "char":
            diagnostics.append(Diagnostic(_BAD_CHARACTER, span, text))
        else:  # unclosed or slash; the rest an unclosed block swallows is a gap
            diagnostics.append(Diagnostic(_BAD_COMMENT, span, text))
    col = len(source) - line_start + 1
    tokens.append(_new(Token, (_END, "", _new(SourceSpan, (line, col, col)), None, None)))
    return LexOutcome(tuple(tokens), tuple(diagnostics))
