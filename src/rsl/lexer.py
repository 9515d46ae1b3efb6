"""Table-driven scanner: source text to a token stream.

One master regular expression, _TOKEN_RE, names every lexeme class; lex walks
its matches in order and dispatches on what matched, so every character of
the source belongs to exactly one match. A well-formed statement on one line,
with a lowercase keyword and only spaces and tabs inside, is one match: there
is one alternative per token-kind shape in STATEMENT_KINDS, and lex emits
the statement's tokens from its groups. Anything else, such as a statement
broken across lines or by a comment, a case-variant keyword or a bad lexeme,
falls back to one match per token. Gaps (whitespace, newlines, closed
comments) are a prefix of the next match, or of a last match at the end.
Line and column come from the last newline seen, searched for only in gaps
that are not empty. Spans are valid by construction, so tokens and spans
skip SourceSpan's check.

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

from .diagnostics import Category, Diagnostic
from .syntax import (
    IDENTIFIER, KEYWORDS, NUMERAL, STATEMENT_KINDS, SourceSpan, Token, TokenKind, frozen_slots,
    slot_builder,
)

# Enum members as module globals: a lookup on the class runs EnumType's hook.
_KEYWORD, _IDENTIFIER, _NUMBER = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.NUMBER
_SEMICOLON, _COMMA, _END = TokenKind.SEMICOLON, TokenKind.COMMA, TokenKind.END
_BAD_KEYWORD, _BAD_IDENTIFIER = Category.KEYWORD, Category.IDENTIFIER
_BAD_NUMBER, _BAD_CHARACTER, _BAD_COMMENT = Category.NUMBER, Category.CHARACTER, Category.COMMENT
_new = tuple.__new__
_isfinite = math.isfinite


def _statement_alternatives() -> tuple[str, dict[str, tuple]]:
    """One alternative per token-kind shape in STATEMENT_KINDS, a whole
    statement on one line: a lowercase keyword of that shape, then the tokens
    of its kinds. Only spaces and tabs come between them, and at least one
    between a keyword and its first parameter. Also returns, per alternative
    of _TOKEN_RE, the (group, kind) of each lexeme it matches, in order; a
    kind that is a Category is a diagnostic, and a word is an identifier
    unless it is a keyword in some case."""
    lexemes = {kind: ((kind, lexeme),) for kind, lexeme in (
        ("word", _IDENTIFIER), ("numeral", _NUMBER), ("semicolon", _SEMICOLON), ("comma", _COMMA),
        ("unclosed", _BAD_COMMENT), ("slash", _BAD_COMMENT), ("char", _BAD_CHARACTER))}
    shapes: dict[tuple[TokenKind, ...], list[str]] = {}
    for keyword, kinds in STATEMENT_KINDS.items():
        shapes.setdefault(tuple(kinds), []).append(keyword)
    # A number is followed by spaces or tabs and "," or ";", which cannot
    # continue a numeral, so "2.5.3" and "3apple" still go to numeral.
    regex = {_NUMBER: NUMERAL, _IDENTIFIER: IDENTIFIER, _COMMA: ",", _SEMICOLON: ";"}
    alternatives = []
    for index, (kinds, keywords) in enumerate(shapes.items()):
        name = f"s{index}"
        pattern, groups = f"(?P<{name}k>{'|'.join(keywords)})", [(f"{name}k", _KEYWORD)]
        for i, kind in enumerate(kinds):
            # The semicolon's group, the last to close, names the alternative:
            # a group around all of it would add to the cost of every match.
            group = name if kind is _SEMICOLON else f"{name}t{i}"
            gap = "+" if i == 0 and kind is not _SEMICOLON else "*"
            pattern += rf"[ \t]{gap}(?P<{group}>{regex[kind]})"
            groups.append((group, kind))
        alternatives.append(pattern)
        lexemes[name] = tuple(groups)
    return "|".join(alternatives), lexemes


_STATEMENT_ALTERNATIVES, _LEXEMES = _statement_alternatives()

# Alternatives are tried in order at each position. Character classes are
# spelled out in ASCII, as in syntax.IDENTIFIER. The gap never backtracks,
# because char or \Z matches wherever it stops, so it needs no atomic group.
_TOKEN_RE = re.compile(
    # The search for */ starts after the /*, so "/*/" does not close.
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    # A clean one-line statement whose keyword is lowercase: one match, with
    # only spaces and tabs between its tokens.
    rf"(?:{_STATEMENT_ALTERNATIVES}"
    rf"|(?P<word>{IDENTIFIER})"
    # A digit-led run of letters, digits and dots is one lexeme, so that
    # "123.23.45" and "3apple" each become a single diagnostic. It is a number
    # when all of it is its prefix, a NUMERAL.
    rf"|(?P<numeral>(?P<prefix>{NUMERAL})[A-Za-z0-9_.]*)"
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


@frozen_slots
class LexOutcome:
    tokens: tuple[Token, ...]
    diagnostics: tuple[Diagnostic, ...]


_lex_outcome = slot_builder(LexOutcome)


def lex(source: str) -> LexOutcome:
    """Scan source into tokens plus all lexical diagnostics found.

    Comments (// to end of line, /* ... */) and whitespace produce no tokens.
    The token stream always ends with a single END token. Never raises.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    # line_start: offset of the line's first character; pos: end of the last
    # lexeme. source[pos:start] is the gap before the next lexeme, plus, for a
    # statement match (named by its semicolon), the statement's newline-free text.
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        alternative = m.lastgroup
        start = m.start(alternative)
        if start != pos and (newlines := source.count("\n", pos, start)):
            line += newlines
            line_start = source.rfind("\n", pos, start) + 1
        if alternative == "end":
            break
        for group, kind in _LEXEMES[alternative]:
            text = m.group(group)
            col = m.start(group) - line_start + 1
            span = _new(SourceSpan, (line, col, col + len(text) - 1))
            if kind is _NUMBER:
                # A number in a statement match is all prefix.
                prefix = m.group("prefix") or text
                value = float(prefix)
                if len(prefix) == len(text) and _isfinite(value):
                    tokens.append(_new(Token, (_NUMBER, text, span, None, value)))
                elif _LETTER_RE.search(text):
                    diagnostics.append(_new(Diagnostic, (_BAD_IDENTIFIER, span, text)))
                    tokens.append(_new(Token, (_IDENTIFIER, text, span, None, None)))
                else:
                    # The recovered value is the prefix's, or the largest finite
                    # float of its sign when the prefix is too large for one.
                    diagnostics.append(_new(Diagnostic, (_BAD_NUMBER, span, text)))
                    value = max(-_FLOAT_MAX, min(value, _FLOAT_MAX))
                    tokens.append(_new(Token, (_NUMBER, text, span, None, value)))
            elif kind is _IDENTIFIER and (keyword := text.lower()) in KEYWORDS:
                if keyword != text:
                    diagnostics.append(_new(Diagnostic, (_BAD_KEYWORD, span, text)))
                tokens.append(_new(Token, (_KEYWORD, text, span, keyword, None)))
            elif kind is _BAD_CHARACTER or kind is _BAD_COMMENT:
                # The rest of the input an unclosed block swallows is a gap.
                diagnostics.append(_new(Diagnostic, (kind, span, text)))
            else:  # a statement's keyword, an identifier, a comma or a semicolon
                keyword = text if kind is _KEYWORD else None
                tokens.append(_new(Token, (kind, text, span, keyword, None)))
        pos = m.end(group)
    col = len(source) - line_start + 1
    tokens.append(_new(Token, (_END, "", _new(SourceSpan, (line, col, col)), None, None)))
    return _lex_outcome(tuple(tokens), tuple(diagnostics))
