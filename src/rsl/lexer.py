"""Table-driven scanner: source text to a token stream.

One master regular expression, _TOKEN_RE, names every lexeme class; lex walks
its matches in order and dispatches on what matched, so every character of
the source belongs to exactly one match. A well-formed statement on one line,
with a lowercase keyword and only spaces and tabs inside, is one match: there
is one alternative per token-kind shape in STATEMENT_KINDS. So is one that
lacks only its semicolon, where the next character cannot continue its last
lexeme. No lexeme in such a match needs a diagnostic (see
_statement_alternatives), so lex builds its keyword and semicolon tokens
outright and loops over its parameters and commas only. Anything else, such
as a statement broken across lines or by a comment, a case-variant keyword
or a bad lexeme, falls back to one match per token. Gaps (whitespace,
newlines, closed comments) are a prefix of the next match, or of a last
match at the end. Line and column come from the last newline seen, searched
for only in gaps that are not empty. Spans are valid by construction, so
tokens and spans skip SourceSpan's check.

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
    ANY_CASE_KEYWORD, IDENTIFIER, KEYWORDS, NUMERAL, STATEMENT_KINDS, SourceSpan, Token, TokenKind,
    frozen_slots,
)

# Enum members as module globals: a lookup on the class runs EnumType's hook.
_KEYWORD, _IDENTIFIER, _NUMBER = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.NUMBER
_SEMICOLON, _COMMA, _END = TokenKind.SEMICOLON, TokenKind.COMMA, TokenKind.END
_BAD_KEYWORD, _BAD_IDENTIFIER = Category.KEYWORD, Category.IDENTIFIER
_BAD_NUMBER, _BAD_CHARACTER, _BAD_COMMENT = Category.NUMBER, Category.CHARACTER, Category.COMMENT
_new = tuple.__new__
_isfinite = math.isfinite
# What continues a digit-led lexeme; it continues a word too, but for ".".
_CONTINUE = "[A-Za-z0-9_.]"


def _statement_alternatives() -> tuple[str, dict[str, tuple]]:
    """One alternative per token-kind shape in STATEMENT_KINDS, a whole
    statement on one line: a lowercase keyword of that shape, then the tokens
    of its kinds. Only spaces and tabs come between them, and at least one
    between a keyword and its first parameter. The semicolon may be missing
    where the next character is none of _CONTINUE, so that the per-token
    path would end the last lexeme there too. No lexeme in a match needs a
    diagnostic: a number has at most sys.float_info.max_10_exp (308) integer
    digits, so it is below 10**308 and its float finite, and an object is no
    keyword in any case. Also returns, per alternative of _TOKEN_RE, the
    (group, kind) of each lexeme it matches, in order; a kind that is a
    Category is a diagnostic, and a word is an identifier unless it is a
    keyword in some case."""
    lexemes = {kind: ((kind, lexeme),) for kind, lexeme in (
        ("word", _IDENTIFIER), ("numeral", _NUMBER), ("semicolon", _SEMICOLON), ("comma", _COMMA),
        ("unclosed", _BAD_COMMENT), ("slash", _BAD_COMMENT), ("char", _BAD_CHARACTER))}
    shapes: dict[tuple[TokenKind, ...], list[str]] = {}
    for keyword, kinds in STATEMENT_KINDS.items():
        shapes.setdefault(tuple(kinds), []).append(keyword)
    # A number is followed by spaces or tabs and ",", or by what cannot
    # continue a numeral, so "2.5.3" and "3apple" still go to numeral.
    regex = {_NUMBER: rf"-?[0-9]{{1,{sys.float_info.max_10_exp}}}(?:\.[0-9]+)?", _COMMA: ",",
             _IDENTIFIER: rf"(?!{ANY_CASE_KEYWORD}){IDENTIFIER}"}
    alternatives = []
    for index, (kinds, keywords) in enumerate(shapes.items()):
        name = f"s{index}"
        pattern, groups = f"(?P<{name}k>{'|'.join(keywords)})", [(f"{name}k", _KEYWORD)]
        for i, kind in enumerate(kinds[:-1]):  # the last kind is the semicolon
            group = f"{name}t{i}"
            pattern += rf"[ \t]{'+' if i == 0 else '*'}(?P<{group}>{regex[kind]})"
            groups.append((group, kind))
        # The semicolon's group, the last to close, names the alternative:
        # a group around all of it would add to the cost of every match.
        pattern += rf"(?:[ \t]*(?P<{name}>;)|(?!{_CONTINUE}))"
        alternatives.append(pattern)
        groups.append((name, _SEMICOLON))
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
    # only spaces and tabs between its tokens, with or without its semicolon.
    rf"(?:{_STATEMENT_ALTERNATIVES}"
    rf"|(?P<word>{IDENTIFIER})"
    # A digit-led run of letters, digits and dots is one lexeme, so that
    # "123.23.45" and "3apple" each become a single diagnostic. It is a number
    # when all of it is its prefix, a NUMERAL.
    rf"|(?P<numeral>(?P<prefix>{NUMERAL}){_CONTINUE}*)"
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
# Per statement alternative, by the number of the group that closes last (a
# match's lastindex): its keyword's group number, the group number and kind of
# each of its parameters and commas, and whether a semicolon, one character,
# ends the match. The semicolon's group closes last when it matched, else the
# last parameter's, or the keyword's in a statement without parameters.
_STATEMENTS = {
    _TOKEN_RE.groupindex[last]: (_TOKEN_RE.groupindex[lexemes[0][0]],
                                 tuple((_TOKEN_RE.groupindex[g], k) for g, k in lexemes[1:-1]),
                                 terminated)
    for name, lexemes in _LEXEMES.items() if len(lexemes) > 1
    for last, terminated in ((name, True), (lexemes[-2][0], False))
}
_LETTER_RE = re.compile(r"[A-Za-z_]")
_FLOAT_MAX = sys.float_info.max


@frozen_slots
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
    # lexeme. source[pos:start] is the gap before the next lexeme.
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        statement = _STATEMENTS.get(m.lastindex)
        start = m.start(statement[0]) if statement else m.start(m.lastindex)
        if start == pos + 1 and source[pos] == "\n":
            line, line_start = line + 1, start
        elif start != pos and (newlines := source.count("\n", pos, start)):
            line += newlines
            line_start = source.rfind("\n", pos, start) + 1
        if statement:
            keyword, parameters, terminated = statement
            offset = line_start - 1  # a lexeme's column is its index in source minus this
            text = m.group(keyword)
            span = _new(SourceSpan, (line, start - offset, start - offset + len(text) - 1))
            tokens.append(_new(Token, (_KEYWORD, text, span, text, None)))
            for group, kind in parameters:
                text = m.group(group)
                col = m.start(group) - offset
                span = _new(SourceSpan, (line, col, col + len(text) - 1))
                tokens.append(_new(Token, (kind, text, span, None,
                                           float(text) if kind is _NUMBER else None)))
            pos = m.end()
            if terminated:
                col = pos - 1 - offset  # the semicolon is the match's last character
                span = _new(SourceSpan, (line, col, col))
                tokens.append(_new(Token, (_SEMICOLON, ";", span, None, None)))
            continue
        alternative = m.lastgroup
        if alternative == "end":
            break
        ((group, kind),) = _LEXEMES[alternative]
        text = m.group(group)
        col = start - line_start + 1
        span = _new(SourceSpan, (line, col, col + len(text) - 1))
        if kind is _NUMBER:
            prefix = m.group("prefix")
            if len(prefix) != len(text) and _LETTER_RE.search(text):
                diagnostics.append(_new(Diagnostic, (_BAD_IDENTIFIER, span, text)))
                tokens.append(_new(Token, (_IDENTIFIER, text, span, None, None)))
            else:
                value = float(prefix)
                if len(prefix) != len(text) or not _isfinite(value):
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
        else:  # an identifier, a comma or a semicolon
            tokens.append(_new(Token, (kind, text, span, None, None)))
        pos = m.end(group)
    col = len(source) - line_start + 1
    tokens.append(_new(Token, (_END, "", _new(SourceSpan, (line, col, col)), None, None)))
    return LexOutcome(tuple(tokens), tuple(diagnostics))
