"""LL(1) parse of the token stream into a Program, plus semantic validation.

parse walks lex()'s token tuple by index. Statement dispatch inspects
exactly one lookahead token, and the position only moves forward, one skip
per statement; there is no backtracking. Match, else diagnose: at a keyword,
the kinds of the tokens after it are compared with its STATEMENT_KINDS
entry, parameters with commas between them and then a semicolon, and a
statement that matches is taken in one step: its Statement is built by
setting its slots, without the schema re-check of Statement's __post_init__.
Otherwise the tokens are checked one at a time in a fixed order, so exactly
one diagnostic fires per statement: parameter kinds in position order, then
arity, then the terminator. A token that is not a keyword where a statement
starts is a Command diagnostic. After a diagnostic the walk resumes past the
next semicolon or at the next keyword, so one pass reports every broken
statement.
"""

from __future__ import annotations

from .diagnostics import Category, Diagnostic, source_order
from .lexer import lex
from .syntax import (
    Number,
    Program,
    SourceSpan,
    STATEMENT_KINDS,
    POSITIVE_MAGNITUDE_KEYWORDS,
    Statement,
    Token,
    TokenKind,
    acyclic,
    frozen_slots,
)

# Enum members as module globals, as in lexer.py.
_KEYWORD, _IDENTIFIER, _NUMBER = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.NUMBER
_SEMICOLON, _COMMA, _END = TokenKind.SEMICOLON, TokenKind.COMMA, TokenKind.END
_BAD_COMMAND, _BAD_PARAMETER = Category.COMMAND, Category.PARAMETER
_BAD_QUANTITY, _BAD_SEMICOLON = Category.QUANTITY, Category.SEMICOLON
_new, _object_new = tuple.__new__, object.__new__

# Tuples, whose membership test compares identities, not Enum.__hash__ values.
_SYNC_KINDS = (_SEMICOLON, _KEYWORD, _END)
_ARGUMENT_KINDS = (_NUMBER, _IDENTIFIER, _COMMA)


@frozen_slots
class ParseOutcome:
    """The (possibly partial) program and every diagnostic found. The program
    holds only statements that parsed cleanly, in source order; it is fully
    verified exactly when diagnostics is empty."""

    program: Program
    diagnostics: tuple[Diagnostic, ...]


_set_verified = Program.__dict__["verified"].__set__
_set_keyword, _set_args, _set_span = (Statement.__dict__[f].__set__ for f in Statement.__slots__)


class TokenStream:
    """parse's forward-only position in lex()'s tokens. parse moves it only
    with skip, one step per statement, so a test can watch every move."""

    pos = 0

    def skip(self, count: int) -> None:
        """Move past count tokens that are known to come before END."""
        self.pos += count


def _statement_text(consumed: tuple[Token, ...], source: str, lines: list[str]) -> str:
    """Source text of a statement, for missing-terminator diagnostics.

    Prefers the exact slice of the source lines; falls back to re-joining
    token texts when the statement spans lines or no source is available.
    lines holds the source split once per parse, on first use here: a split
    per diagnostic would make broken input quadratic.
    """
    if not lines:  # lines as the lexer counts them; splitlines() breaks on "\r" too
        lines += source.split("\n")
    first, last = consumed[0], consumed[-1]
    if source and first.span.line == last.span.line:
        line_text = lines[first.span.line - 1]
        return line_text[first.span.col_start - 1 : last.span.col_end]
    parts: list[str] = []
    for tok in consumed:
        if parts and tok.kind not in (_COMMA, _SEMICOLON):
            parts.append(" ")
        parts.append(tok.text)
    return "".join(parts)


def _statement_span(first: Token, last: Token) -> SourceSpan:
    """first to last if on one line, else first's; valid, as tokens are in order."""
    span, end = first[2], last[2]  # by index, as in parse
    return _new(SourceSpan, (span[0], span[1], end[2])) if span[0] == end[0] else span


def _recover(kinds: list[TokenKind], index: int) -> int:
    """The index past the next statement boundary at or after index: that of
    the next keyword or END, or the one past the next semicolon."""
    while (kind := kinds[index]) not in _SYNC_KINDS:
        index += 1
    return index + 1 if kind is _SEMICOLON else index


def _statement_diagnostic(
    tokens: tuple[Token, ...], first: int, expected: list[TokenKind], source: str, lines: list[str]
) -> tuple[Diagnostic, int]:
    """The one diagnostic of the statement at keyword tokens[first] whose later
    tokens are not all of the expected kinds, at the first that is not, and its
    index. The walk ends at the semicolon slot, the last, at the latest. A
    missing semicolon, or a mistake found at END where there is nothing to
    point at, names the statement parsed so far."""
    index = first + 1
    for kind in expected:
        tok = tokens[index]
        if kind is _SEMICOLON:
            # Not a semicolon, or the statement would have matched: an argument
            # too many, or KEYWORD or END, so it simply was not terminated.
            category = _BAD_QUANTITY if tok[0] in _ARGUMENT_KINDS else _BAD_SEMICOLON
        elif tok[0] is kind:
            index += 1
            continue
        elif kind is not _COMMA and tok[0] in _ARGUMENT_KINDS:
            category = _BAD_PARAMETER  # a wrong argument
        else:  # a missing comma, or SEMICOLON, KEYWORD or END too early
            category = _BAD_QUANTITY
        if tok[0] is not _END and category is not _BAD_SEMICOLON:
            return _new(Diagnostic, (category, tok[2], tok[1])), index
        consumed = tokens[first:index]
        span = _statement_span(consumed[0], consumed[-1])
        return _new(Diagnostic, (category, span, _statement_text(consumed, source, lines))), index


def parse(tokens: tuple[Token, ...], source: str = "") -> ParseOutcome:
    """Parse a lexed token stream. Takes lex()'s tokens as they are: a tuple
    that ends in END, where every KEYWORD token carries its keyword and every
    NUMBER token its value. Callers gate on lexical diagnostics themselves
    (check() does). The optional source lets missing-terminator diagnostics
    quote the statement verbatim."""
    stream = TokenStream()
    # Token fields are read by index (kind, text, span, keyword, value):
    # Python 3.11 specialises attribute loads on slots, not on a named tuple.
    kinds = [tok[0] for tok in tokens]
    lines: list[str] = []
    statements: list[Statement] = []
    diagnostics: list[Diagnostic] = []
    while (kind := kinds[first := stream.pos]) is not _END:
        tok = tokens[first]
        if kind is not _KEYWORD:
            diagnostics.append(_new(Diagnostic, (_BAD_COMMAND, tok[2], tok[1])))
            stream.skip(_recover(kinds, first) - first)
            continue
        # Match, else diagnose: a statement whose tokens are all of the
        # expected kinds is taken in one step.
        keyword = tok[3]
        end = first + len(expected := STATEMENT_KINDS[keyword])
        if kinds[first + 1 : end + 1] == expected:
            # One argument per parameter token, as its kind says: a word is an
            # object name. One parameter, the common form, is taken without a loop.
            if end == first + 2:
                t = tokens[first + 1]
                args = (t[1] if t[0] is _IDENTIFIER else _new(Number, (t[4], t[1])),)
            else:
                args = tuple([t[1] if t[0] is _IDENTIFIER else _new(Number, (t[4], t[1]))
                              for t in tokens[first + 1 : end : 2]])
            statements.append(statement := _object_new(Statement))
            _set_keyword(statement, keyword)
            _set_args(statement, args)
            _set_span(statement, _statement_span(tok, tokens[end]))
            stream.skip(end + 1 - first)
            continue
        diagnostic, index = _statement_diagnostic(tokens, first, expected, source, lines)
        diagnostics.append(diagnostic)
        stream.skip(_recover(kinds, index) - first)
    return ParseOutcome(Program(tuple(statements), source), tuple(diagnostics))


def validate(program: Program) -> list[Diagnostic]:
    """Semantic rule: motion and camera magnitudes must be strictly positive.
    goto coordinates are exempt. Violations reuse the Parameter category."""
    out: list[Diagnostic] = []
    for s in program.statements:
        if s.keyword in POSITIVE_MAGNITUDE_KEYWORDS:
            magnitude = s.args[0]
            assert isinstance(magnitude, Number)
            if not magnitude.value > 0:
                out.append(_new(Diagnostic, (_BAD_PARAMETER, s.span, magnitude.raw)))
    return out


@acyclic
def check(source: str) -> ParseOutcome:
    """The single verification entry point: lex, parse, and validate, with
    all diagnostics merged in source order. Zero diagnostics means the
    returned program is verified and safe for code generation and execution;
    check then sets its verified mark, which nothing else sets, so
    downstream code trusts it instead of verifying again."""
    lexed = lex(source)
    parsed = parse(lexed.tokens, source)
    semantic = validate(parsed.program)
    if not (lexed.diagnostics or parsed.diagnostics or semantic):
        _set_verified(parsed.program, True)
        return parsed
    merged = sorted(
        [*lexed.diagnostics, *parsed.diagnostics, *semantic], key=source_order
    )
    return ParseOutcome(parsed.program, tuple(merged))
