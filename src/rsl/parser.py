"""LL(1) parse of the token stream into a Program, plus semantic validation.

Statement dispatch inspects exactly one lookahead token and the stream only
moves forward; there is no backtracking. Match, else diagnose: at a keyword,
the kinds of the tokens after it are compared with its STATEMENT_KINDS
entry, parameters with commas between them and then a semicolon, and a
statement that matches is taken in one step. syntax.trusted_statement builds
it without Statement's schema re-check. Otherwise the tokens are checked one
at a time in a fixed order, so exactly one diagnostic fires per statement:
parameter kinds in position order, then arity, then the terminator. A token
that is not a keyword where a statement starts is a Command diagnostic.
After a diagnostic the parser skips to the next semicolon or keyword and
continues, so a single pass reports every broken statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Category, Diagnostic, source_order
from .lexer import lex
from .syntax import (
    DUMMY_SPAN,
    Number,
    Program,
    SourceSpan,
    STATEMENT_KINDS,
    POSITIVE_MAGNITUDE_KEYWORDS,
    Statement,
    Token,
    TokenKind,
    acyclic,
    trusted_statement,
)

# Enum members as module globals, as in lexer.py.
_KEYWORD, _IDENTIFIER, _NUMBER = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.NUMBER
_SEMICOLON, _COMMA, _END = TokenKind.SEMICOLON, TokenKind.COMMA, TokenKind.END
_BAD_COMMAND, _BAD_PARAMETER = Category.COMMAND, Category.PARAMETER
_BAD_QUANTITY, _BAD_SEMICOLON = Category.QUANTITY, Category.SEMICOLON
_new = tuple.__new__

# Tuples, whose membership test compares identities, not Enum.__hash__ values.
_SYNC_KINDS = (_SEMICOLON, _KEYWORD, _END)
_ARGUMENT_KINDS = (_NUMBER, _IDENTIFIER, _COMMA)


@dataclass(frozen=True)
class ParseOutcome:
    """The (possibly partial) program and every diagnostic found. The program
    holds only statements that parsed cleanly, in source order; it is fully
    verified exactly when diagnostics is empty."""

    program: Program
    diagnostics: tuple[Diagnostic, ...]


class TokenStream:
    """Forward-only cursor over a lexed token list (END-terminated)."""

    def __init__(self, tokens) -> None:
        toks = list(tokens)
        if not toks or toks[-1].kind is not _END:
            toks.append(Token(_END, "", DUMMY_SPAN))
        self._tokens = toks
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not _END:
            self._pos += 1
        return tok

    def skip(self, count: int) -> None:
        """Move past count tokens that are known to come before END."""
        self._pos += count


def _statement_text(consumed: list[Token], source: str, lines: list[str]) -> str:
    """Source text of a statement, for missing-terminator diagnostics.

    Prefers the exact slice of the source lines; falls back to re-joining
    token texts when the statement spans lines or no source is available.
    lines holds the source split once per parse, on first use here: a split
    per diagnostic would make broken input quadratic.
    """
    if not lines:  # lines as the lexer counts them; splitlines() breaks on "\r" too
        lines += source.split("\n")
    first, last = consumed[0], consumed[-1]
    if first.span.line == last.span.line and first.span.line <= len(lines):
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
    if first.span.line == last.span.line:
        return _new(SourceSpan, (first.span.line, first.span.col_start, last.span.col_end))
    return first.span


def _recover(stream: TokenStream) -> None:
    """Skip to the next statement boundary; swallow the semicolon if that is
    what stopped us."""
    while stream.peek().kind not in _SYNC_KINDS:
        stream.advance()
    if stream.peek().kind is _SEMICOLON:
        stream.advance()


def _statement_diagnostic(
    stream: TokenStream, expected: list[TokenKind], source: str, lines: list[str]
) -> Diagnostic:
    """The one diagnostic of a statement whose tokens after the keyword are
    not all of the expected kinds, at the first token that is not. The walk
    ends at the semicolon slot, the last, at the latest. A missing semicolon,
    or a mistake found at END where there is nothing to point at, names the
    statement parsed so far."""
    first = stream.pos
    stream.advance()
    for kind in expected:
        tok = stream.peek()
        if kind is _SEMICOLON:
            # Not a semicolon, or the statement would have matched: an argument
            # too many, or KEYWORD or END, so it simply was not terminated.
            category = _BAD_QUANTITY if tok.kind in _ARGUMENT_KINDS else _BAD_SEMICOLON
        elif tok.kind is kind:
            stream.advance()
            continue
        elif kind is not _COMMA and tok.kind in _ARGUMENT_KINDS:
            category = _BAD_PARAMETER  # a wrong argument
        else:  # a missing comma, or SEMICOLON, KEYWORD or END too early
            category = _BAD_QUANTITY
        if tok.kind is not _END and category is not _BAD_SEMICOLON:
            return _new(Diagnostic, (category, tok.span, tok.text))
        consumed = stream._tokens[first : stream.pos]
        span = _statement_span(consumed[0], consumed[-1])
        return _new(Diagnostic, (category, span, _statement_text(consumed, source, lines)))


def parse(tokens, source: str = "") -> ParseOutcome:
    """Parse a lexed token stream. Expects tokens from lex(); callers gate on
    lexical diagnostics themselves (check() does). The optional source lets
    missing-terminator diagnostics quote the statement verbatim."""
    stream = TokenStream(tokens)
    tokens = stream._tokens
    kinds = [tok.kind for tok in tokens]
    lines: list[str] = []
    statements: list[Statement] = []
    diagnostics: list[Diagnostic] = []
    while (tok := tokens[first := stream._pos]).kind is not _END:
        if tok.kind is not _KEYWORD:
            diagnostics.append(_new(Diagnostic, (_BAD_COMMAND, tok.span, tok.text)))
            _recover(stream)
            continue
        # Match, else diagnose: a statement whose tokens are all of the
        # expected kinds is taken in one step.
        keyword = tok.keyword or tok.text
        end = first + len(expected := STATEMENT_KINDS[keyword])
        if kinds[first + 1 : end + 1] == expected:
            args = ()
            for t in tokens[first + 1 : end : 2]:
                value = 0.0 if t.value is None else t.value
                args += (_new(Number, (value, t.text)) if t.kind is _NUMBER else t.text,)
            statements.append(trusted_statement(keyword, args, _statement_span(tok, tokens[end])))
            stream.skip(end + 1 - first)
            continue
        diagnostics.append(_statement_diagnostic(stream, expected, source, lines))
        _recover(stream)
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
        object.__setattr__(parsed.program, "verified", True)
        return parsed
    merged = sorted(
        [*lexed.diagnostics, *parsed.diagnostics, *semantic], key=source_order
    )
    return ParseOutcome(parsed.program, tuple(merged))
