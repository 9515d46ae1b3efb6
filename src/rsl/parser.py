"""LL(1) parse of the token stream into a Program, plus semantic validation.

Statement dispatch inspects exactly one lookahead token and the stream only
moves forward; there is no backtracking. Within a statement the checks run in
a fixed order so at most one diagnostic fires per statement: command keyword,
then parameter kinds in position order, then arity, then the terminator.
After a diagnostic the parser skips to the next semicolon or keyword and
continues, so a single pass reports every broken statement.

A parsed statement has matched its STATEMENT_SCHEMAS entry token by token, so
syntax.trusted_statement builds it without Statement's schema re-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Category, Diagnostic, source_order
from .lexer import lex
from .syntax import (
    Number,
    Program,
    SourceSpan,
    STATEMENT_SCHEMAS,
    POSITIVE_MAGNITUDE_KEYWORDS,
    Statement,
    Token,
    TokenKind,
    trusted_statement,
)

# Enum members as module globals, as in lexer.py.
_KEYWORD, _IDENTIFIER, _NUMBER = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.NUMBER
_SEMICOLON, _COMMA, _END = TokenKind.SEMICOLON, TokenKind.COMMA, TokenKind.END
_BAD_COMMAND, _BAD_PARAMETER = Category.COMMAND, Category.PARAMETER
_BAD_QUANTITY, _BAD_SEMICOLON = Category.QUANTITY, Category.SEMICOLON

# Tuples, whose membership test compares identities, not Enum.__hash__ values.
_SYNC_KINDS = (_SEMICOLON, _KEYWORD, _END)
_ARGUMENT_KINDS = (_NUMBER, _IDENTIFIER, _COMMA)
# Per keyword, the token kind of each parameter in position order.
_TOKEN_KIND = {"number": _NUMBER, "object": _IDENTIFIER}
_PARAM_KINDS = {kw: tuple(map(_TOKEN_KIND.get, schema)) for kw, schema in STATEMENT_SCHEMAS.items()}


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
            toks.append(Token(_END, "", SourceSpan(1, 1, 1)))
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


def _statement_text(consumed: list[Token], lines: list[str]) -> str:
    """Source text of a statement, for missing-terminator diagnostics.

    Prefers the exact slice of the source lines; falls back to re-joining
    token texts when the statement spans lines or no source is available.
    """
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
        return tuple.__new__(SourceSpan, (first.span.line, first.span.col_start, last.span.col_end))
    return first.span


def _recover(stream: TokenStream) -> None:
    """Skip to the next statement boundary; swallow the semicolon if that is
    what stopped us."""
    while stream.peek().kind not in _SYNC_KINDS:
        stream.advance()
    if stream.peek().kind is _SEMICOLON:
        stream.advance()


def _diag_at(
    category: Category, tok: Token, stream: TokenStream, first: int, lines: list[str]
) -> Diagnostic:
    """A diagnostic at tok. A missing semicolon, or one found at END where
    there is nothing to point at, names the statement parsed so far."""
    if tok.kind is not _END and category is not _BAD_SEMICOLON:
        return Diagnostic(category, tok.span, tok.text)
    consumed = stream._tokens[first : stream.pos]
    span = _statement_span(consumed[0], consumed[-1])
    return Diagnostic(category, span, _statement_text(consumed, lines))


def _parse_statement(
    stream: TokenStream, lines: list[str]
) -> tuple[Statement | None, Diagnostic | None]:
    first = stream.pos
    kw_tok = stream.advance()
    keyword = kw_tok.keyword or kw_tok.text
    args: list[Number | str] = []

    for kind in _PARAM_KINDS[keyword]:
        if args:  # a comma comes before each parameter after the first
            sep = stream.peek()
            if sep.kind is not _COMMA:
                # Parameter list loses its shape here: wrong count/structure.
                return None, _diag_at(_BAD_QUANTITY, sep, stream, first, lines)
            stream.advance()
        tok = stream.peek()
        if tok.kind is kind:
            stream.advance()
            if kind is _NUMBER:
                value = tok.value if tok.value is not None else 0.0
                args.append(tuple.__new__(Number, (value, tok.text)))
            else:
                args.append(tok.text)
        elif tok.kind in _ARGUMENT_KINDS:
            return None, _diag_at(_BAD_PARAMETER, tok, stream, first, lines)
        else:
            # SEMICOLON, KEYWORD, or END before the schema was satisfied.
            return None, _diag_at(_BAD_QUANTITY, tok, stream, first, lines)

    terminator = stream.peek()
    if terminator.kind is _SEMICOLON:
        stream.advance()
        span = _statement_span(kw_tok, terminator)
        return trusted_statement(keyword, tuple(args), span), None
    if terminator.kind in _ARGUMENT_KINDS:
        return None, _diag_at(_BAD_QUANTITY, terminator, stream, first, lines)
    # KEYWORD or END: the statement simply was not terminated.
    return None, _diag_at(_BAD_SEMICOLON, terminator, stream, first, lines)


def parse(tokens, source: str = "") -> ParseOutcome:
    """Parse a lexed token stream. Expects tokens from lex(); callers gate on
    lexical diagnostics themselves (check() does). The optional source lets
    missing-terminator diagnostics quote the statement verbatim."""
    stream = TokenStream(tokens)
    # Split once per parse; a split per diagnostic makes broken input quadratic.
    lines = source.splitlines()
    statements: list[Statement] = []
    diagnostics: list[Diagnostic] = []
    while (tok := stream.peek()).kind is not _END:
        if tok.kind is not _KEYWORD:
            diagnostics.append(Diagnostic(_BAD_COMMAND, tok.span, tok.text))
            _recover(stream)
            continue
        statement, diag = _parse_statement(stream, lines)
        if diag is not None:
            diagnostics.append(diag)
            _recover(stream)
        else:
            statements.append(statement)  # type: ignore[arg-type]
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
                out.append(Diagnostic(_BAD_PARAMETER, s.span, magnitude.raw))
    return out


def check(source: str) -> ParseOutcome:
    """The single verification entry point: lex, parse, and validate, with
    all diagnostics merged in source order. Zero diagnostics means the
    returned program is verified and safe for code generation and execution;
    check then sets its verified mark, which nothing else sets, so
    downstream code trusts it instead of verifying again."""
    lexed = lex(source)
    parsed = parse(lexed.tokens, source)
    semantic = validate(parsed.program)
    merged = sorted(
        [*lexed.diagnostics, *parsed.diagnostics, *semantic], key=source_order
    )
    if not merged:
        object.__setattr__(parsed.program, "verified", True)
    return ParseOutcome(parsed.program, tuple(merged))
