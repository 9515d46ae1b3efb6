"""LL(1) parse of the token stream into a Program, plus semantic validation.

Statement dispatch inspects exactly one lookahead token and the stream only
moves forward; there is no backtracking. Within a statement the checks run in
a fixed order so at most one diagnostic fires per statement: command keyword,
then parameter kinds in position order, then arity, then the terminator.
After a diagnostic the parser skips to the next semicolon or keyword and
continues, so a single pass reports every broken statement.
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
)

_SYNC_KINDS = frozenset({TokenKind.SEMICOLON, TokenKind.KEYWORD, TokenKind.END})
_PARAM_KINDS = {"number": TokenKind.NUMBER, "object": TokenKind.IDENTIFIER}


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
        if not toks or toks[-1].kind is not TokenKind.END:
            toks.append(Token(TokenKind.END, "", SourceSpan(1, 1, 1)))
        self._tokens = toks
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.END:
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
        if parts and tok.kind not in (TokenKind.COMMA, TokenKind.SEMICOLON):
            parts.append(" ")
        parts.append(tok.text)
    return "".join(parts)


def _statement_span(consumed: list[Token]) -> SourceSpan:
    first, last = consumed[0], consumed[-1]
    if first.span.line == last.span.line:
        return SourceSpan(first.span.line, first.span.col_start, last.span.col_end)
    return first.span


def _recover(stream: TokenStream) -> None:
    """Skip to the next statement boundary; swallow the semicolon if that is
    what stopped us."""
    while stream.peek().kind not in _SYNC_KINDS:
        stream.advance()
    if stream.peek().kind is TokenKind.SEMICOLON:
        stream.advance()


def _diag_at(category: Category, tok: Token, consumed: list[Token], lines: list[str]) -> Diagnostic:
    if tok.kind is TokenKind.END:
        # Nothing to point at; name the statement parsed so far instead.
        return Diagnostic(
            category, _statement_span(consumed), _statement_text(consumed, lines)
        )
    return Diagnostic(category, tok.span, tok.text)


def _parse_statement(
    stream: TokenStream, lines: list[str]
) -> tuple[Statement | None, Diagnostic | None]:
    kw_tok = stream.advance()
    consumed = [kw_tok]
    schema = STATEMENT_SCHEMAS[kw_tok.keyword or kw_tok.text]
    args: list[Number | str] = []

    for index, kind in enumerate(schema):
        if index > 0:
            sep = stream.peek()
            if sep.kind is TokenKind.COMMA:
                consumed.append(stream.advance())
            else:
                # Parameter list loses its shape here: wrong count/structure.
                return None, _diag_at(Category.QUANTITY, sep, consumed, lines)
        tok = stream.peek()
        if tok.kind is _PARAM_KINDS[kind]:
            consumed.append(stream.advance())
            if kind == "number":
                args.append(Number(tok.value if tok.value is not None else 0.0, tok.text))
            else:
                args.append(tok.text)
        elif tok.kind in (TokenKind.NUMBER, TokenKind.IDENTIFIER, TokenKind.COMMA):
            return None, _diag_at(Category.PARAMETER, tok, consumed, lines)
        else:
            # SEMICOLON, KEYWORD, or END before the schema was satisfied.
            return None, _diag_at(Category.QUANTITY, tok, consumed, lines)

    terminator = stream.peek()
    if terminator.kind is TokenKind.SEMICOLON:
        consumed.append(stream.advance())
        return (
            Statement(kw_tok.keyword or kw_tok.text, tuple(args), _statement_span(consumed)),
            None,
        )
    if terminator.kind in (TokenKind.NUMBER, TokenKind.IDENTIFIER, TokenKind.COMMA):
        return None, _diag_at(Category.QUANTITY, terminator, consumed, lines)
    # KEYWORD or END: the statement simply was not terminated.
    return None, Diagnostic(
        Category.SEMICOLON, _statement_span(consumed), _statement_text(consumed, lines)
    )


def parse(tokens, source: str = "") -> ParseOutcome:
    """Parse a lexed token stream. Expects tokens from lex(); callers gate on
    lexical diagnostics themselves (check() does). The optional source lets
    missing-terminator diagnostics quote the statement verbatim."""
    stream = TokenStream(tokens)
    # Split once per parse; a split per diagnostic makes broken input quadratic.
    lines = source.splitlines()
    statements: list[Statement] = []
    diagnostics: list[Diagnostic] = []
    while stream.peek().kind is not TokenKind.END:
        if stream.peek().kind is not TokenKind.KEYWORD:
            tok = stream.peek()
            diagnostics.append(Diagnostic(Category.COMMAND, tok.span, tok.text))
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
                out.append(Diagnostic(Category.PARAMETER, s.span, magnitude.raw))
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
