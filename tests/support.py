"""Shared test helpers: seeded program fuzzers, the one-mistake mutant
maker of the parser and repair-loop properties, an independent brute-force
kinematics oracle, the character-at-a-time scanner the lexer replaced, the
parser as it was before it built statements and spans unchecked, the
per-record json.dumps trace export that trace_to_jsonl replaced, and the
accuracy matcher that parsed its action pattern on every trace record.

The oracle deliberately re-implements execution from scratch (complex-number
arithmetic over plain tuples) so simulator tests compare two genuinely
different derivations of the same semantics. The old scanner, the old parser,
the old trace export and the old matcher are kept as the references for the
differential tests of rsl.lexer, rsl.parser, rsl.sim.trace_to_jsonl and the
accuracy predicates of rsl.harness.
"""

from __future__ import annotations

import cmath
import fnmatch
import json
import math
import random
import re
import string
import sys

from rsl import (
    Category, Diagnostic, Number, ParseOutcome, Program, RobotState, Statement, lex,
    render_statement,
)
from rsl.syntax import ANY_CASE_KEYWORD, KEYWORDS, STATEMENT_SCHEMAS, SourceSpan, Token, TokenKind

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


# Token separators: whitespace, newlines and comments, none of them empty.
_GAPS = (" ", "  ", "\t", "\n", "\r\n", " // note\n", "/* x */", " /* a\nb */ ", "\n\n")


def random_gapped_source(rng: random.Random) -> str:
    """A random program that verifies, rendered with a random gap before
    every token and at the end. The gap next to a comma or semicolon may be
    empty; between two words or numbers it never is."""
    parts = []
    previous = ";"
    for statement in random_program(rng).statements:
        tokens = [statement.keyword]
        for index, arg in enumerate(statement.args):
            if index:
                tokens.append(",")
            tokens.append(arg.raw if isinstance(arg, Number) else arg)
        tokens.append(";")
        for token in tokens:
            if (token in ",;" or previous in ",;") and rng.random() < 0.4:
                parts.append(token)
            else:
                parts += [rng.choice(_GAPS), token]
            previous = token
    parts.append(rng.choice(("", *_GAPS)))
    return "".join(parts)


# Runs of spaces and tabs, the only gaps inside a one-line statement match.
_SPACES = ("", " ", " ", "  ", "\t", " \t ")
# Lexemes that look like a parameter but must not be lexed as a clean one.
_ODD_NUMBERS = ("2.5.3", "3apple", "9" * 400, "-" + "9" * 400, "1.", "-0", "007", "1e5")
_ODD_OBJECTS = ("Forward", "goto", "GRASP", "perceive", "x1", "_", "Approach_")


def random_spaced_source(rng: random.Random) -> str:
    """A random program with one statement per line and a random run of
    spaces and tabs around every token, mostly well-formed statements. Now
    and then a parameter is odd (a malformed or huge number, an object word
    that is a keyword in some case), a gap between two words is empty, or a
    line ends in a comment or runs on into the next statement."""
    lines = []
    for statement in random_program(rng, max_len=8).statements:
        tokens = [statement.keyword]
        for index, arg in enumerate(statement.args):
            if index:
                tokens.append(",")
            if rng.random() < 0.1:
                arg = rng.choice(_ODD_NUMBERS if isinstance(arg, Number) else _ODD_OBJECTS)
            tokens.append(arg.raw if isinstance(arg, Number) else arg)
        line = rng.choice(_SPACES)
        for index, token in enumerate(tokens + [";"]):
            gap = rng.choice(_SPACES)
            if index == 1 and not gap and rng.random() < 0.8:
                gap = " "  # keep keyword and first parameter apart, mostly
            line += (gap if index else "") + token
        line += rng.choice(("",) * 8 + ("// note", "/* x */", "/*", ";", "perceive;"))
        lines.append(line + rng.choice(_SPACES))
    return "\n".join(lines)


def single_char_mutant(rng: random.Random, source: str) -> str:
    """source with one character deleted, replaced or inserted."""
    alphabet = "aZ_09.-;,/* \n\t$\u00e9"
    at = rng.randrange(len(source) + 1)
    edit = rng.randrange(3) if at < len(source) else 2
    if edit == 0:
        return source[:at] + source[at + 1 :]
    if edit == 1:
        return source[:at] + rng.choice(alphabet) + source[at + 1 :]
    return source[:at] + rng.choice(alphabet) + source[at:]


def inject_mistake(category, statement, last, rng):
    """The rendered statement with one mistake of category at a token
    boundary, or None when the statement has no place for one."""
    text = render_statement(statement)
    keyword, args = statement.keyword, [
        a.raw if isinstance(a, Number) else a for a in statement.args
    ]
    schema = STATEMENT_SCHEMAS[keyword]

    def line(kw, arguments):
        return f"{kw} {', '.join(arguments)};" if arguments else f"{kw};"

    if category is Category.KEYWORD:
        variant = "".join(c.upper() if rng.random() < 0.5 else c for c in keyword)
        return line(variant if variant != keyword else keyword.upper(), args)
    if category is Category.IDENTIFIER:
        slots = [i for i, kind in enumerate(schema) if kind == "object"]
        if not slots:
            return None
        args[slots[0]] = f"{rng.randrange(10)}{args[slots[0]]}"
        return line(keyword, args)
    if category is Category.NUMBER:
        slots = [i for i, kind in enumerate(schema) if kind == "number"]
        if not slots:
            return None
        slot = rng.choice(slots)
        args[slot] = rng.choice([args[slot] + ".", args[slot] + ".0.1", "9" * 400])
        return line(keyword, args)
    if category is Category.CHARACTER:
        boundaries = sorted(
            {t.span.col_start - 1 for t in lex(text).tokens} | {len(text)}
        )
        at = rng.choice(boundaries)
        return text[:at] + rng.choice("$@#?!%&^~`'\"(){}[]\\\u00e9") + text[at:]
    if category is Category.COMMENT:
        return text + rng.choice([" / note", "/"] + ([" /* open"] if last else []))
    if category is Category.COMMAND:
        return line(random_object_name(rng), args)
    if category is Category.PARAMETER:
        if not schema:
            return None
        slot = rng.randrange(len(schema))
        if schema[slot] == "number" and keyword != "goto" and rng.random() < 0.5:
            args[slot] = rng.choice(["0", "-" + args[slot]])  # positivity
        elif schema[slot] == "number":
            args[slot] = random_object_name(rng)
        else:
            args[slot] = random_number_raw(rng)
        return line(keyword, args)
    if category is Category.QUANTITY:
        if args and rng.random() < 0.5:
            return line(keyword, args[:-1])
        return text[:-1] + " 1;"
    assert category is Category.SEMICOLON
    return text[:-1]


# extract_rsl reads a line that no keyword leads as prose when it is the
# first or last line of an unfenced reply (test_extract_keyword_lines_only),
# so a Command mutant, or a Character one at column 1, goes only between two
# keyword-led lines.
_KEYWORD_LED = re.compile(r"\s*" + ANY_CASE_KEYWORD)


def one_mistake_program(statements, rng):
    """statements rendered one per line, with one mistake at a token boundary
    of one of them, and the mistake's category."""
    lines = [render_statement(s) for s in statements]
    while True:
        category = rng.choice(list(Category))
        index = rng.randrange(len(lines))
        broken = inject_mistake(category, statements[index], index == len(lines) - 1, rng)
        if broken is not None and (0 < index < len(lines) - 1 or _KEYWORD_LED.match(broken)):
            return "\n".join([*lines[:index], broken, *lines[index + 1:]]), category


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
# Optional sign, digits, optional single fraction. No exponents, no leading
# or trailing dot.
NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?\Z")


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


class _ReferenceStream:
    """Forward-only cursor over a lexed token list (END-terminated)."""

    def __init__(self, tokens) -> None:
        toks = list(tokens)
        if not toks or toks[-1].kind is not TokenKind.END:
            toks.append(Token(TokenKind.END, "", SourceSpan(1, 1, 1)))
        self._tokens = toks
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.END:
            self._pos += 1
        return tok


def _reference_statement_text(consumed, lines) -> str:
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


def _reference_statement_span(consumed) -> SourceSpan:
    first, last = consumed[0], consumed[-1]
    if first.span.line == last.span.line:
        return SourceSpan(first.span.line, first.span.col_start, last.span.col_end)
    return first.span


def _reference_recover(stream) -> None:
    while stream.peek().kind not in (TokenKind.SEMICOLON, TokenKind.KEYWORD, TokenKind.END):
        stream.advance()
    if stream.peek().kind is TokenKind.SEMICOLON:
        stream.advance()


def _reference_diag_at(category, tok, consumed, lines) -> Diagnostic:
    if tok.kind is TokenKind.END:
        return Diagnostic(
            category,
            _reference_statement_span(consumed),
            _reference_statement_text(consumed, lines),
        )
    return Diagnostic(category, tok.span, tok.text)


_REFERENCE_PARAM_KINDS = {"number": TokenKind.NUMBER, "object": TokenKind.IDENTIFIER}


def _reference_parse_statement(stream, lines):
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
                return None, _reference_diag_at(Category.QUANTITY, sep, consumed, lines)
        tok = stream.peek()
        if tok.kind is _REFERENCE_PARAM_KINDS[kind]:
            consumed.append(stream.advance())
            if kind == "number":
                args.append(Number(tok.value if tok.value is not None else 0.0, tok.text))
            else:
                args.append(tok.text)
        elif tok.kind in (TokenKind.NUMBER, TokenKind.IDENTIFIER, TokenKind.COMMA):
            return None, _reference_diag_at(Category.PARAMETER, tok, consumed, lines)
        else:
            return None, _reference_diag_at(Category.QUANTITY, tok, consumed, lines)
    terminator = stream.peek()
    if terminator.kind is TokenKind.SEMICOLON:
        consumed.append(stream.advance())
        keyword = kw_tok.keyword or kw_tok.text
        return Statement(keyword, tuple(args), _reference_statement_span(consumed)), None
    if terminator.kind in (TokenKind.NUMBER, TokenKind.IDENTIFIER, TokenKind.COMMA):
        return None, _reference_diag_at(Category.QUANTITY, terminator, consumed, lines)
    return None, Diagnostic(
        Category.SEMICOLON,
        _reference_statement_span(consumed),
        _reference_statement_text(consumed, lines),
    )


def reference_parse(tokens, source: str = "") -> ParseOutcome:
    """rsl.parser.parse before statements skipped their schema re-check and
    spans their validity check: every Statement and SourceSpan goes through
    its checked constructor, and each statement collects its tokens."""
    stream = _ReferenceStream(tokens)
    lines = source.split("\n")
    statements: list[Statement] = []
    diagnostics: list[Diagnostic] = []
    while stream.peek().kind is not TokenKind.END:
        if stream.peek().kind is not TokenKind.KEYWORD:
            tok = stream.peek()
            diagnostics.append(Diagnostic(Category.COMMAND, tok.span, tok.text))
            _reference_recover(stream)
            continue
        statement, diag = _reference_parse_statement(stream, lines)
        if diag is not None:
            diagnostics.append(diag)
            _reference_recover(stream)
        else:
            statements.append(statement)
    return ParseOutcome(Program(tuple(statements), source), tuple(diagnostics))


def reference_trace_to_jsonl(state: RobotState) -> str:
    """The trace export before its fixed-layout rewrite: a dict and one
    json.dumps per record."""
    lines = []
    for record in state.trace:
        lines.append(
            json.dumps(
                {
                    "statement": render_statement(record.statement),
                    "x": record.x,
                    "y": record.y,
                    "heading": record.heading,
                    "cam_pan": record.cam_pan,
                    "cam_tilt": record.cam_tilt,
                    "held": record.held,
                    "perceived": record.perceived,
                },
                sort_keys=True,
                allow_nan=False,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def reference_match_action(pattern: str, record, tol: float) -> bool:
    """The accuracy matcher before patterns were parsed once: split, glob the
    keyword and run float() on the args for every trace record."""
    parts = pattern.split()
    statement = record.statement
    if not fnmatch.fnmatchcase(statement.keyword, parts[0]):
        return False
    arg_patterns = parts[1:]
    if len(arg_patterns) != len(statement.args):
        return False
    for arg_pattern, arg in zip(arg_patterns, statement.args):
        if arg_pattern == "*":
            continue
        if isinstance(arg, Number):
            try:
                wanted = float(arg_pattern)
            except ValueError:
                return False
            if abs(arg.value - wanted) > tol:
                return False
        elif arg_pattern != arg:
            return False
    return True
