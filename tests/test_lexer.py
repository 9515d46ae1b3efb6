import math
import random

import pytest

from rsl import Category, RobotState, TokenKind, check, default_world, lex, run
from rsl.syntax import KEYWORDS, STATEMENT_SCHEMAS, Number, Statement, render_statement

import rsl.lexer as lexer_mod
from support import ReferenceScanner, random_junk_source, random_spaced_source


def kinds(outcome):
    return [t.kind for t in outcome.tokens]


def categories(outcome):
    return [d.category for d in outcome.diagnostics]


def test_clean_statement_tokens():
    out = lex("approach table;")
    assert not out.diagnostics
    assert kinds(out) == [
        TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.SEMICOLON, TokenKind.END,
    ]
    keyword, ident, semi, _ = out.tokens
    assert (keyword.text, keyword.keyword) == ("approach", "approach")
    assert (keyword.span.line, keyword.span.col_start, keyword.span.col_end) == (1, 1, 8)
    assert (ident.span.col_start, ident.span.col_end) == (10, 14)
    assert semi.span.col_start == 15


def test_empty_input():
    out = lex("")
    assert kinds(out) == [TokenKind.END]
    assert not out.diagnostics


def test_uppercase_keyword_diagnosed_and_recovered():
    out = lex("APPROACH table;")
    assert categories(out) == [Category.KEYWORD]
    assert out.diagnostics[0].message == "Keywords should be lowercase."
    assert out.diagnostics[0].token_text == "APPROACH"
    # The intended keyword survives so the parser can continue.
    assert out.tokens[0].kind is TokenKind.KEYWORD
    assert out.tokens[0].keyword == "approach"
    assert out.tokens[0].text == "APPROACH"


def test_mixed_case_keyword_is_not_an_identifier():
    for word in ("Forward", "GoTo", "PERCEIVE", "gRaSp"):
        out = lex(word + " 1;")
        assert Category.KEYWORD in categories(out), word
        assert out.tokens[0].kind is TokenKind.KEYWORD


def test_every_keyword_case_variant_yields_one_keyword_diagnostic():
    for keyword in sorted(KEYWORDS):
        out = lex(keyword.upper())
        assert categories(out) == [Category.KEYWORD], keyword
        assert all(t.kind is not TokenKind.IDENTIFIER for t in out.tokens)


def test_illegal_number():
    out = lex("forward 123.23.45;")
    assert categories(out) == [Category.NUMBER]
    assert out.diagnostics[0].message == "The number is illegal."
    assert out.diagnostics[0].token_text == "123.23.45"
    # One diagnostic, one recovered token; not two numbers.
    assert kinds(out) == [
        TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.SEMICOLON, TokenKind.END,
    ]


def test_trailing_dot_number_is_illegal():
    out = lex("forward 1.;")
    assert categories(out) == [Category.NUMBER]
    assert out.diagnostics[0].token_text == "1."


def test_non_finite_literal_is_illegal_number():
    huge = "9" * 400
    out = lex(f"forward {huge};")
    assert categories(out) == [Category.NUMBER]
    assert out.diagnostics[0].message == "The number is illegal."
    assert out.diagnostics[0].token_text == huge
    # The recovered token still has a finite value, so one mistake stays one
    # diagnostic (no positivity error on top).
    assert math.isfinite(out.tokens[1].value)
    outcome = check(f"forward {huge};")
    assert [d.category for d in outcome.diagnostics] == [Category.NUMBER]
    assert not outcome.program.verified
    assert [d.category for d in check(f"goto -{huge}, 1;").diagnostics] == [Category.NUMBER]


def test_largest_finite_literal_verifies_and_runs_finite():
    literal = str(int(1.7e308))
    outcome = check(f"forward {literal};")
    assert not outcome.diagnostics
    final = run(outcome.program, default_world())
    assert isinstance(final, RobotState)
    assert math.isfinite(final.x) and math.isfinite(final.y)


def test_digit_led_identifier():
    out = lex("approach 3apple;")
    assert categories(out) == [Category.IDENTIFIER]
    assert out.diagnostics[0].message == "The identifier is illegal."
    assert out.diagnostics[0].token_text == "3apple"
    assert out.tokens[1].kind is TokenKind.IDENTIFIER


def test_illegal_character():
    out = lex("$forward 1;")
    assert categories(out) == [Category.CHARACTER]
    assert out.diagnostics[0].message == "The $ is an illegal character."
    assert out.diagnostics[0].token_text == "$"
    # The rest of the statement lexes normally.
    assert kinds(out) == [
        TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.SEMICOLON, TokenKind.END,
    ]


def test_broken_comment():
    out = lex("/ This is a comment")
    assert categories(out) == [Category.COMMENT]
    assert out.diagnostics[0].message == "This comment has errors."
    # Presumed comment swallows the line: no stray identifier tokens.
    assert kinds(out) == [TokenKind.END]


def test_line_comment_produces_no_tokens():
    out = lex("// anything at all $ 123.23.45\nforward 1;")
    assert not out.diagnostics
    assert kinds(out) == [
        TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.SEMICOLON, TokenKind.END,
    ]
    assert out.tokens[0].span.line == 2


def test_block_comment_spans_lines():
    out = lex("/* one\ntwo */ perceive;")
    assert not out.diagnostics
    assert out.tokens[0].keyword == "perceive"
    assert out.tokens[0].span.line == 2


def test_unterminated_block_comment():
    out = lex("/* never closed\nforward 1;")
    assert categories(out) == [Category.COMMENT]
    assert kinds(out) == [TokenKind.END]
    # The input it swallows is a gap, whose newline moves END to line 2.
    assert out.tokens[-1].span == (2, 11, 11)


@pytest.mark.parametrize("source, end", [
    ("forward 1;", (1, 11, 11)),
    ("forward 1;\n", (2, 1, 1)),
    ("forward 1; // done", (1, 19, 19)),
    ("perceive;\nFORWARD 2", (2, 10, 10)),
    ("", (1, 1, 1)),
    ("$", (1, 2, 2)),
])
def test_end_token_follows_the_last_lexeme_or_gap(source, end):
    assert lex(source).tokens[-1] == (TokenKind.END, "", end, None, None)


def test_negative_number_is_lexed():
    out = lex("goto -2.0, 0;")
    assert not out.diagnostics
    number = out.tokens[1]
    assert number.kind is TokenKind.NUMBER
    assert number.text == "-2.0"
    assert number.value == -2.0


def test_lone_minus_is_character_error():
    out = lex("- 1;")
    assert categories(out) == [Category.CHARACTER]
    assert out.diagnostics[0].token_text == "-"


def test_scientific_notation_rejected():
    out = lex("forward 1e3;")
    assert Category.IDENTIFIER in categories(out)


def test_multiline_spans_are_tracked():
    out = lex("forward 1;\napproach table;")
    lines = [t.span.line for t in out.tokens if t.kind is not TokenKind.END]
    assert lines == [1, 1, 1, 2, 2, 2]


def test_diagnostics_ordered_by_span():
    out = lex("$ @\n# APPROACH")
    keys = [(d.span.line, d.span.col_start) for d in out.diagnostics]
    assert keys == sorted(keys)


def test_exhaustive_recovery_on_junk():
    from rsl.diagnostics import LEXICAL_CATEGORIES

    rng = random.Random(1234)
    for _ in range(400):
        source = random_junk_source(rng)
        out = lex(source)
        assert out.tokens[-1].kind is TokenKind.END
        for d in out.diagnostics:
            # The lexer owns exactly the five lexical categories.
            assert d.category in LEXICAL_CATEGORIES
            assert d.message
        keys = [(d.span.line, d.span.col_start) for d in out.diagnostics]
        assert keys == sorted(keys)


def test_token_spans_do_not_overlap():
    out = lex("forward 1.5; goto 2, 3; grasp cup;")
    spans = [t.span for t in out.tokens if t.kind is not TokenKind.END]
    for left, right in zip(spans, spans[1:]):
        assert (left.line, left.col_end) < (right.line, right.col_start) or (
            left.line < right.line
        )


# Inputs where a regular-expression scanner most easily drifts from the
# character-at-a-time one.
LEXER_EDGE_CASES = (
    "/*/ forward 1;",  # the search for */ starts after the /*
    "/*/ x */ forward 1;",
    "/**/forward 1;",
    "/* one\ntwo\n */ forward 1;\nperceive;",
    "forward 1;\n  /* never closed\nforward 2;\n  tail",
    "/* never closed",
    "forward 1; / rest of line\nperceive;",
    "/",
    "//\n/",
    "- 1;", "-x;", "-", "--1;", "-.5;", "goto -2, -3.5;",
    "forward\r 1;\r\nperceive;\r", "\r\r;",
    "forward \u00e91;", "\u00fcn\u00efcode;", "forward \u0661\u0662;", "\uff41;", "forward \u00b2;",
    "9" * 400, "forward " + "9" * 400 + ";", "goto -" + "9" * 400 + ", 1;",
    "9" * 400 + ".5", "9" * 400 + ".5.5", "1." * 50, "1.2.3", "12..3", "-1.", "0.5.", "3apple.5",
    "1_000", "_9x", "FORWARD 1;", "Forward_ 1;",
)


def test_lexer_matches_reference_scanner():
    rng = random.Random(20240531)
    sources = [*LEXER_EDGE_CASES, *(random_junk_source(rng) for _ in range(200_000))]
    mismatches = []
    for source in sources:
        out = lex(source)
        if (out.tokens, out.diagnostics) != ReferenceScanner(source).scan():
            mismatches.append(source)
    assert mismatches == []


# Inputs where a whole-statement match most easily drifts from per-token
# matching: each must give the tokens and diagnostics the old scanner gives.
STATEMENT_EDGE_CASES = (
    "grasp Forward;", "approach goto;", "approach PERCEIVE ;", "grasp grasp;",
    "forward 2.5.3;", "forward 3apple;", "goto 1, 2.5.3;", "goto 3apple, 1;", "forward 1.;",
    "forward " + "9" * 400 + ";", "goto -" + "9" * 400 + ", " + "9" * 400 + ";",
    "goto 1 ,2 ;", "goto 1,2;", "goto\t-1\t,\t-2\t;", "perceive;;", "perceive ;", "forward1;",
    "forward -1;", "forward-1;", "goto 1, 2, 3;", "goto 1 2;", "grasp cup x;",
    "forward 1;// note", "forward 1;/* x */perceive;", "perceive;/*", "grasp cup;/",
    "forwardx 1;", "perceivex;", "graspcup;", "gotox 1, 2;", "forward 1;perceive;",
    "forward 1\n;", "forward\n1;", "forward /* x */ 1;", "forward 1 // x\n;", "forward 1\r;",
    "Forward 1;", "forward 1$;", "forward \u00e91;", "grasp caf\u00e9;", "forward 1\u0661;",
    # A statement match takes no object that is a keyword in any case and no
    # number of more than 308 integer digits: those go to the per-token path.
    "approach Forward;", "grasp goto;", "approach GOTO ;",
    "forward " + "9" * 308 + ";", "forward " + "9" * 309 + ";", "goto 1, -" + "1" * 400 + ";",
    # A statement without its semicolon is one match only where the next
    # character cannot continue its last lexeme.
    "forward 1", "forward 1 ", "forward 1\nperceive;", "perceive", "perceivex", "perceive.",
    "grasp cup", "grasp cup.", "goto 1, 2", "goto 1, 2 3;", "forward 1 2;", "forward 1.",
    "forward 1x", "forward 1_", "forward 1-2;", "forward 1/", "forward 1//c", "forward 1/*c",
    "approach forward",
)


@pytest.mark.parametrize("gap", [" ", "\t"], ids=["blanks", "tabs"])
@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
def test_clean_statement_is_one_match(keyword, gap):
    args = tuple(Number(-2.5, "-2.5") if p == "number" else "cup" for p in STATEMENT_SCHEMAS[keyword])
    source = render_statement(Statement(keyword, args)).replace(" ", gap)
    statement, end = lexer_mod._TOKEN_RE.finditer(source)
    assert (statement.end(), end.lastgroup) == (len(source), "end")
    assert len(lexer_mod._LEXEMES[statement.lastgroup]) == len(lex(source).tokens) - 1


@pytest.mark.parametrize("gap", [" ", "\t"], ids=["blanks", "tabs"])
@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
def test_unterminated_statement_is_one_match(keyword, gap):
    args = tuple(Number(-2.5, "-2.5") if p == "number" else "cup" for p in STATEMENT_SCHEMAS[keyword])
    terminated = render_statement(Statement(keyword, args)).replace(" ", gap)
    source = terminated[:-1]
    statement, end = lexer_mod._TOKEN_RE.finditer(source)
    assert (statement.end(), end.lastgroup) == (len(source), "end")
    keyword_group, _, terminated_match = lexer_mod._STATEMENTS[statement.lastindex]
    assert (statement.start(keyword_group), terminated_match) == (0, False)
    assert lex(source).tokens[:-1] == lex(terminated).tokens[:-2]


def test_statement_alternatives_match_reference_scanner():
    rng = random.Random(20261018)
    # Lexers that let a statement number end in a dot, or skip the keyword
    # check on an object word, first differ within 170 programs on each of
    # 30 seeds tried.
    sources = [*STATEMENT_EDGE_CASES, *(random_spaced_source(rng) for _ in range(2_000))]
    whole = 0
    for source in sources:
        out = lex(source)
        assert (out.tokens, out.diagnostics) == ReferenceScanner(source).scan(), source
        whole += any(
            m.lastindex in lexer_mod._STATEMENTS for m in lexer_mod._TOKEN_RE.finditer(source)
        )
    # The inputs mostly take the whole-statement alternatives under test.
    assert whole > 0.8 * len(sources)
