import random

from hypothesis import given, settings
from hypothesis import strategies as st

import rsl.parser as parser_mod
from rsl import Category, Number, Statement, check, lex, parse, validate
from rsl.diagnostics import source_order
from rsl.syntax import STATEMENT_SCHEMAS, SourceSpan, render_program, render_statement

from support import (
    random_gapped_source,
    random_junk_source,
    random_number_raw,
    random_object_name,
    random_program,
    random_statement,
    reference_parse,
    single_char_mutant,
)


def parse_source(source):
    return parse(lex(source).tokens, source)


def categories(outcome):
    return [d.category for d in outcome.diagnostics]


def test_command_error():
    out = parse_source("move 1.5;")
    assert categories(out) == [Category.COMMAND]
    assert out.diagnostics[0].message == "The command (keyword) is illegal."
    assert out.diagnostics[0].token_text == "move"
    assert out.program.statements == ()


def test_parameter_error():
    out = parse_source("forward table;")
    assert categories(out) == [Category.PARAMETER]
    assert out.diagnostics[0].message == "Parameter types of the command are invalid."
    assert out.diagnostics[0].token_text == "table"


def test_quantity_error_too_few():
    out = parse_source("goto 1;")
    assert categories(out) == [Category.QUANTITY]
    assert out.diagnostics[0].message == "The number of parameters is illegal."


def test_quantity_error_too_many():
    out = parse_source("forward 1 2;")
    assert categories(out) == [Category.QUANTITY]
    out = parse_source("perceive 1;")
    assert categories(out) == [Category.QUANTITY]


def test_quantity_for_extra_goto_coordinate():
    out = parse_source("goto 1, 2, 3;")
    assert categories(out) == [Category.QUANTITY]


def test_semicolon_error():
    out = parse_source("approach table")
    assert categories(out) == [Category.SEMICOLON]
    d = out.diagnostics[0]
    assert d.message == "The statement must end with a semicolon."
    assert d.token_text == "approach table"
    assert (d.span.col_start, d.span.col_end) == (1, 14)


def test_semicolon_quote_ignores_non_newline_line_breaks():
    # str.splitlines() breaks on all of these; the lexer counts "\n" only.
    for ch in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        for source in (f"forward 1;{ch}turnleft 2", f"/* a{ch}b */ turnleft 2"):
            semicolon = [
                d for d in check(source).diagnostics if d.category is Category.SEMICOLON
            ]
            assert [d.token_text for d in semicolon] == ["turnleft 2"], repr(source)


def test_three_statement_program():
    out = parse_source("forward 2; turnleft 1.57; grasp cup;")
    assert not out.diagnostics
    assert out.program.statements == (
        Statement("forward", (Number(2.0, "2"),)),
        Statement("turnleft", (Number(1.57, "1.57"),)),
        Statement("grasp", ("cup",)),
    )


def test_one_error_per_statement_and_recovery():
    out = parse_source("move 1;\nforward 2;\ngoto 3;\napproach door;")
    assert categories(out) == [Category.COMMAND, Category.QUANTITY]
    kept = [s.keyword for s in out.program.statements]
    assert kept == ["forward", "approach"]


def test_missing_semicolon_recovers_at_next_keyword():
    out = parse_source("forward 1 forward 2;")
    assert categories(out) == [Category.SEMICOLON]
    assert [s.keyword for s in out.program.statements] == ["forward"]


def test_parameter_checked_before_terminator():
    # Both the parameter kind and the terminator are wrong; only the first
    # applicable category fires.
    out = parse_source("forward table")
    assert categories(out) == [Category.PARAMETER]


def test_validate_rejects_nonpositive_magnitudes():
    out = parse_source("forward -1;")
    assert not out.diagnostics
    problems = validate(out.program)
    assert [d.category for d in problems] == [Category.PARAMETER]
    assert problems[0].token_text == "-1"

    zero = validate(parse_source("turnleft 0;").program)
    assert [d.category for d in zero] == [Category.PARAMETER]


def test_validate_exempts_goto_and_accepts_positive():
    assert validate(parse_source("goto -2, 0;").program) == []
    assert validate(parse_source("forward 5;").program) == []


def test_check_unions_lexical_and_syntactic():
    out = check("APPROACH table")
    assert categories(out) == [Category.KEYWORD, Category.SEMICOLON]


def test_check_verifies_single_statement():
    out = check("perceive;")
    assert not out.diagnostics
    assert len(out.program.statements) == 1


def test_check_two_statements():
    out = check("grasp cup; backward 3;")
    assert not out.diagnostics
    assert [s.keyword for s in out.program.statements] == ["grasp", "backward"]


def test_check_includes_positivity():
    out = check("forward -1;")
    assert categories(out) == [Category.PARAMETER]


def test_check_diagnostics_sorted_by_position():
    out = check("goto 1;\n$x\nmove 2;")
    keys = [(d.span.line, d.span.col_start) for d in out.diagnostics]
    assert keys == sorted(keys)
    # After a clean check: lexical, then syntactic, then semantic diagnostics
    # are on lines 3 and 6, 2 and 5, and 1 and 4; only the merge orders them.
    assert not check("forward 1; grasp cup;").diagnostics
    out = check("forward -2;\nmove 1;\n$\nturnleft 0;\ngoto 1;\nFORWARD 1;")
    assert [(d.span.line, d.category) for d in out.diagnostics] == [
        (1, Category.PARAMETER), (2, Category.COMMAND), (3, Category.CHARACTER),
        (4, Category.PARAMETER), (5, Category.QUANTITY), (6, Category.KEYWORD),
    ]


def test_clean_check_returns_the_merged_outcome():
    rng = random.Random(1717)
    for source in ["", "perceive;", *(random_gapped_source(rng) for _ in range(200))]:
        out = check(source)
        lexed = lex(source)
        parsed = parse(lexed.tokens, source)
        merged = sorted(
            [*lexed.diagnostics, *parsed.diagnostics, *validate(parsed.program)], key=source_order
        )
        assert out.diagnostics == tuple(merged) == ()
        assert out.program == parsed.program
        assert out.program.source == source
        assert [s.span for s in out.program.statements] == [
            s.span for s in parsed.program.statements
        ]
        assert out.program.verified and not parsed.program.verified


def test_statements_survive_lexical_recovery():
    # A recovered keyword still parses; verification still fails overall.
    out = check("FORWARD 2;")
    assert categories(out) == [Category.KEYWORD]
    assert [s.keyword for s in out.program.statements] == ["forward"]


def test_no_backtracking(monkeypatch):
    events = []

    class SpyStream(parser_mod.TokenStream):
        def advance(self):
            before = self.pos
            token = super().advance()
            events.append((before, self.pos))
            return token

        # A statement whose tokens all match is passed in one step.
        def skip(self, count):
            before = self.pos
            super().skip(count)
            events.append((before, self.pos))

    monkeypatch.setattr(parser_mod, "TokenStream", SpyStream)
    rng = random.Random(99)
    sources = [
        "forward 2; turnleft 1.57; grasp cup;",
        "move 1; goto 2; approach table",
        "goto 1, 2, 3; perceive; forward table;",
    ] + [random_junk_source(rng) for _ in range(60)] + [
        random_gapped_source(rng) for _ in range(60)
    ]
    for source in sources:
        events.clear()
        tokens = lex(source).tokens
        parser_mod.parse(tokens, source)
        positions = [before for before, _ in events]
        assert positions == sorted(positions), source
        assert all(after >= before for before, after in events), source
        # Every move is seen: each starts where the last one ended, and
        # together they pass every token before END.
        assert all(a[1] == b[0] for a, b in zip(events, events[1:])), source
        assert (events[-1][1] if events else 0) == len(tokens) - 1, source


def test_fuzz_only_categorized_diagnostics():
    rng = random.Random(7)
    for _ in range(500):
        out = check(random_junk_source(rng))
        for d in out.diagnostics:
            assert isinstance(d.category, Category)
        if not out.diagnostics:
            # Verified programs re-verify cleanly.
            assert not check(render_program(out.program)).diagnostics


def test_round_trip_is_stable_under_reparse():
    rng = random.Random(11)
    for _ in range(100):
        program = random_program(rng)
        text = render_program(program)
        again = check(text)
        assert not again.diagnostics
        assert render_program(again.program) == text


def test_verified_programs_are_accepted_downstream():
    # Cross-module property: a program that checks clean is accepted by the
    # code generator, and the simulator executes it to a state or a runtime
    # SimError, never a form rejection.
    from rsl import SimError, World, default_manifest, generate, run

    rng = random.Random(21)
    manifest = default_manifest()
    world = World({"box": (1.0, 0.0)})
    for _ in range(100):
        program = random_program(rng)
        outcome = check(render_program(program))
        assert not outcome.diagnostics
        emitted = generate(outcome.program, manifest)
        assert emitted.count("(") >= len(program.statements)
        result = run(outcome.program, world)
        assert isinstance(result, (SimError,)) or result.trace is not None


def test_parse_matches_reference_parser():
    rng = random.Random(20261018)
    gapped = [random_gapped_source(rng) for _ in range(1500)]
    for source in gapped:
        assert not check(source).diagnostics, source
    mutants = [single_char_mutant(rng, source) for source in gapped]
    junk = [random_junk_source(rng) for _ in range(3000)]
    for source in [*gapped, *mutants, *junk]:
        tokens = lex(source).tokens
        out, ref = parse(tokens, source), reference_parse(tokens, source)
        assert out.program.statements == ref.program.statements, source
        # span takes no part in Statement equality.
        assert [s.span for s in out.program.statements] == [
            s.span for s in ref.program.statements
        ], source
        assert out.diagnostics == ref.diagnostics, source


def test_lexed_and_parsed_spans_pass_the_span_check():
    # lex and parse build spans without SourceSpan's constructor, so each one
    # is put through it here.
    rng = random.Random(4242)
    for _ in range(3000):
        source = random_junk_source(rng)
        tokens = lex(source).tokens
        for span in [t.span for t in tokens] + [
            s.span for s in parse(tokens, source).program.statements
        ]:
            assert SourceSpan(*span) == span, source


def _inject(category, statement, last, rng):
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


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(Category)), st.integers(0, 2**32 - 1))
def test_one_mistake_gives_one_diagnostic(category, seed):
    # The mistake sits at a token boundary. One inside a word or number
    # splits it and cascades: "look?up 6.649;" gives Command and Character.
    rng = random.Random(seed)
    statements = [random_statement(rng) for _ in range(rng.randint(1, 6))]
    lines = [render_statement(s) for s in statements]
    index = rng.randrange(len(statements))
    broken = None
    while broken is None:
        broken = _inject(category, statements[index], index == len(lines) - 1, rng)
        if broken is None:
            statements[index] = random_statement(rng)
            lines[index] = render_statement(statements[index])
    mutated = "\n".join([*lines[:index], broken, *lines[index + 1 :]])
    diagnostics = check(mutated).diagnostics
    assert [(d.category, d.span.line) for d in diagnostics] == [
        (category, index + 1)
    ], mutated
    restored = mutated.splitlines()
    restored[index] = lines[index]
    outcome = check("\n".join(restored))
    assert outcome.program.verified
    assert outcome.program.statements == tuple(statements)
