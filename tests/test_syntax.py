import dataclasses
import random

import pytest

from rsl import (
    Category,
    Diagnostic,
    Number,
    Program,
    RobotState,
    SourceSpan,
    Statement,
    Token,
    TokenKind,
    TraceRecord,
    check,
    render_program,
    render_statement,
)
from rsl.syntax import POSITIVE_MAGNITUDE_KEYWORDS, STATEMENT_SCHEMAS

from support import random_program


def test_render_forward():
    assert render_statement(Statement("forward", (Number(1.5, "1.5"),))) == "forward 1.5;"


def test_render_goto():
    s = Statement("goto", (Number(3.0, "3"), Number(4.0, "4")))
    assert render_statement(s) == "goto 3, 4;"


def test_render_grasp():
    assert render_statement(Statement("grasp", ("apple",))) == "grasp apple;"


def test_render_perceive():
    assert render_statement(Statement("perceive")) == "perceive;"


def test_render_reparses_to_equal_statement():
    s = Statement("backward", (Number(2.25, "2.25"),))
    outcome = check(render_statement(s))
    assert not outcome.diagnostics
    assert outcome.program.statements == (s,)


def test_schema_table_is_exactly_the_twelve_forms():
    assert len(STATEMENT_SCHEMAS) == 12
    assert STATEMENT_SCHEMAS["goto"] == ("number", "number")
    assert STATEMENT_SCHEMAS["perceive"] == ()
    assert STATEMENT_SCHEMAS["approach"] == ("object",)
    assert STATEMENT_SCHEMAS["grasp"] == ("object",)
    for kw in ("forward", "backward", "turnleft", "turnright",
               "lookup", "lookdown", "lookleft", "lookright"):
        assert STATEMENT_SCHEMAS[kw] == ("number",)
    assert POSITIVE_MAGNITUDE_KEYWORDS == {
        "forward", "backward", "turnleft", "turnright",
        "lookup", "lookdown", "lookleft", "lookright",
    }


def test_statement_rejects_unknown_keyword():
    with pytest.raises(ValueError):
        Statement("fly", (Number(1.0, "1"),))


def test_statement_rejects_wrong_arity():
    with pytest.raises(ValueError):
        Statement("goto", (Number(1.0, "1"),))
    with pytest.raises(ValueError):
        Statement("perceive", (Number(1.0, "1"),))


def test_statement_rejects_wrong_argument_kind():
    with pytest.raises(ValueError):
        Statement("forward", ("table",))
    with pytest.raises(ValueError):
        Statement("grasp", (Number(3.0, "3"),))


def test_span_invariants():
    with pytest.raises(ValueError):
        SourceSpan(0, 1, 1)
    with pytest.raises(ValueError):
        SourceSpan(1, 5, 4)
    assert SourceSpan(2, 3, 3).col_end == 3


def test_spans_excluded_from_equality():
    a = Statement("forward", (Number(1.0, "1"),), SourceSpan(1, 1, 10))
    b = Statement("forward", (Number(1.0, "1"),), SourceSpan(7, 3, 12))
    assert a == b


def test_program_equality_ignores_source():
    s = Statement("perceive")
    assert Program((s,), source="perceive;") == Program((s,), source="")


def test_round_trip_random_programs():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        program = random_program(rng)
        outcome = check(render_program(program))
        assert not outcome.diagnostics, render_program(program)
        assert outcome.program == program


def value_type_instances():
    span = SourceSpan(1, 1, 10)
    number = Number(1.0, "1")
    statement = Statement("forward", (number,), span)
    record = TraceRecord(statement, 1.0, 0.0, 0.0, 0.0, 0.0, None, False)
    return [
        span,
        Token(TokenKind.NUMBER, "1", span, value=1.0),
        number,
        statement,
        check("forward 1;").program,
        Diagnostic(Category.NUMBER, span, "1x"),
        record,
        RobotState(trace=(record,)),
    ]


@pytest.mark.parametrize("instance", value_type_instances(), ids=lambda v: type(v).__name__)
def test_value_types_have_no_instance_dict_and_stay_immutable(instance):
    assert not hasattr(instance, "__dict__")
    if isinstance(instance, tuple):
        names = instance._fields
    else:
        names = [f.name for f in dataclasses.fields(instance)]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
