import pytest

from rsl import Category, Diagnostic, SourceSpan, compose_feedback
from rsl.diagnostics import message_for, render

SPAN = SourceSpan(1, 1, 5)

# The canonical sentence per category, asserted byte-for-byte.
GOLDEN_MESSAGES = {
    Category.KEYWORD: "Keywords should be lowercase.",
    Category.IDENTIFIER: "The identifier is illegal.",
    Category.NUMBER: "The number is illegal.",
    Category.CHARACTER: "The $ is an illegal character.",
    Category.COMMENT: "This comment has errors.",
    Category.COMMAND: "The command (keyword) is illegal.",
    Category.PARAMETER: "Parameter types of the command are invalid.",
    Category.QUANTITY: "The number of parameters is illegal.",
    Category.SEMICOLON: "The statement must end with a semicolon.",
}


@pytest.mark.parametrize("category", list(Category))
def test_golden_message_per_category(category):
    token = "$" if category is Category.CHARACTER else "tok"
    assert message_for(category, token) == GOLDEN_MESSAGES[category]


@pytest.mark.parametrize("category", list(Category))
def test_diagnostic_message_is_derived_and_not_an_argument(category):
    for token in ("$", "tok"):
        assert Diagnostic(category, SPAN, token).message == message_for(category, token)
    with pytest.raises(TypeError):
        Diagnostic(category, SPAN, "tok", "a stored message")  # type: ignore[call-arg]


def test_character_message_substitutes_the_character():
    assert message_for(Category.CHARACTER, "$") == "The $ is an illegal character."
    assert message_for(Category.CHARACTER, "#") == "The # is an illegal character."


def test_render_template_semicolon():
    d = Diagnostic(Category.SEMICOLON, SourceSpan(1, 1, 14), "approach table")
    assert render(d) == (
        "Line 1: The statement must end with a semicolon. Near token 'approach table'."
    )


def test_render_template_character():
    d = Diagnostic(Category.CHARACTER, SPAN, "$")
    assert render(d) == "Line 1: The $ is an illegal character. Near token '$'."


def test_render_template_command():
    d = Diagnostic(Category.COMMAND, SourceSpan(2, 1, 4), "move")
    assert render(d) == "Line 2: The command (keyword) is illegal. Near token 'move'."


def test_render_is_single_line():
    for category in Category:
        d = Diagnostic(category, SPAN, "x")
        assert "\n" not in render(d)


def test_render_distinguishes_triples():
    variants = {
        render(Diagnostic(Category.COMMAND, SourceSpan(1, 1, 4), "move")),
        render(Diagnostic(Category.COMMAND, SourceSpan(2, 1, 4), "move")),
        render(Diagnostic(Category.COMMAND, SourceSpan(1, 1, 4), "mova")),
        render(Diagnostic(Category.QUANTITY, SourceSpan(1, 1, 4), "move")),
    }
    assert len(variants) == 4


def test_compose_feedback_structure():
    diags = [
        Diagnostic(Category.COMMAND, SourceSpan(3, 1, 4), "move"),
        Diagnostic(Category.SEMICOLON, SourceSpan(1, 1, 14), "approach table"),
    ]
    block = compose_feedback(diags, "approach table\nforward 1;\nmove 2;")
    # Program comes first, verbatim.
    assert "approach table\nforward 1;\nmove 2;" in block
    # Diagnostics are re-ordered by source position, each exactly once.
    line1 = block.find(render(diags[1]))
    line3 = block.find(render(diags[0]))
    assert -1 < line1 < line3
    assert block.count(render(diags[0])) == 1
    assert block.count(render(diags[1])) == 1
    # Fixed closing instruction.
    assert block.rstrip().endswith("with no explanations.")


def test_compose_feedback_is_deterministic():
    diags = [Diagnostic(Category.QUANTITY, SourceSpan(1, 1, 6), "goto 1")]
    assert compose_feedback(diags, "goto 1;") == compose_feedback(diags, "goto 1;")


def test_compose_feedback_rejects_empty():
    with pytest.raises(ValueError):
        compose_feedback([], "anything")
