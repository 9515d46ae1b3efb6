"""The nine diagnostic categories, their canonical messages, and feedback
composition for the repair loop.

Five categories are lexical (Keyword, Identifier, Number, Character, Comment)
and four syntactic (Command, Parameter, Quantity, Semicolon). Positivity
violations found during semantic validation reuse the Parameter category.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .syntax import SourceSpan


class Category(Enum):
    KEYWORD = "Keyword"
    IDENTIFIER = "Identifier"
    NUMBER = "Number"
    CHARACTER = "Character"
    COMMENT = "Comment"
    COMMAND = "Command"
    PARAMETER = "Parameter"
    QUANTITY = "Quantity"
    SEMICOLON = "Semicolon"


LEXICAL_CATEGORIES = frozenset(
    {Category.KEYWORD, Category.IDENTIFIER, Category.NUMBER, Category.CHARACTER, Category.COMMENT}
)

# Canonical sentence per category, keyed by the member's value: a plain str
# hashes in C, where a Category key would hash through the Python-level
# Enum.__hash__. The Character sentence names the offending character and is
# built in message_for.
_MESSAGES = {
    Category.KEYWORD.value: "Keywords should be lowercase.",
    Category.IDENTIFIER.value: "The identifier is illegal.",
    Category.NUMBER.value: "The number is illegal.",
    Category.COMMENT.value: "This comment has errors.",
    Category.COMMAND.value: "The command (keyword) is illegal.",
    Category.PARAMETER.value: "Parameter types of the command are invalid.",
    Category.QUANTITY.value: "The number of parameters is illegal.",
    Category.SEMICOLON.value: "The statement must end with a semicolon.",
}
# A module global: looking the member up on the class goes through
# EnumType's attribute hook on every call.
_CHARACTER = Category.CHARACTER


def message_for(category: Category, token_text: str) -> str:
    """The canonical error sentence for a category."""
    if category is _CHARACTER:
        return f"The {token_text} is an illegal character."
    # _value_ is the member's own attribute; .value is a Python-level property.
    return _MESSAGES[category._value_]


class Diagnostic(NamedTuple):
    """One error: category, location and offending lexeme; message is derived."""

    category: Category
    span: SourceSpan
    token_text: str

    @property
    def message(self) -> str:
        return message_for(self.category, self.token_text)


def source_order(d: Diagnostic) -> tuple[int, int]:
    return (d.span.line, d.span.col_start)


def render(d: Diagnostic) -> str:
    """One line, no parser jargon: the line number, the canonical sentence,
    and the offending token."""
    return f"Line {d.span.line}: {d.message} Near token '{d.token_text}'."


FEEDBACK_INSTRUCTION = (
    "Regenerate a corrected RSL program only: output the full program, "
    "one statement per line, with no explanations."
)


def compose_feedback(diagnostics: Sequence[Diagnostic], program: str) -> str:
    """Feedback block for the repair loop: the previous program verbatim, all
    rendered diagnostics in source order, then a fixed closing instruction.

    Raises ValueError on an empty diagnostic list; feedback is only composed
    when verification failed.
    """
    if not diagnostics:
        raise ValueError("feedback requires at least one diagnostic")
    rendered = [render(d) for d in sorted(diagnostics, key=source_order)]
    return "\n".join([
        "The previously generated program was:", program, "",
        "The compiler reported the following errors:", *rendered, "", FEEDBACK_INSTRUCTION,
    ])
