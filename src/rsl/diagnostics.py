"""The nine diagnostic categories, their canonical messages, and feedback
composition for the repair loop.

Five categories are lexical (Keyword, Identifier, Number, Character, Comment)
and four syntactic (Command, Parameter, Quantity, Semicolon). Positivity
violations found during semantic validation reuse the Parameter category.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    {
        Category.KEYWORD,
        Category.IDENTIFIER,
        Category.NUMBER,
        Category.CHARACTER,
        Category.COMMENT,
    }
)

# Canonical sentence per category. The Character sentence names the offending
# character and is built in message_for.
_MESSAGES = {
    Category.KEYWORD: "Keywords should be lowercase.",
    Category.IDENTIFIER: "The identifier is illegal.",
    Category.NUMBER: "The number is illegal.",
    Category.COMMENT: "This comment has errors.",
    Category.COMMAND: "The command (keyword) is illegal.",
    Category.PARAMETER: "Parameter types of the command are invalid.",
    Category.QUANTITY: "The number of parameters is illegal.",
    Category.SEMICOLON: "The statement must end with a semicolon.",
}


def message_for(category: Category, token_text: str) -> str:
    """The canonical error sentence for a category."""
    if category is Category.CHARACTER:
        return f"The {token_text} is an illegal character."
    return _MESSAGES[category]


@dataclass(frozen=True)
class Diagnostic:
    """One error: category, location, the offending lexeme, and the canonical
    sentence. The message is derived from the category when not given."""

    category: Category
    span: SourceSpan
    token_text: str
    message: str = ""

    def __post_init__(self) -> None:
        if not self.message:
            object.__setattr__(
                self, "message", message_for(self.category, self.token_text)
            )


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
    ordered = sorted(diagnostics, key=source_order)
    lines = [
        "The previously generated program was:",
        program,
        "",
        "The compiler reported the following errors:",
    ]
    lines.extend(render(d) for d in ordered)
    lines.append("")
    lines.append(FEEDBACK_INSTRUCTION)
    return "\n".join(lines)
