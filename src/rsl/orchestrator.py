"""Task-to-program translation loop.

A prompt is the system message, the optional shots, and the user task,
concatenated in that order. The model's reply is reduced to candidate program
text, verified by the compiler, and on failure the rendered diagnostics are
appended to the conversation as feedback so the model can regenerate. The
loop ends at the first verified non-empty program or after max_passes attempts.

Conversation history accumulates across passes: each feedback message quotes
only the immediately previous program and its errors, but the transcript
keeps every turn.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Sequence

from .diagnostics import EMPTY_PROGRAM_FEEDBACK, Diagnostic, compose_feedback, render
from .llm import ChatMessage, LlmError, ModelConfig, Transport, complete
from .parser import check
from .syntax import ANY_CASE_KEYWORD, KEYWORDS, Program, data_path, read_input

DEFAULT_MAX_PASSES = 5

_KEYWORD_ALTERNATION = "|".join(sorted(KEYWORDS))
# An opening fence is ``` followed by either code on the same line, after an
# optional language tag and blanks, or an info line (dropped) and a newline.
# Same-line code must start with a command keyword in any case, and a tag is
# never a keyword, so ```perceive; forward 1;``` keeps both statements and a
# stray ``` in prose does not open a fence.
_FENCE_RE = re.compile(
    r"```(?:(?:(?!" + ANY_CASE_KEYWORD + r")[^\s`]+[ \t]+)?(?=" + ANY_CASE_KEYWORD + r")"
    r"|[^\n`]*\n)(.*?)```",
    re.DOTALL,
)
_KEYWORD_LINE_RE = re.compile(r"^\s*(?:" + _KEYWORD_ALTERNATION + r")\b")


@functools.lru_cache(maxsize=16)
def _prompt_prefix(system: str, shots: tuple[tuple[str, str], ...]) -> tuple[ChatMessage, ...]:
    """The system and shot messages, each shot's program checked before its
    pair is added. Only built prefixes are cached, so a bad shot raises every
    time."""
    prefix = [ChatMessage("system", system)]
    for shot_task, shot_rsl in shots:
        diagnostics = check(shot_rsl).diagnostics
        if diagnostics:
            first = render(diagnostics[0])
            raise ValueError(f"shot for task {shot_task!r} does not verify: {first}")
        prefix += (ChatMessage("user", shot_task), ChatMessage("assistant", shot_rsl))
    return tuple(prefix)


@dataclass(frozen=True)
class PromptParts:
    """System message, exemplar (task, program) shots, and the user task.
    Shots may be empty (zero-shot). Construction verifies each shot as it
    builds the cached system and shot messages, so a per-task copy made with
    dataclasses.replace(template, task=...) makes no check calls."""

    system_message: str
    shots: tuple[tuple[str, str], ...]
    task: str

    def __post_init__(self) -> None:
        if not self.system_message.strip():
            raise ValueError("system message must be non-empty")
        object.__setattr__(self, "shots", tuple(map(tuple, self.shots)))
        _prompt_prefix(self.system_message, self.shots)


@dataclass(frozen=True)
class LoopOutcome:
    """Result of one translation loop. raw_history holds one (assistant text,
    diagnostics) pair per pass; passes == len(raw_history); program is set
    only when verified."""

    verified: bool
    program: Program | None
    raw_history: tuple[tuple[str, tuple[Diagnostic, ...]], ...]
    passes: int
    transcript: tuple[ChatMessage, ...]


class TranslationAborted(LlmError):
    """A client error stopped the loop; pass_number says on which attempt."""

    def __init__(self, pass_number: int, cause: LlmError) -> None:
        super().__init__(f"pass {pass_number}: {cause}")
        self.pass_number = pass_number
        self.cause = cause


def build_prompt(parts: PromptParts) -> list[ChatMessage]:
    """One system message, then one user/assistant pair per shot, then the
    task as the final user message, in a new list on every call."""
    if not parts.task.strip():
        raise ValueError("task must be non-empty")
    prefix = _prompt_prefix(parts.system_message, parts.shots)
    return [*prefix, ChatMessage("user", parts.task)]


def extract_rsl(assistant_text: str) -> str:
    """Reduce a chatty model reply to candidate program text.

    Fenced code blocks win (contents concatenated in order); otherwise the
    lines that start with a command keyword; otherwise the text unchanged,
    letting the compiler produce the diagnostics that drive feedback.
    """
    blocks = _FENCE_RE.findall(assistant_text)
    if blocks:
        return "\n".join(block.strip("\n") for block in blocks)
    lines = [
        line for line in assistant_text.splitlines() if _KEYWORD_LINE_RE.match(line)
    ]
    if lines:
        return "\n".join(lines)
    return assistant_text


def translate(
    parts: PromptParts,
    config: ModelConfig,
    max_passes: int = DEFAULT_MAX_PASSES,
    transport: Transport | None = None,
) -> LoopOutcome:
    """Run the generate/verify/feedback loop for one task.

    Performs at most max_passes completions. Client errors abort the loop as
    TranslationAborted, annotated with the pass number. An empty program is
    a valid program but not a finished translation: a reply that verifies
    with no statement gets EMPTY_PROGRAM_FEEDBACK and counts as a failed pass.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    messages = build_prompt(parts)
    history: list[tuple[str, tuple[Diagnostic, ...]]] = []
    for pass_number in range(1, max_passes + 1):
        try:
            reply = complete(config, messages, transport=transport)
        except LlmError as err:
            raise TranslationAborted(pass_number, err) from err
        messages.append(ChatMessage("assistant", reply))
        program_text = extract_rsl(reply)
        outcome = check(program_text)
        diagnostics = outcome.diagnostics
        history.append((reply, diagnostics))
        if not diagnostics and outcome.program.statements:
            return LoopOutcome(
                True, outcome.program, tuple(history), pass_number, tuple(messages)
            )
        if pass_number < max_passes:
            feedback = (compose_feedback(diagnostics, program_text) if diagnostics
                        else EMPTY_PROGRAM_FEEDBACK)
            messages.append(ChatMessage("user", feedback))
    return LoopOutcome(False, None, tuple(history), max_passes, tuple(messages))


def transcript_to_json(transcript: Sequence[ChatMessage]) -> str:
    """Transcript export for audit, stable across runs."""
    return json.dumps(
        [{"role": m.role, "content": m.content} for m in transcript],
        indent=2,
        sort_keys=True,
        allow_nan=False,
    )


def default_system_message() -> str:
    return read_input(data_path("system_message.txt"), ValueError, "system message")


def default_shots() -> tuple[tuple[str, str], ...]:
    """The shipped exemplars: one (task, program) pair per command keyword."""
    entries = read_input(data_path("shots.json"), ValueError, "shots", json.loads)
    return tuple((entry["task"], entry["rsl"]) for entry in entries)


def make_prompt_parts(task: str, zero_shot: bool = False) -> PromptParts:
    """PromptParts with the shipped system message, and the shipped shots
    unless zero_shot is set."""
    shots = () if zero_shot else default_shots()
    return PromptParts(default_system_message(), shots, task)
