import json
import random
import re
import string
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsl.orchestrator as orchestrator_mod
from rsl import (
    Category,
    ChatMessage,
    ModelConfig,
    Number,
    PromptParts,
    ScriptedTransport,
    Statement,
    TranslationAborted,
    build_prompt,
    check,
    compose_feedback,
    default_shots,
    extract_rsl,
    make_prompt_parts,
    render_program,
    render_statement,
    translate,
)
from rsl.diagnostics import EMPTY_PROGRAM_FEEDBACK, render
from rsl.syntax import ANY_CASE_KEYWORD, KEYWORDS, STATEMENT_SCHEMAS

from support import one_mistake_program

CONFIG = ModelConfig(base_url="http://offline.invalid", model_name="scripted")
SYSTEM = "You translate tasks into robot programs."


def parts(task="Approach the door.", shots=()):
    return PromptParts(SYSTEM, tuple(shots), task)


def test_zero_shot_prompt_shape():
    messages = build_prompt(parts("Approach the door."))
    assert [m.role for m in messages] == ["system", "user"]
    assert messages[-1].content == "Approach the door."


def test_twelve_shots_give_twenty_six_messages():
    shots = default_shots()
    assert len(shots) == 12
    messages = build_prompt(PromptParts(SYSTEM, shots, "task"))
    assert len(messages) == 1 + 24 + 1
    roles = [m.role for m in messages[1:-1]]
    assert roles == ["user", "assistant"] * 12


def test_shipped_shots_verify():
    for _, rsl_text in default_shots():
        assert not check(rsl_text).diagnostics


def test_default_prompt_parts_modes():
    with_shots = make_prompt_parts("t")
    assert len(with_shots.shots) == 12
    zero = make_prompt_parts("t", zero_shot=True)
    assert zero.shots == ()
    assert "forward" in with_shots.system_message


def test_empty_task_rejected():
    with pytest.raises(ValueError):
        build_prompt(parts(task="  "))


@pytest.mark.parametrize("system", ["", " \n\t"], ids=["empty", "blank"])
def test_blank_system_message_rejected(system):
    with pytest.raises(ValueError, match="system message must be non-empty"):
        PromptParts(system, (), "Approach the door.")


def test_bad_shot_rejected_at_construction():
    with pytest.raises(ValueError, match="does not verify"):
        parts(shots=[("Broken task", "approach table")])


def test_extract_from_fenced_block():
    assert extract_rsl("Here you go:\n```\nforward 1;\n```") == "forward 1;"


def test_extract_from_fence_with_language_tag():
    assert extract_rsl("```rsl\ngoto 1, 2;\nperceive;\n```\nthanks") == "goto 1, 2;\nperceive;"


def test_extract_concatenates_multiple_fences():
    text = "```\nforward 1;\n```\nand then\n```\ngrasp cup;\n```"
    assert extract_rsl(text) == "forward 1;\ngrasp cup;"


def test_extract_single_line_fence_with_language_tag():
    assert extract_rsl("```rsl forward 1;```") == "forward 1;"


def test_extract_single_line_fence_without_language_tag():
    # A leading command keyword is code, not a language tag.
    assert extract_rsl("```forward 1;```") == "forward 1;"
    assert extract_rsl("```rsl goto 1, 2; perceive;``` done") == "goto 1, 2; perceive;"
    assert extract_rsl("```perceive; forward 1;```") == "perceive; forward 1;"


def test_extract_fence_opening_with_code_keeps_first_statement():
    assert extract_rsl("```forward 1;\nperceive;\n```") == "forward 1;\nperceive;"
    assert extract_rsl("```rsl forward 1;\nperceive;\n```") == "forward 1;\nperceive;"


def test_extract_skips_stray_fence_in_prose():
    text = "Use ``` to fence. ```rsl\nforward 1;\n```"
    assert extract_rsl(text) == "forward 1;"


def test_extract_single_line_fence_keeps_case_variant_keyword():
    # The lexer diagnoses and recovers FORWARD; extraction must not eat it,
    # in a fence or outside one.
    assert extract_rsl("```FORWARD 1;```") == "FORWARD 1;"
    assert extract_rsl("Sure:\nFORWARD 1;\nDone") == "FORWARD 1;"


def test_extract_keyword_lines_only():
    # A line that does not start with a keyword reads as prose before the
    # first keyword-led line and after the last one.
    text = "Sure! forward 1;\nforward 2;\nHope this helps"
    assert extract_rsl(text) == "forward 2;"


@pytest.mark.parametrize(
    "middle, category",
    [("TURNLEFT 1.5;", Category.KEYWORD), ("move 2;", Category.COMMAND),
     ("$turnleft 1.5;", Category.CHARACTER)],
    ids=["keyword", "command", "character"],
)
def test_extract_keeps_every_line_between_keyword_lines(middle, category):
    program = f"forward 2;\n{middle}\ngrasp cup;"
    for reply in (program, f"Here is the plan:\n{program}\nHope this helps"):
        text = extract_rsl(reply)
        assert text == program
        assert [(d.category, d.span.line) for d in check(text).diagnostics] == [(category, 2)]


def numerals(signed):
    raw = st.integers(0, 9999).map(str) | st.builds("{}.{}".format, st.integers(0, 99),
                                                     st.integers(0, 999))
    if signed:
        return st.builds(str.__add__, st.sampled_from(["", "-"]), raw)
    return raw.filter(lambda text: float(text) > 0)


OBJECT_NAMES = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_letters + "_"),
    st.text(string.ascii_letters + string.digits + "_", max_size=7),
).filter(lambda name: name.lower() not in KEYWORDS)


@st.composite
def statements(draw):
    keyword = draw(st.sampled_from(sorted(STATEMENT_SCHEMAS)))
    args = []
    for kind in STATEMENT_SCHEMAS[keyword]:
        if kind == "object":
            args.append(draw(OBJECT_NAMES))
        else:
            raw = draw(numerals(signed=keyword == "goto"))
            args.append(Number(float(raw), raw))
    return Statement(keyword, tuple(args))


# Prose is drawn with no backtick, so it opens no fence, and with no line led
# by a command keyword in any case, so it never joins the program's block.
PROSE_LINES = st.text(string.ascii_letters + string.digits + " .,:;!?'-()", max_size=24).filter(
    lambda line: not re.match(r"\s*" + ANY_CASE_KEYWORD, line)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(statements(), min_size=1, max_size=6),
    st.lists(PROSE_LINES, min_size=1, max_size=3),
    st.lists(PROSE_LINES, min_size=1, max_size=3),
    st.data(),
)
def test_extract_reads_every_documented_reply_shape(program, before, after, data):
    lines = [render_statement(s) for s in program]
    prose_before, prose_after = "\n".join(before), "\n".join(after)

    def unfenced(lines):
        body = "\n".join(lines)
        return [body, f"{prose_before}\n{body}\n{prose_after}"]

    body, one_line = "\n".join(lines), " ".join(lines)
    replies = unfenced(lines) + [
        f"{prose_before}\n```\n{body}\n```\n{prose_after}",
        f"{prose_before}\n```rsl\n{body}\n```\n{prose_after}",
        f"{prose_before} ```{one_line}``` {prose_after}",
        f"{prose_before} ```rsl {one_line}``` {prose_after}",
    ]
    for reply in replies:
        outcome = check(extract_rsl(reply))
        assert outcome.program.verified, reply
        assert outcome.program.statements == tuple(program), reply

    # A case-variant keyword leads its line wherever it is, so it is always
    # extracted and diagnosed.
    index = data.draw(st.integers(0, len(lines) - 1))
    keyword = program[index].keyword
    upper = data.draw(st.sets(st.integers(0, len(keyword) - 1), min_size=1))
    variant = "".join(c.upper() if i in upper else c for i, c in enumerate(keyword))
    mutants = [(index, variant + lines[index][len(keyword):], Category.KEYWORD)]
    # Any broken line between two keyword-led lines is extracted too.
    if len(lines) >= 3:
        index = data.draw(st.integers(1, len(lines) - 2))
        rest = lines[index][len(program[index].keyword):]
        mutants += [
            (index, data.draw(OBJECT_NAMES) + rest, Category.COMMAND),
            (index, data.draw(st.sampled_from("$@#?!%&^~(){}[]")) + lines[index],
             Category.CHARACTER),
            (index, data.draw(st.sampled_from(string.digits)) + lines[index], None),
        ]
    for index, mutant, category in mutants:
        broken = [*lines[:index], mutant, *lines[index + 1:]]
        for reply in unfenced(broken):
            diagnostics = check(extract_rsl(reply)).diagnostics
            assert diagnostics, reply
            assert {d.span.line for d in diagnostics} == {index + 1}, reply
            if category is not None:
                assert [d.category for d in diagnostics] == [category], reply


def test_extract_keeps_indented_keyword_lines():
    text = "plan:\n  forward 1;\n  turnleft 0.5;\ndone"
    assert extract_rsl(text) == "  forward 1;\n  turnleft 0.5;"


def test_extract_requires_word_boundary():
    # "forwardly" is not a keyword line.
    assert extract_rsl("forwardly 3; nonsense") == "forwardly 3; nonsense"


def test_extract_identity_on_bare_programs():
    assert extract_rsl("forward 1;") == "forward 1;"


def test_extract_passes_junk_through():
    assert extract_rsl("I cannot help with that.") == "I cannot help with that."


def test_translate_first_pass_success():
    transport = ScriptedTransport(["forward 1;"])
    outcome = translate(parts(), CONFIG, max_passes=5, transport=transport)
    assert outcome.verified
    assert outcome.passes == 1
    assert render_program(outcome.program) == "forward 1;"
    assert [m.role for m in outcome.transcript] == ["system", "user", "assistant"]


def test_translate_repairs_missing_semicolon():
    transport = ScriptedTransport(["approach table", "approach table;"])
    outcome = translate(parts("Approach the table."), CONFIG, 5, transport=transport)
    assert outcome.verified
    assert outcome.passes == 2
    first_diags = outcome.raw_history[0][1]
    assert [d.category for d in first_diags] == [Category.SEMICOLON]
    # The pass-2 user message carries the rendered diagnostic exactly once.
    feedback = outcome.transcript[-2]
    assert feedback.role == "user"
    assert feedback.content.count(render(first_diags[0])) == 1
    assert "approach table" in feedback.content
    # The transport saw the feedback block as the last message of call 2.
    second_request = transport.requests[1]
    assert second_request[-1]["role"] == "user"
    assert render(first_diags[0]) in second_request[-1]["content"]


def test_translate_repairs_a_reply_with_no_statement():
    # An empty program is a valid program but not a finished translation.
    transport = ScriptedTransport(["// nothing to do", "approach door;"])
    outcome = translate(parts(), CONFIG, 5, transport=transport)
    assert outcome.verified and outcome.passes == 2
    assert outcome.raw_history[0][1] == ()
    assert render_program(outcome.program) == "approach door;"
    assert transport.requests[1][-1] == {"role": "user", "content": EMPTY_PROGRAM_FEEDBACK}


def test_translate_exhaustion():
    transport = ScriptedTransport(["move 1;", "move 1;", "move 1;"])
    outcome = translate(parts(), CONFIG, max_passes=3, transport=transport)
    assert not outcome.verified
    assert outcome.passes == 3
    assert outcome.program is None
    last_diags = outcome.raw_history[-1][1]
    assert [d.category for d in last_diags] == [Category.COMMAND]
    # Exhausted loop sends no dangling feedback.
    assert outcome.transcript[-1].role == "assistant"


def test_feedback_contains_every_previous_diagnostic_once():
    # Three broken statements, all on keyword-led lines so extraction keeps
    # them: wrong arity, missing terminator, non-positive magnitude.
    broken = "goto 2;\napproach table\nforward -1;"
    transport = ScriptedTransport([broken, "forward 1;"])
    outcome = translate(parts(), CONFIG, 5, transport=transport)
    assert outcome.verified and outcome.passes == 2
    first_diags = outcome.raw_history[0][1]
    assert len(first_diags) == 3
    feedback = outcome.transcript[3].content
    for d in first_diags:
        assert feedback.count(render(d)) == 1


def test_translate_repairs_a_case_variant_keyword_between_keyword_lines():
    transport = ScriptedTransport([
        "forward 2;\nTURNLEFT 1.5;\ngrasp cup;", "forward 2;\nturnleft 1.5;\ngrasp cup;",
    ])
    outcome = translate(parts(), CONFIG, 5, transport=transport)
    assert outcome.verified and outcome.passes == 2
    assert [d.category for d in outcome.raw_history[0][1]] == [Category.KEYWORD]
    assert render_program(outcome.program) == "forward 2;\nturnleft 1.5;\ngrasp cup;"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(statements(), min_size=1, max_size=6), st.integers(1, 3), st.data())
def test_translate_repairs_one_mistake_a_pass(program, max_passes, data):
    # The model replies with k one-mistake mutants, then the program.
    k = data.draw(st.integers(0, max_passes))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    mutants = [one_mistake_program(program, rng) for _ in range(k)]
    transport = ScriptedTransport(
        [text for text, _ in mutants] + ["\n".join(render_statement(s) for s in program)]
    )
    outcome = translate(parts(), CONFIG, max_passes, transport=transport)
    assert outcome.passes == min(k + 1, max_passes)
    if k < max_passes:
        assert outcome.verified and outcome.program.statements == tuple(program)
        assert outcome.raw_history[-1][1] == ()
    else:
        assert not outcome.verified and outcome.program is None
    for (reply, diagnostics), (text, category) in zip(outcome.raw_history, mutants):
        assert reply == text
        assert [d.category for d in diagnostics] == [category], text
    for (reply, diagnostics), request in zip(outcome.raw_history, transport.requests[1:]):
        feedback = compose_feedback(diagnostics, extract_rsl(reply))
        assert request[-1] == {"role": "user", "content": feedback}


def test_transcript_accumulates_across_passes():
    transport = ScriptedTransport(["move 1;", "move 2;", "forward 3;"])
    outcome = translate(parts(), CONFIG, 5, transport=transport)
    assert outcome.passes == 3
    roles = [m.role for m in outcome.transcript]
    assert roles == [
        "system", "user",
        "assistant", "user",
        "assistant", "user",
        "assistant",
    ]
    # Each pass saw the full conversation so far.
    assert [len(r) for r in transport.requests] == [2, 4, 6]


def test_shot_count_does_not_change_loop_behavior():
    replies = ["approach table", "approach table;"]
    zero = translate(
        parts("Approach the table."), CONFIG, 5, transport=ScriptedTransport(replies)
    )
    shot = translate(
        PromptParts(SYSTEM, (("Grasp the cup.", "grasp cup;"),), "Approach the table."),
        CONFIG,
        5,
        transport=ScriptedTransport(replies),
    )
    assert zero.verified == shot.verified
    assert zero.passes == shot.passes
    assert zero.program == shot.program
    assert [d for _, d in zero.raw_history] == [d for _, d in shot.raw_history]


def test_client_error_annotated_with_pass_number():
    transport = ScriptedTransport(["move 1;"])  # exhausted on pass 2
    with pytest.raises(TranslationAborted) as info:
        translate(parts(), CONFIG, 5, transport=transport)
    assert info.value.pass_number == 2
    assert "pass 2" in str(info.value)


def test_max_passes_must_be_positive():
    with pytest.raises(ValueError):
        translate(parts(), CONFIG, max_passes=0, transport=ScriptedTransport(["x"]))


def test_verified_program_recheck_idempotent():
    transport = ScriptedTransport(["goto 0, 0;\nperceive;"])
    outcome = translate(parts(), CONFIG, 5, transport=transport)
    assert outcome.verified
    assert not check(render_program(outcome.program)).diagnostics


def count_checks(monkeypatch):
    calls = []
    original = orchestrator_mod.check

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(orchestrator_mod, "check", counting)
    return calls


def test_per_task_replace_does_not_recheck_shots(monkeypatch):
    template = make_prompt_parts("t")
    calls = count_checks(monkeypatch)
    per_task = replace(template, task="Approach the door.")
    assert calls == []
    assert per_task.task == "Approach the door."
    assert per_task.shots == template.shots
    assert build_prompt(per_task)[1:-1] == build_prompt(template)[1:-1]


def test_template_construction_checks_each_shot_once(monkeypatch):
    orchestrator_mod._prompt_prefix.cache_clear()
    calls = count_checks(monkeypatch)
    template = make_prompt_parts("t")
    assert calls == [shot_rsl for _, shot_rsl in template.shots]


def test_replacing_shots_verifies_the_new_ones(monkeypatch):
    template = make_prompt_parts("t")
    orchestrator_mod._prompt_prefix.cache_clear()
    calls = count_checks(monkeypatch)
    message = "shot for task 'Broken task' does not verify: Line 1: The statement must end"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            replace(template, shots=(("Broken task", "approach table"),))
    replace(template, shots=(("Grasp the cup.", "grasp cup;"),))
    assert calls == ["approach table", "approach table", "grasp cup;"]


def test_build_prompt_sends_shipped_data_verbatim():
    # Derived from the data files directly, not through rsl's loaders.
    data = resources.files("rsl.data")
    system = data.joinpath("system_message.txt").read_text("utf-8")
    shots = json.loads(data.joinpath("shots.json").read_text("utf-8"))
    expected = [("system", system)]
    for entry in shots:
        expected += [("user", entry["task"]), ("assistant", entry["rsl"])]
    expected.append(("user", "Approach the table."))
    template = make_prompt_parts("placeholder")
    messages = build_prompt(replace(template, task="Approach the table."))
    assert [(m.role, m.content) for m in messages] == expected


def test_default_shots_refuse_a_duplicated_key(tmp_path, monkeypatch):
    (tmp_path / "shots.json").write_text(
        '[{"task": "Perceive.", "task": "Look.", "rsl": "perceive;"}]', "utf-8"
    )
    monkeypatch.setattr(orchestrator_mod, "data_path", lambda name: str(tmp_path / name))
    message = f"cannot read shots {tmp_path / 'shots.json'}: duplicate key 'task' in shots"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        default_shots()


def test_per_task_prompts_share_the_template_prefix():
    template = make_prompt_parts("t")
    first = build_prompt(replace(template, task="Approach the door."))
    second = build_prompt(replace(template, task="Approach the table."))
    assert first is not second
    assert len(first) == len(second) == 26
    assert all(a is b for a, b in zip(first[:25], second[:25]))
    assert [first[-1].content, second[-1].content] == [
        "Approach the door.",
        "Approach the table.",
    ]


def test_extending_a_prompt_leaves_the_next_one_unchanged():
    per_task = replace(make_prompt_parts("t"), task="Approach the door.")
    prompt = build_prompt(per_task)
    expected = list(prompt)
    prompt.append(ChatMessage("assistant", "forward 1;"))
    prompt.append(ChatMessage("user", "feedback"))
    assert build_prompt(per_task) == expected


def test_per_task_prompt_builds_only_the_task_message(monkeypatch):
    template = make_prompt_parts("t")
    build_prompt(template)
    built = []
    original = orchestrator_mod.ChatMessage

    def counting(role, content):
        built.append((role, content))
        return original(role, content)

    monkeypatch.setattr(orchestrator_mod, "ChatMessage", counting)
    messages = build_prompt(replace(template, task="Approach the door."))
    assert built == [("user", "Approach the door.")]
    assert len(messages) == 26


def test_each_template_gets_its_own_prefix():
    shot = ("Grasp the cup.", "grasp cup;")
    base = build_prompt(PromptParts(SYSTEM, (shot,), "t"))
    other_system = build_prompt(PromptParts("Another system message.", (shot,), "t"))
    other_shots = build_prompt(PromptParts(SYSTEM, (("Perceive.", "perceive;"),), "t"))
    assert [(m.role, m.content) for m in other_system[:3]] == [
        ("system", "Another system message."),
        ("user", "Grasp the cup."),
        ("assistant", "grasp cup;"),
    ]
    assert [(m.role, m.content) for m in other_shots[:3]] == [
        ("system", SYSTEM),
        ("user", "Perceive."),
        ("assistant", "perceive;"),
    ]
    assert [(m.role, m.content) for m in base[:3]] == [
        ("system", SYSTEM),
        ("user", "Grasp the cup."),
        ("assistant", "grasp cup;"),
    ]
    zero = build_prompt(parts("Approach the door."))
    assert [(m.role, m.content) for m in zero] == [
        ("system", SYSTEM),
        ("user", "Approach the door."),
    ]


def test_list_shots_give_the_tuple_prompt():
    listed = PromptParts(SYSTEM, [["Grasp the cup.", "grasp cup;"]], "t")
    tupled = PromptParts(SYSTEM, (("Grasp the cup.", "grasp cup;"),), "t")
    assert listed.shots == tupled.shots
    assert build_prompt(listed) == build_prompt(tupled)
    assert len(build_prompt(listed)) == 4


def test_shot_with_empty_task_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="user message content must be non-empty"):
            PromptParts(SYSTEM, (("", "grasp cup;"),), "t")


def test_consecutive_tasks_keep_their_turns_apart():
    template = make_prompt_parts("t")
    transport = ScriptedTransport(["approach table", "approach table;", "forward 1;"])
    first = translate(
        replace(template, task="Approach the table."), CONFIG, 5, transport=transport
    )
    second = translate(
        replace(template, task="Move forward."), CONFIG, 5, transport=transport
    )
    assert first.passes == 2 and second.passes == 1
    first_turns = {m.content for m in first.transcript[25:]}
    second_request = transport.requests[2]
    assert len(second_request) == 26
    assert not first_turns & {m["content"] for m in second_request}
    assert second_request[-1] == {"role": "user", "content": "Move forward."}
    assert all(a is b for a, b in zip(first.transcript[:25], second.transcript[:25]))
