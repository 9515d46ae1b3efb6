import copy
import json
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsl

from rsl import (
    DatasetError,
    FailFirstTransport,
    ModelConfig,
    Number,
    OracleTransport,
    RobotState,
    ScriptedTransport,
    SimError,
    TaskExpectation,
    UnknownObject,
    World,
    check,
    default_world,
    evaluate,
    evaluate_accuracy,
    load_default_tasks,
    load_tasks,
    make_prompt_parts,
    report_to_csv,
    report_to_json,
    run,
)
from rsl.harness import GROUP_SIZES, _match_action
from rsl.syntax import IDENTIFIER, render_program

from support import KEYWORD_LIST, random_program, reference_match_action

CONFIG = ModelConfig(base_url="http://offline.invalid", model_name="offline")


def template(zero_shot=True):
    return make_prompt_parts("placeholder", zero_shot=zero_shot)


def write_dataset(tmp_path, records):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def default_records():
    return [
        {
            "id": t.id,
            "group": t.group,
            "text": t.text,
            "expectation": {"predicates": [dict(p) for p in t.expectation.predicates]},
        }
        for t in load_default_tasks()
    ]


def test_shipped_dataset_loads():
    tasks = load_default_tasks()
    assert len(tasks) == 25
    by_group = {g: 0 for g in GROUP_SIZES}
    for t in tasks:
        by_group[t.group] += 1
    assert by_group == GROUP_SIZES


def test_count_mismatch_rejected(tmp_path):
    records = default_records()[:-1]
    with pytest.raises(DatasetError, match="expected 25"):
        load_tasks(write_dataset(tmp_path, records))


def test_duplicate_id_rejected(tmp_path):
    records = default_records()
    records[1]["id"] = records[0]["id"]
    with pytest.raises(DatasetError, match="duplicate"):
        load_tasks(write_dataset(tmp_path, records))


def test_unknown_group_rejected(tmp_path):
    records = default_records()
    records[0]["group"] = "weird"
    with pytest.raises(DatasetError, match="group"):
        load_tasks(write_dataset(tmp_path, records))


def with_predicate(pred):
    """The dataset with the first task's predicates replaced by pred."""
    def change(records):
        records[0]["expectation"]["predicates"] = [pred]
        return records
    return change


def with_first_task(**fields):
    """The dataset with fields of the first task set, or deleted where None."""
    def change(records):
        for name, value in fields.items():
            if value is None:
                del records[0][name]
            else:
                records[0][name] = value
        return records
    return change


# Each mistaken predicate, and a pattern its error matches. In the first task,
# s01, a mistyped field is named with the task and the predicate's kind.
BAD_PREDICATES = {
    "telepathy": ({"kind": "telepathy"}, "telepathy"),
    "kind-unhashable": ({"kind": ["held"]}, "unknown predicate kind"),
    "no-kind": ({"actions": []}, "predicate must be an object with a kind"),
    "not-an-object": ("held", "predicate must be an object with a kind"),
    "missing-field": ({"kind": "pose", "x": 0, "y": 0}, "pose predicate needs 'tol'"),
    "min-count-null": (
        {"kind": "looks", "min_count": None},
        "task s01: looks predicate field 'min_count' must be an integer",
    ),
    "min-count-bool": ({"kind": "looks", "min_count": True}, "looks predicate field 'min_count'"),
    "min-count-float": ({"kind": "looks", "min_count": 1.5}, "looks predicate field 'min_count'"),
    "actions-number": (
        {"kind": "sequence", "actions": [5]},
        "task s01: sequence predicate field 'actions' must be a list of non-blank strings",
    ),
    "actions-blank": (
        {"kind": "subsequence", "actions": [" "]}, "subsequence predicate field 'actions'",
    ),
    "actions-string": (
        {"kind": "sequence", "actions": "forward 1"}, "sequence predicate field 'actions'",
    ),
    "keywords-number": (
        {"kind": "only_keywords", "keywords": 5},
        "task s01: only_keywords predicate field 'keywords' must be a list of strings",
    ),
    "keywords-null-item": (
        {"kind": "only_keywords", "keywords": ["forward", None]},
        "only_keywords predicate field 'keywords'",
    ),
    "min-string": (
        {"kind": "single_forward_in", "min": "0", "max": 1},
        "task s01: single_forward_in predicate field 'min' must be a finite number",
    ),
    "max-bool": (
        {"kind": "total_rotation", "min": 0, "max": True}, "total_rotation predicate field 'max'",
    ),
    "x-string": (
        {"kind": "pose", "x": "1", "y": 0, "tol": 0.1},
        "task s01: pose predicate field 'x' must be a finite number",
    ),
    "x-nan": ({"kind": "pose", "x": float("nan"), "y": 0, "tol": 0.1}, "pose predicate field 'x'"),
    "y-too-large-for-a-float": (
        {"kind": "pose", "x": 0, "y": 10**400, "tol": 0.1}, "pose predicate field 'y'",
    ),
    "tol-negative": (
        {"kind": "pose", "x": 0, "y": 0, "tol": -0.1},
        "pose predicate field 'tol' must be a finite number >= 0",
    ),
    "tol-infinite": (
        {"kind": "sequence", "actions": ["perceive"], "tol": float("inf")},
        "sequence predicate field 'tol'",
    ),
    "object-number": (
        {"kind": "held", "object": 5}, "task s01: held predicate field 'object' must be a string",
    ),
    "exclusive-string": (
        {"kind": "single_forward_in", "min": 0, "max": 1, "min_exclusive": "yes"},
        "task s01: single_forward_in predicate field 'min_exclusive' must be a boolean",
    ),
    # Fields the kind does not read, and keywords that are not keywords.
    "field-misspelt": (
        {"kind": "single_forward_in", "min": 1, "max": 2, "max_exclusve": True},
        "task s01: single_forward_in predicate does not take a field 'max_exclusve'",
    ),
    "tol-on-held": (
        {"kind": "held", "object": "cup", "tol": 5}, "held predicate does not take a field 'tol'",
    ),
    "exclusive-on-total-rotation": (
        {"kind": "total_rotation", "min": 0, "max": 1, "min_exclusive": True},
        "total_rotation predicate does not take a field 'min_exclusive'",
    ),
    "keyword-case-variant": (
        {"kind": "only_keywords", "keywords": ["Forward"]},
        "task s01: only_keywords predicate keyword 'Forward' is not a keyword",
    ),
    "keyword-unknown": (
        {"kind": "only_keywords", "keywords": ["forward", "move"]}, "keyword 'move' is not",
    ),
    # Action patterns no statement can match.
    "action-nan": (
        {"kind": "sequence", "actions": ["forward nan"]},
        "task s01: sequence predicate action 'forward nan' can match no statement",
    ),
    "action-NaN": ({"kind": "sequence", "actions": ["forward NaN"]}, "action 'forward NaN'"),
    "action-inf": (
        {"kind": "subsequence", "actions": ["perceive", "turnleft inf"]},
        "subsequence predicate action 'turnleft inf' can match no statement",
    ),
    "action-misspelt": ({"kind": "sequence", "actions": ["fowrard 3"]}, "action 'fowrard 3'"),
    "action-no-args": ({"kind": "sequence", "actions": ["forward"]}, "action 'forward'"),
    "action-extra-arg": ({"kind": "sequence", "actions": ["forward 3 4"]}, "action 'forward 3 4'"),
    "action-object-for-number": (
        {"kind": "sequence", "actions": ["forward cup"]}, "action 'forward cup'",
    ),
    "action-number-for-object": ({"kind": "sequence", "actions": ["grasp 5"]}, "action 'grasp 5'"),
    "action-comma": ({"kind": "sequence", "actions": ["goto 1, 2"]}, "action 'goto 1, 2'"),
}
# Each mistake in a dataset, and a pattern its error matches.
BAD_DATASETS = {
    **{name: (with_predicate(pred), message) for name, (pred, message) in BAD_PREDICATES.items()},
    "dataset-not-a-list": (lambda records: {"tasks": records}, "dataset must be a JSON list"),
    "task-not-an-object": (
        lambda records: [["s01"], *records[1:]], "each task must be a JSON object",
    ),
    "id-not-a-string": (with_first_task(id=1), "each task needs a non-empty string id"),
    "no-id": (with_first_task(id=None), "each task needs a non-empty string id"),
    "no-text": (with_first_task(text=None), "task s01: needs a non-empty text"),
    "empty-text": (with_first_task(text=""), "task s01: needs a non-empty text"),
    "blank-text": (with_first_task(text="   "), "task s01: needs a non-empty text"),
    "group-a-list": (with_first_task(group=[]), "task s01: unknown group []"),
    "group-an-object": (with_first_task(group={}), "task s01: unknown group {}"),
    "no-expectation": (with_first_task(expectation=None), "task s01: needs an expectation"),
    "no-predicates-list": (with_first_task(expectation={}), "task s01: needs an expectation"),
    "task-notes": (with_first_task(notes="draft"), "task s01 does not take a key 'notes'"),
    "task-predicates": (with_first_task(predicates=[]), "task s01 does not take a key 'predicates'"),
    "expectation-predicatez": (
        with_first_task(expectation={"predicates": [{"kind": "perceived"}], "predicatez": []}),
        "task s01: expectation does not take a key 'predicatez'",
    ),
}


@pytest.mark.parametrize("change, message", BAD_DATASETS.values(), ids=BAD_DATASETS.keys())
def test_bad_predicate_rejected(tmp_path, change, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_tasks(write_dataset(tmp_path, change(default_records())))


@pytest.mark.parametrize("field", ["id", "group", "text", "expectation"])
def test_any_json_value_in_a_task_field_is_a_dataset_error(tmp_path, field):
    # Any other exception would leave the CLI as a traceback, not exit 2.
    for value in ([], {}, None, 1, True, ""):
        records = default_records()
        records[0][field] = value
        with pytest.raises(DatasetError):
            load_tasks(write_dataset(tmp_path, records))


@pytest.mark.parametrize("pred, message", BAD_PREDICATES.values(), ids=BAD_PREDICATES.keys())
def test_hand_built_expectation_rejected(pred, message):
    # No loader: the type checks itself, and only the loader names the task.
    with pytest.raises(DatasetError, match=re.escape(message.removeprefix("task s01: "))):
        TaskExpectation((pred,))


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{', ", encoding="utf-8")
    with pytest.raises(DatasetError, match="JSON"):
        load_tasks(path)
    with pytest.raises(DatasetError):
        load_tasks(tmp_path / "missing.json")
    # An integer past the int-to-str digit limit makes json raise ValueError.
    path.write_text("[" + "1" * 5000 + "]", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_tasks(path)


def test_non_utf8_dataset_rejected(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"id": "caf\xe9"}]')
    with pytest.raises(DatasetError, match="cannot read dataset"):
        load_tasks(path)


# A key given twice in one object of a dataset: (dataset change, the text
# the second key goes after, the key).
DUPLICATED_KEYS = {
    "task-entry": (lambda records: records, '"id": "s01"', "id"),
    "predicate": (with_predicate({"kind": "held", "object": "plate"}), '"object": "plate"', "object"),
}


@pytest.mark.parametrize("change, first, key", DUPLICATED_KEYS.values(), ids=DUPLICATED_KEYS.keys())
def test_dataset_with_a_duplicate_key_is_refused(tmp_path, change, first, key):
    path = write_dataset(tmp_path, change(default_records()))
    text = path.read_text(encoding="utf-8")
    assert text.count(first) == 1
    path.write_text(text.replace(first, f'{first}, "{key}": "x"'), encoding="utf-8")
    message = f"^cannot read dataset {re.escape(str(path))}: duplicate key '{key}' in dataset$"
    with pytest.raises(DatasetError, match=message):
        load_tasks(path)


@pytest.mark.parametrize("name, content", [
    ("missing.json", None), ("latin1.json", b"\xff"), ("truncated.json", b"["),
    ("not-a-list.json", b'{"tasks": []}'),
])
def test_dataset_file_errors_name_the_file(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DatasetError, match=name):
        load_tasks(path)


def test_every_oracle_program_verifies_and_is_accurate():
    world = default_world()
    programs = OracleTransport().programs
    for task in load_default_tasks():
        assert task.text in programs, task.id
        outcome = check(programs[task.text])
        assert not outcome.diagnostics, task.id
        assert len(outcome.program.statements) >= 1, task.id
        result = run(outcome.program, world)
        assert evaluate_accuracy(result, task.expectation), task.id


def test_oracle_evaluation_is_perfect():
    report = evaluate(
        load_default_tasks(), CONFIG, template(), default_world(),
        max_passes=5, transport=OracleTransport(),
    )
    assert report.success_count == 25
    assert report.accurate_count == 25
    assert report.mean_pass == 1.0
    assert report.success_rate == 1.0
    assert report.accuracy == 1.0


@pytest.mark.parametrize(
    "tasks, parallelism, message",
    [([], 1, "tasks must be non-empty"), (None, 0, "parallelism must be >= 1")],
    ids=["no-tasks", "parallelism-0"],
)
def test_evaluate_rejects_bad_arguments(tasks, parallelism, message):
    tasks = load_default_tasks() if tasks is None else tasks
    with pytest.raises(ValueError, match=message):
        evaluate(tasks, CONFIG, template(), default_world(), transport=OracleTransport(),
                 parallelism=parallelism)


def test_fail_first_needs_the_feedback_pass():
    tasks = load_default_tasks()
    world = default_world()
    one = evaluate(tasks, CONFIG, template(), world, max_passes=1,
                   transport=FailFirstTransport())
    assert one.success_count == 0
    assert one.accurate_count == 0
    assert one.mean_pass == 1.0
    two = evaluate(tasks, CONFIG, template(), world, max_passes=2,
                   transport=FailFirstTransport())
    assert two.success_count == 25
    assert two.accurate_count == 25
    assert two.mean_pass == 2.0


def test_accurate_implies_success():
    report = evaluate(
        load_default_tasks(), CONFIG, template(), default_world(),
        max_passes=2, transport=FailFirstTransport(),
    )
    for row in report.per_task:
        assert not row.accurate or row.success


def test_report_rows_sorted_and_deterministic():
    tasks = load_default_tasks()
    world = default_world()
    a = evaluate(tasks, CONFIG, template(), world, transport=OracleTransport())
    b = evaluate(tasks, CONFIG, template(), world, transport=OracleTransport())
    assert report_to_json(a) == report_to_json(b)
    assert report_to_csv(a) == report_to_csv(b)
    ids = [row.id for row in a.per_task]
    assert ids == sorted(ids)


def test_parallel_evaluation_matches_serial():
    tasks = load_default_tasks()
    world = default_world()
    serial = evaluate(tasks, CONFIG, template(), world, transport=OracleTransport())
    parallel = evaluate(
        tasks, CONFIG, template(), world, transport=OracleTransport(), parallelism=4
    )
    assert report_to_json(serial) == report_to_json(parallel)


def test_csv_shape():
    report = evaluate(
        load_default_tasks(), CONFIG, template(), default_world(),
        transport=OracleTransport(),
    )
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0] == "id,group,success,accurate,passes"
    assert len(lines) == 26
    assert lines[1].startswith("a01,ambiguous,true,true,1")


def test_transport_failure_recorded_not_raised():
    # One reply, then exhaustion: the first task may or may not verify, and
    # every later task records a failure with pass = max_passes.
    transport = ScriptedTransport(["nonsense"])
    report = evaluate(
        load_default_tasks(), CONFIG, template(), default_world(),
        max_passes=3, transport=transport,
    )
    assert report.total == 25
    failed = [row for row in report.per_task if row.error]
    assert failed
    for row in failed:
        assert not row.success
        assert row.passes == 3


def test_diagnostics_history_in_report_json():
    report = evaluate(
        load_default_tasks(), CONFIG, template(), default_world(),
        max_passes=2, transport=FailFirstTransport(),
    )
    doc = json.loads(report_to_json(report))
    first = doc["per_task"][0]
    assert first["passes"] == 2
    assert len(first["diagnostics_history"]) == 2
    assert first["diagnostics_history"][0]
    assert first["diagnostics_history"][1] == []


def trace_state(source, world=None):
    outcome = check(source)
    assert not outcome.diagnostics
    result = run(outcome.program, world or default_world())
    return result


def test_accuracy_sequence_predicate():
    expectation = TaskExpectation(({"kind": "sequence", "actions": ["approach door"]},))
    assert evaluate_accuracy(trace_state("approach door;"), expectation)
    assert not evaluate_accuracy(trace_state("approach table;"), expectation)
    assert not evaluate_accuracy(trace_state("approach door; perceive;"), expectation)


def test_accuracy_parameter_match():
    expectation = TaskExpectation(({"kind": "sequence", "actions": ["forward 5"]},))
    assert evaluate_accuracy(trace_state("forward 5;"), expectation)
    assert not evaluate_accuracy(trace_state("forward 4;"), expectation)


def test_accuracy_sim_error_is_false():
    error = run(check("grasp door;").program, default_world())
    assert not isinstance(error, RobotState)
    anything = TaskExpectation(())
    assert not evaluate_accuracy(error, anything)
    missing = run(check("approach ghost;").program, default_world())
    assert isinstance(missing, UnknownObject)
    assert not evaluate_accuracy(missing, anything)


def test_accuracy_subsequence_and_flags():
    expectation = TaskExpectation(
        (
            {"kind": "subsequence", "actions": ["forward 2", "grasp banana"]},
            {"kind": "held", "object": "banana"},
        )
    )
    assert evaluate_accuracy(
        trace_state("forward 2; grasp banana; turnleft 1;"), expectation
    )
    assert not evaluate_accuracy(trace_state("forward 2;"), expectation)


def test_accuracy_single_forward_range():
    expectation = TaskExpectation(
        ({"kind": "single_forward_in", "min": 0, "max": 1, "min_exclusive": True},)
    )
    assert evaluate_accuracy(trace_state("forward 0.5;"), expectation)
    assert evaluate_accuracy(trace_state("forward 1;"), expectation)
    assert not evaluate_accuracy(trace_state("forward 1.2;"), expectation)
    assert not evaluate_accuracy(trace_state("forward 0.2; forward 0.2;"), expectation)


def test_accuracy_pose_predicate_opt_in():
    expectation = TaskExpectation(({"kind": "pose", "x": 0, "y": 0, "tol": 1e-6},))
    assert evaluate_accuracy(trace_state("forward 1; goto 0, 0;"), expectation)
    assert not evaluate_accuracy(trace_state("forward 1;"), expectation)


def test_accuracy_wildcard_args():
    expectation = TaskExpectation(
        ({"kind": "subsequence", "actions": ["turnright *", "look* *"]},)
    )
    assert evaluate_accuracy(
        trace_state("turnright 2.2; lookup 0.4;"), expectation
    )
    assert not evaluate_accuracy(trace_state("turnright 2.2;"), expectation)


def test_accuracy_nan_argument_matches_no_number():
    # "* nan" can match an object named nan, so it loads; no number equals it.
    expectation = TaskExpectation(({"kind": "sequence", "actions": ["* nan"]},))
    assert not evaluate_accuracy(trace_state("forward 3;"), expectation)


def test_expectation_cannot_change_after_the_check():
    looks = {"kind": "looks", "min_count": 1}
    expectation = TaskExpectation((looks, {"kind": "sequence", "actions": ["lookup 1"]}))
    looks["min_count"] = None
    with pytest.raises(TypeError):
        expectation.predicates[0]["min_count"] = None
    with pytest.raises(AttributeError):
        expectation.predicates[1]["actions"].append("perceive")
    assert evaluate_accuracy(trace_state("lookup 1;"), expectation)


def test_expectation_survives_replace_pickle_and_deepcopy():
    for task in load_default_tasks():
        expectation = task.expectation
        for copied in (
            pickle.loads(pickle.dumps(expectation)), copy.deepcopy(expectation),
            replace(expectation), TaskExpectation(expectation.predicates),
        ):
            assert copied == expectation


def test_unpickled_expectation_is_checked_again():
    looks = TaskExpectation(({"kind": "looks", "min_count": 1},))
    tampered = pickle.dumps(looks).replace(b"min_count", b"max_count")
    with pytest.raises(DatasetError, match="looks predicate does not take a field 'max_count'"):
        pickle.loads(tampered)


@st.composite
def action_globs(draw):
    """A keyword, misspelt or not, with some letters turned into globs."""
    keyword = draw(st.sampled_from([*KEYWORD_LIST, "fowrard", "look", "move"]))
    if draw(st.booleans()):
        return keyword
    return "".join(
        draw(st.sampled_from([ch, ch, "?", "*", f"[{ch}x]", "[a-m]", "[!o]"])) for ch in keyword
    )


_NUMERALS = st.one_of(
    st.integers(-12, 12).map(str),
    st.floats(-12, 12).map(lambda v: f"{v:.2f}"),
    st.sampled_from(["1e1", "+2", "2.50", "-0", "007", "1_0"]),
)


def _reads_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# Names float() reads (nan, inf, infinity) are left out: the old matcher let
# nan match any number, which test_accuracy_nan_argument_matches_no_number pins.
_NAMES = st.one_of(
    st.sampled_from(["cup", "door", "banana", "table"]),
    st.from_regex(IDENTIFIER, fullmatch=True).filter(lambda t: not _reads_as_float(t)),
)


@st.composite
def action_patterns(draw, trace):
    """A pattern over any glob and args, or one made from a trace record so
    that some patterns match."""
    if trace and draw(st.booleans()):
        statement = draw(st.sampled_from(trace)).statement
        args = [
            draw(st.sampled_from([
                "*", arg.raw, repr(arg.value + 0.004), repr(arg.value + 2)
            ])) if isinstance(arg, Number) else draw(st.sampled_from(["*", arg, arg + "x"]))
            for arg in statement.args
        ]
        glob = draw(st.sampled_from([statement.keyword, statement.keyword[:3] + "*", "*"]))
    else:
        glob = draw(action_globs())
        args = draw(st.lists(st.one_of(st.just("*"), _NUMERALS, _NAMES), max_size=3))
    return " ".join([glob, *args])


def checked_run(seed):
    """The state a checked program, an oracle one or a random one, reaches in
    a world that holds every object it names: the error's state on failure."""
    rng = random.Random(seed)
    oracle = sorted(OracleTransport().programs.values())
    source = rng.choice(oracle) if rng.random() < 0.3 else render_program(random_program(rng))
    outcome = check(source)
    assert not outcome.diagnostics
    names = {a for s in outcome.program.statements for a in s.args if isinstance(a, str)}
    world = World({**dict.fromkeys(names, (1.0, 0.0)), **default_world().objects})
    state = run(outcome.program, world)
    return state.state if isinstance(state, SimError) else state


def pattern_loads(pattern):
    try:
        TaskExpectation(({"kind": "subsequence", "actions": [pattern]},))
    except DatasetError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-6, 0.01, 0.5]))
def test_match_action_matches_reference(data, seed, tol):
    trace = checked_run(seed).trace
    for pattern in data.draw(st.lists(action_patterns(trace), min_size=1, max_size=8)):
        loads = pattern_loads(pattern)
        for record in trace:
            # A pattern refused when loaded is one no statement can match.
            matched = loads and _match_action(pattern, record, tol)
            assert matched == reference_match_action(pattern, record, tol), (
                pattern, record.statement,
            )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-6, 0.01, 0.5]))
def test_sequence_holds_when_each_record_matches_its_own_action(data, seed, tol):
    state = checked_run(seed)
    trace = state.trace
    # Mostly one pattern drawn from each record, so that some sequences hold.
    actions = [data.draw(action_patterns((record,))) for record in trace]
    actions = data.draw(st.sampled_from([
        actions, actions[1:], actions + [data.draw(action_patterns(trace))],
        data.draw(st.lists(action_patterns(trace), max_size=len(trace) + 1)),
    ]))
    actions = [a for a in actions if pattern_loads(a)]
    expectation = TaskExpectation(({"kind": "sequence", "actions": actions, "tol": tol},))
    expected = len(actions) == len(trace) and all(
        reference_match_action(a, r, tol) for a, r in zip(actions, trace)
    )
    assert evaluate_accuracy(state, expectation) == expected, (actions, trace)


SERIAL_EVAL_PROBE = """
import sys

import rsl

config = rsl.ModelConfig(base_url="http://offline.invalid", model_name="offline")
parts = rsl.make_prompt_parts("placeholder", zero_shot=True)
tasks = rsl.load_default_tasks()[:3]
report = rsl.evaluate(tasks, config, parts, rsl.default_world(), transport=rsl.OracleTransport())
assert report.success_count == 3
print(sorted(name for name in sys.modules if name.split(".")[0] == "concurrent"))
"""


def test_serial_evaluate_does_not_load_concurrent_futures():
    # A fresh interpreter: pytest has concurrent.futures loaded already.
    src = str(Path(rsl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", SERIAL_EVAL_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_parallel_feedback_turns_stay_per_task():
    # Every task needs one feedback pass, so each one extends a prompt that
    # starts with the 12-shot template's shared messages. The prefix cache
    # starts empty and threads switch often, so workers race to build it.
    tasks = load_default_tasks()
    world = default_world()
    serial = evaluate(tasks, CONFIG, template(zero_shot=False), world,
                      max_passes=2, transport=FailFirstTransport())
    rsl.orchestrator._prompt_prefix.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = evaluate(tasks, CONFIG, template(zero_shot=False), world,
                            max_passes=2, transport=FailFirstTransport(), parallelism=4)
    finally:
        sys.setswitchinterval(interval)
    assert serial.success_count == 25 and serial.mean_pass == 2.0
    assert report_to_json(parallel) == report_to_json(serial)
