import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rsl

from rsl import (
    DatasetError,
    FailFirstTransport,
    ModelConfig,
    OracleTransport,
    RobotState,
    ScriptedTransport,
    TaskExpectation,
    UnknownObject,
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
from rsl.harness import GROUP_SIZES, _load_oracle_programs

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
    "no-expectation": (with_first_task(expectation=None), "task s01: needs an expectation"),
    "no-predicates-list": (with_first_task(expectation={}), "task s01: needs an expectation"),
}


@pytest.mark.parametrize("change, message", BAD_DATASETS.values(), ids=BAD_DATASETS.keys())
def test_bad_predicate_rejected(tmp_path, change, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_tasks(write_dataset(tmp_path, change(default_records())))


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
    programs = _load_oracle_programs()
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
