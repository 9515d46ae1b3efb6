import json

import pytest

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


def test_bad_predicate_rejected(tmp_path):
    records = default_records()
    records[0]["expectation"]["predicates"] = [{"kind": "telepathy"}]
    with pytest.raises(DatasetError, match="telepathy"):
        load_tasks(write_dataset(tmp_path, records))


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{', ", encoding="utf-8")
    with pytest.raises(DatasetError, match="JSON"):
        load_tasks(path)
    with pytest.raises(DatasetError):
        load_tasks(tmp_path / "missing.json")


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
