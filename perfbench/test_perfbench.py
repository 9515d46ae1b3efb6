"""Self-tests of the benchmark: seeded inputs are reproducible, every
reference rejects a wrong output, the repair-loop traffic has the intended
mix, and the traced run leaves rsl as it found it and fails when a traced
name is gone. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import importlib
import json

import pytest

import inputs
import run
from tracer import COUNTED, SPANS, Tracer


@pytest.fixture(scope="module")
def env():
    return run.load_env()


@pytest.fixture(scope="module")
def data():
    return inputs.load_data(run.SRC / "rsl" / "data")


def _smallest(workload):
    return min(workload.cases, key=workload.size)


@pytest.mark.parametrize(
    "make", [inputs.compile_cases, inputs.broken_cases, inputs.repair_cases]
)
def test_same_seed_gives_identical_inputs(make, data):
    def serialize(cases):
        return json.dumps([c.__dict__ for c in cases], sort_keys=True).encode("utf-8")

    assert serialize(make(7, data)) == serialize(make(7, data))
    assert serialize(make(7, data)) != serialize(make(8, data))


def test_compile_reference_rejects_wrong_outputs(env, data):
    workload = run.CompileLong(env, data, seed=3)
    item = _smallest(workload)
    output, _ = workload.op(item)
    assert workload.verdict(item, output) == "ok"
    checked, code, outcome, state, jsonl = output
    program = checked.program
    shorter = dataclasses.replace(checked, program=dataclasses.replace(
        program, statements=program.statements[:-1]))
    moved = dataclasses.replace(state, x=state.x + 0.5)
    wrong_outputs = [
        (shorter, code, outcome, state, jsonl),
        (checked, code.replace("(", "( ", 1), outcome, state, jsonl),
        (checked, code, outcome, moved, jsonl),
        (checked, code, outcome, state, jsonl + jsonl.splitlines()[-1] + "\n"),
    ]
    for wrong in wrong_outputs:
        assert workload.verdict(item, wrong) == "wrong"


def test_sim_error_kind_is_checked(env, data):
    workload = run.CompileLong(env, data, seed=3)
    failing = [item for item in workload.cases if item[4][0] != "ok"]
    assert len(failing) == round(inputs.PROGRAMS_PER_CYCLE * inputs.SIM_ERROR_SHARE)
    item = min(failing, key=workload.size)
    checked, code, outcome, state, jsonl = workload.op(item)[0]
    assert workload.verdict(item, (checked, code, outcome, state, jsonl)) == "ok"
    assert workload.verdict(item, (checked, code, state, state, jsonl)) == "wrong"


def test_broken_reference_rejects_wrong_outputs(env, data):
    workload = run.CheckBroken(env, data, seed=3)
    item = _smallest(workload)
    (checked, feedback), _ = workload.op(item)
    assert workload.verdict(item, (checked, feedback)) == "ok"
    assert len(checked.diagnostics) >= 2
    swapped = dataclasses.replace(checked, diagnostics=checked.diagnostics[::-1])
    assert workload.verdict(item, (swapped, feedback)) == "wrong"
    assert workload.verdict(item, (checked, feedback + "\n")) == "wrong"


def test_broken_programs_inject_every_category(data):
    found = {c for case in inputs.broken_cases(3, data) for c, _, _ in case.expected}
    assert found == set(inputs.CATEGORIES)


def test_repair_reference_rejects_wrong_outputs(env, data):
    workload = run.RepairLoop(env, data, seed=3)
    for item in workload.cases:
        case = item[1]
        result, _ = workload.op(item)
        verdict = workload.verdict(item, result)
        # Only the single-line fence that the extractor misses may fail,
        # and only as that known defect.
        assert verdict == "ok" or (verdict == "known-defect" and case.final_shape == "inline_fence")
        if verdict == "ok":
            for wrong in (
                dataclasses.replace(result, passes=result.passes + 1),
                dataclasses.replace(result, success=not result.success),
                dataclasses.replace(result, accurate=not result.accurate),
            ):
                assert workload.verdict(item, wrong) == "wrong"


def test_traced_run_leaves_rsl_unpatched(env, data):
    names = [(m, a) for m, a, _, _ in SPANS] + [(m, a) for m, a, _ in COUNTED]
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in names}
    send = run.StandInModel.send
    workload = run.RepairLoop(env, data, seed=3)
    tracer = Tracer()
    with tracer.installed(workload.extra_spans):
        assert importlib.import_module("rsl.parser").lex is not before[("rsl.parser", "lex")]
        run.measure(workload, 0.0, run.make_calibration(data), tracer)
    assert {k: getattr(importlib.import_module(k[0]), k[1]) for k in names} == before
    assert run.StandInModel.send is send
    metrics = tracer.layer_metrics()
    assert metrics["parser.check_calls_per_op"] > 1
    assert metrics["llm.complete.calls_per_op"] >= 1

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("op failed")
    assert {k: getattr(importlib.import_module(k[0]), k[1]) for k in names} == before


def test_repair_traffic_mix(data):
    cases = inputs.repair_cases(3, data)
    assert len(cases) == inputs.ROUNDS * len(data.task_texts)
    passes = [case.expected[2] for case in cases]
    assert 1.2 <= sum(passes) / len(passes) <= 1.4
    verified = sum(case.expected[0] for case in cases)
    assert verified == inputs.ROUNDS * (len(data.task_texts) - 1)
    assert sum(case.final_shape == "inline_fence" for case in cases) == 36
    # Every task meets every count of broken replies once.
    for task in data.task_texts:
        counts = sorted(case.broken_count for case in cases if case.task == task)
        assert counts == sorted(inputs.ROUND_BROKEN_COUNTS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_records_every_required_span(name, env, data):
    workload = run.WORKLOADS[name](env, data, seed=3)
    workload.cases = sorted(workload.cases, key=workload.size)[:run.MIN_OPS]
    if name == "repair-loop":
        # A task with broken replies, so feedback and render run.
        workload.cases = [item for item in workload.cases if item[1].broken_count][:5]
    else:
        workload.cases = workload.cases[:5]
    tracer = Tracer()
    with tracer.installed(workload.extra_spans):
        for item in workload.cases:
            tracer.begin_op(workload.size(item))
            workload.op(item)
    calls = tracer.call_counts()
    assert [n for n in workload.required_spans if not calls[n]] == []


def test_missing_traced_name_is_an_error(env, monkeypatch):
    monkeypatch.delattr(importlib.import_module("rsl.parser"), "lex")
    with pytest.raises(RuntimeError, match="rsl.parser.lex"):
        with Tracer().installed():
            pass


def test_setup_runs_in_a_fresh_interpreter():
    (seconds,) = run.setup_times(1)
    assert 0 < seconds < 60
