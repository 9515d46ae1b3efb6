import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rsl
from rsl.cli import main


@pytest.fixture
def no_model_env(monkeypatch):
    for var in ("RSL_API_KEY", "RSL_BASE_URL", "RSL_MODEL"):
        monkeypatch.delenv(var, raising=False)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_ok_is_silent(tmp_path, capsys):
    path = write(tmp_path, "ok.rsl", "perceive;")
    assert main(["check", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


@pytest.mark.parametrize("text", ["", "// nothing to do\n"], ids=["empty", "comment-only"])
def test_check_of_a_program_with_no_statement_is_clean(tmp_path, capsys, text):
    # An empty program is valid; only translate asks for a statement.
    assert main(["check", write(tmp_path, "empty.rsl", text)]) == 0
    assert capsys.readouterr() == ("", "")


def test_check_reports_command_error(tmp_path, capsys):
    path = write(tmp_path, "bad.rsl", "move 1.5;")
    assert main(["check", path]) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines == [
        "Line 1: The command (keyword) is illegal. Near token 'move'."
    ]


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.rsl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_json_output(tmp_path, capsys):
    path = write(tmp_path, "bad.rsl", "goto 1;")
    assert main(["check", "--json", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["diagnostics"][0]["category"] == "Quantity"


@pytest.mark.parametrize("command", ["compile", "run"])
def test_compile_and_run_report_diagnostics_as_check_json_does(tmp_path, capsys, command):
    path = write(tmp_path, "bad.rsl", "goto 1;")
    assert main(["check", "--json", path]) == 1
    expected = capsys.readouterr().out
    assert main([command, "--json", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_compile_writes_output(tmp_path, capsys):
    source = write(tmp_path, "ok.rsl", "forward 1.5;\ngrasp cup;")
    out_path = tmp_path / "control.py"
    assert main(["compile", source, "-o", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    assert "forward(1.5)" in text
    assert 'grasp("cup")' in text


@pytest.mark.parametrize("flags", [[], ["--json"], ["--json", "-o", "OUT"]],
                         ids=["stdout", "json", "json-output"])
def test_compile_output_forms(tmp_path, capsys, flags):
    source = write(tmp_path, "ok.rsl", "forward 1.5;\ngrasp cup;")
    out_path = str(tmp_path / "control.py")
    emitted = rsl.generate(rsl.check("forward 1.5;\ngrasp cup;").program, rsl.default_manifest())
    assert main(["compile", source, *(out_path if f == "OUT" else f for f in flags)]) == 0
    out = capsys.readouterr().out
    if not flags:
        assert out == emitted
    elif "-o" in flags:
        assert json.loads(out) == {"ok": True, "output": out_path}
        assert Path(out_path).read_text(encoding="utf-8") == emitted
    else:
        assert json.loads(out) == {"ok": True, "program": emitted}


def test_compile_refuses_on_diagnostics(tmp_path, capsys):
    source = write(tmp_path, "bad.rsl", "approach table")
    out_path = tmp_path / "control.py"
    assert main(["compile", source, "-o", str(out_path)]) == 1
    assert not out_path.exists()
    assert "semicolon" in capsys.readouterr().err


def test_compile_rejects_bad_manifest(tmp_path, capsys):
    source = write(tmp_path, "ok.rsl", "perceive;")
    manifest = write(tmp_path, "manifest.json", json.dumps({"bindings": {}}))
    assert main(["compile", source, "--manifest", manifest]) == 2
    assert "missing bindings" in capsys.readouterr().err


def test_check_and_compile_agree(tmp_path, capsys):
    cases = ["perceive;", "goto 1, 2;", "move 1;", "forward -2;", "approach table"]
    for index, source_text in enumerate(cases):
        source = write(tmp_path, f"case{index}.rsl", source_text)
        check_code = main(["check", source])
        compile_code = main(["compile", source, "-o", str(tmp_path / f"out{index}.py")])
        assert (check_code == 0) == (compile_code == 0), source_text
    capsys.readouterr()


def test_run_prints_summary_and_trace(tmp_path, capsys):
    source = write(tmp_path, "go.rsl", "goto 3, 4;")
    assert main(["run", source]) == 0
    out = capsys.readouterr().out
    assert "position: (3, 4)" in out
    trace_path = tmp_path / "go.rsl.trace.jsonl"
    assert trace_path.exists()
    assert len(trace_path.read_text().strip().splitlines()) == 1


def test_run_trace_line_per_statement(tmp_path, capsys):
    source = write(tmp_path, "multi.rsl", "forward 1; turnleft 0.5; perceive;")
    trace_path = tmp_path / "t.jsonl"
    assert main(["run", source, "--trace", str(trace_path)]) == 0
    assert len(trace_path.read_text().strip().splitlines()) == 3
    capsys.readouterr()


def test_run_reports_unknown_object(tmp_path, capsys):
    source = write(tmp_path, "bad.rsl", "grasp ghost;")
    assert main(["run", source]) == 1
    assert "UnknownObject" in capsys.readouterr().err


def test_run_json_reports_unknown_object(tmp_path, capsys):
    source = write(tmp_path, "bad.rsl", "forward 1; perceive; grasp ghost;")
    assert main(["run", "--json", source]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["error_kind"] == "UnknownObject"
    assert "ghost" in doc["error"]
    assert doc["executed"] == 2
    assert doc["trace"] == source + ".trace.jsonl"
    assert len(Path(doc["trace"]).read_text(encoding="utf-8").splitlines()) == 2


def test_run_json_keys_and_pose(tmp_path, capsys):
    source = write(tmp_path, "go.rsl", "goto 3, 4; lookleft 0.5; perceive;")
    assert main(["run", "--json", source]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "ok", "error", "error_kind", "x", "y", "heading", "cam_pan", "cam_tilt", "held",
        "perceived", "executed", "trace",
    ]
    assert doc == {
        "ok": True, "error": None, "error_kind": None, "x": 3.0, "y": 4.0, "heading": 0.0,
        "cam_pan": 0.5, "cam_tilt": 0.0, "held": None, "perceived": True, "executed": 3,
        "trace": source + ".trace.jsonl",
    }


def test_run_rejects_unverified_source(tmp_path, capsys):
    source = write(tmp_path, "bad.rsl", "forward 0;")
    assert main(["run", source]) == 1
    assert "Parameter" in capsys.readouterr().err or "invalid" in capsys.readouterr().err


def test_translate_with_scripted_backend(tmp_path, capsys):
    responses = write(tmp_path, "responses.json", json.dumps(["forward 1;"]))
    code = main(
        ["translate", "Move forward 1 meter.", "--backend", "scripted",
         "--responses", responses]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "forward 1;" in out
    assert "passes: 1" in out


def test_translate_pass_count_matches_loop(tmp_path, capsys):
    responses = write(
        tmp_path, "responses.json", json.dumps(["approach table", "approach table;"])
    )
    code = main(
        ["translate", "Approach the table.", "--backend", "scripted",
         "--responses", responses, "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["passes"] == 2
    assert doc["program"] == "approach table;"


def test_translate_exhaustion_exit_one(tmp_path, capsys):
    responses = write(tmp_path, "responses.json", json.dumps(["move 1;", "move 1;"]))
    code = main(
        ["translate", "task", "--backend", "scripted", "--responses", responses,
         "--max-passes", "2"]
    )
    assert code == 1
    assert "not verified after 2" in capsys.readouterr().err


def test_translate_of_a_reply_with_no_statement_exits_one(tmp_path, capsys):
    responses = write(tmp_path, "responses.json", json.dumps(["// nothing to do"]))
    code = main(
        ["translate", "Approach the door.", "--backend", "scripted", "--responses", responses,
         "--max-passes", "1"]
    )
    assert code == 1
    # No diagnostic to print, so the one line says why the reply was refused.
    assert capsys.readouterr().err.splitlines() == [
        "The previously generated program had no statement.", "not verified after 1 pass(es)",
    ]


def test_translate_zero_shot_prompt_shape(tmp_path, capsys):
    responses = write(tmp_path, "responses.json", json.dumps(["forward 1;"]))
    transcript = tmp_path / "transcript.json"
    code = main(
        ["translate", "task", "--backend", "scripted", "--responses", responses,
         "--zero-shot", "--transcript", str(transcript)]
    )
    assert code == 0
    doc = json.loads(transcript.read_text())
    assert [m["role"] for m in doc] == ["system", "user", "assistant"]
    capsys.readouterr()


def test_translate_with_shots_prompt_shape(tmp_path, capsys):
    responses = write(tmp_path, "responses.json", json.dumps(["forward 1;"]))
    transcript = tmp_path / "transcript.json"
    code = main(
        ["translate", "task", "--backend", "scripted", "--responses", responses,
         "--transcript", str(transcript)]
    )
    assert code == 0
    doc = json.loads(transcript.read_text())
    assert len(doc) == 1 + 24 + 1 + 1  # system, 12 shot pairs, task, reply
    capsys.readouterr()


def test_translate_compile_to(tmp_path, capsys):
    responses = write(tmp_path, "responses.json", json.dumps(["goto 2, 3;"]))
    out_path = tmp_path / "control.py"
    code = main(
        ["translate", "task", "--backend", "scripted", "--responses", responses,
         "--compile-to", str(out_path)]
    )
    assert code == 0
    assert "goto(2, 3)" in out_path.read_text()
    capsys.readouterr()


def test_translate_missing_api_key_exits_three(no_model_env, capsys):
    code = main(
        ["translate", "task", "--base-url", "http://example.invalid", "--model", "m"]
    )
    assert code == 3
    assert "RSL_API_KEY" in capsys.readouterr().err


def test_translate_missing_endpoint_exits_three(no_model_env, capsys):
    assert main(["translate", "task"]) == 3
    capsys.readouterr()


def test_scripted_backend_requires_responses(capsys):
    assert main(["translate", "task", "--backend", "scripted"]) == 2
    assert "--responses" in capsys.readouterr().err


def test_translate_empty_task_is_input_error(capsys):
    assert main(["translate", "  ", "--backend", "oracle"]) == 2
    assert "task" in capsys.readouterr().err


def test_eval_rejects_nonpositive_max_passes(capsys):
    assert main(["eval", "--backend", "oracle", "--max-passes", "0"]) == 2
    capsys.readouterr()


def test_eval_with_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--backend", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "success rate: 25/25" in out
    assert "accuracy: 25/25" in out
    assert "mean pass: 1.00" in out
    csv_lines = (tmp_path / "eval_report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 26
    doc = json.loads((tmp_path / "eval_report.json").read_text())
    assert doc["success_count"] == 25


def test_eval_one_pass_ablation(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--backend", "oracle-fail-first", "--max-passes", "1"]) == 0
    out = capsys.readouterr().out
    assert "success rate: 0/25" in out
    csv_lines = (tmp_path / "eval_report.csv").read_text().strip().splitlines()
    assert all(line.endswith(",1") for line in csv_lines[1:])

    assert main(["eval", "--backend", "oracle-fail-first", "--max-passes", "2"]) == 0
    out = capsys.readouterr().out
    assert "success rate: 25/25" in out
    assert "mean pass: 2.00" in out


def test_eval_rejects_bad_dataset(tmp_path, capsys):
    dataset = write(tmp_path, "tasks.json", json.dumps([{"id": "x"}]))
    assert main(["eval", "--backend", "oracle", "--dataset", dataset]) == 2
    capsys.readouterr()


def test_eval_rejects_mistyped_predicate_before_any_model_call(tmp_path, capsys):
    records = [
        {"id": t.id, "group": t.group, "text": t.text,
         "expectation": {"predicates": [dict(p) for p in t.expectation.predicates]}}
        for t in rsl.load_default_tasks()
    ]
    records[0]["expectation"]["predicates"] = [{"kind": "looks", "min_count": None}]
    dataset = write(tmp_path, "tasks.json", json.dumps(records))
    report = tmp_path / "r.json"
    argv = ["eval", "--backend", "oracle", "--dataset", dataset, "--report-json", str(report)]
    assert main(argv) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines
    assert "'min_count'" in err_lines[0]
    assert not report.exists()


def test_eval_json_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--backend", "oracle", "--json", "--parallelism", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy_count"] == 25
    assert len(doc["per_task"]) == 25


# Input and output mistakes that are not domain failures: each exits 2 with
# one "error:" line. BAD is a non-UTF-8 file; NODIR/ is a missing directory.
IO_MISTAKES = {
    "check-source": ["check", "BAD"],
    "compile-source": ["compile", "BAD"],
    "run-source": ["run", "BAD"],
    "run-world": ["run", "OK", "--world", "BAD"],
    "eval-world": ["eval", "--backend", "oracle", "--world", "BAD"],
    "compile-manifest": ["compile", "OK", "--manifest", "BAD"],
    "eval-dataset": ["eval", "--backend", "oracle", "--dataset", "BAD"],
    "translate-responses": ["translate", "t", "--backend", "scripted", "--responses", "BAD"],
    "compile-output": ["compile", "OK", "-o", "NODIR/c.py"],
    "run-trace": ["run", "OK", "--trace", "NODIR/t.jsonl"],
    "eval-report-json": ["eval", "--backend", "oracle", "--report-json", "NODIR/r.json"],
    "eval-report-csv": ["eval", "--backend", "oracle", "--report-csv", "NODIR/r.csv"],
    "translate-transcript": [
        "translate", "t", "--backend", "scripted", "--responses", "REPLIES",
        "--transcript", "NODIR/t.json",
    ],
    "translate-compile-to": [
        "translate", "t", "--backend", "scripted", "--responses", "REPLIES",
        "--compile-to", "NODIR/c.py",
    ],
}


@pytest.mark.parametrize("argv", IO_MISTAKES.values(), ids=IO_MISTAKES.keys())
def test_io_mistakes_exit_two_without_traceback(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b'{"x": "caf\xe9"} forward 1;')
    paths = {
        "BAD": str(tmp_path / "bad"),
        "OK": write(tmp_path, "ok.rsl", "forward 1;"),
        "REPLIES": write(tmp_path, "replies.json", json.dumps(["forward 1;"])),
    }
    argv = [paths.get(a, a.replace("NODIR", str(tmp_path / "nodir"))) for a in argv]
    assert main(argv) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines


def test_module_entry_point_exits_two_on_non_utf8_source(tmp_path):
    source = tmp_path / "latin1.rsl"
    source.write_bytes(b"grasp caf\xe9;")
    src = str(Path(rsl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "rsl", "check", str(source)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


# A --world, --manifest, --dataset or --responses file that cannot be loaded
# is named in the one error line. FILE holds the given bytes. JSON nested
# deeper than the decoder's recursion can go is invalid JSON, not a traceback.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
DATA = Path(rsl.__file__).parent / "data"
SHIPPED = {name: (DATA / name).read_bytes() for name in ("world.json", "manifest.json", "tasks.json")}
TASKS = json.loads(SHIPPED["tasks.json"])
NAMED_FILE_MISTAKES = {
    "run-world-non-utf8": (["run", "OK", "--world", "FILE"], b"\xff"),
    "eval-world-non-utf8": (["eval", "--backend", "oracle", "--world", "FILE"], b"\xff"),
    "run-world-bad-json": (["run", "OK", "--world", "FILE"], b"{"),
    "compile-manifest-non-utf8": (["compile", "OK", "--manifest", "FILE"], b"\xff"),
    "compile-manifest-bad-json": (["compile", "OK", "--manifest", "FILE"], b"{"),
    "run-world-duplicate-key": (
        ["run", "OK", "--world", "FILE"], b'{"objects": {"cup": [1, 2], "cup": [3, 4]}}'
    ),
    "eval-dataset-non-utf8": (["eval", "--backend", "oracle", "--dataset", "FILE"], b"\xff"),
    "eval-dataset-bad-json": (["eval", "--backend", "oracle", "--dataset", "FILE"], b"["),
    "eval-dataset-duplicate-key": (
        ["eval", "--backend", "oracle", "--dataset", "FILE"], b'[{"id": "s01", "id": "s02"}]'
    ),
    "translate-responses-non-utf8": (
        ["translate", "t", "--backend", "scripted", "--responses", "FILE"], b"\xff"
    ),
    "translate-responses-bad-json": (
        ["translate", "t", "--backend", "scripted", "--responses", "FILE"], b"x"
    ),
    "translate-responses-not-a-list": (
        ["translate", "t", "--backend", "scripted", "--responses", "FILE"], b'{"a": 1}'
    ),
    "run-world-too-deep": (["run", "OK", "--world", "FILE"], b'{"objects": ' + DEEP_JSON + b"}"),
    "compile-manifest-too-deep": (["compile", "OK", "--manifest", "FILE"], DEEP_JSON),
    "eval-dataset-too-deep": (["eval", "--backend", "oracle", "--dataset", "FILE"], DEEP_JSON),
    "translate-responses-too-deep": (
        ["translate", "t", "--backend", "scripted", "--responses", "FILE"], DEEP_JSON
    ),
    "eval-dataset-group-a-list": (
        ["eval", "--backend", "oracle", "--dataset", "FILE"],
        json.dumps([{**TASKS[0], "group": []}, *TASKS[1:]]).encode(),
    ),
}


@pytest.mark.parametrize(
    "argv, content", NAMED_FILE_MISTAKES.values(), ids=NAMED_FILE_MISTAKES.keys()
)
def test_load_errors_name_the_file(argv, content, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "input.json"
    bad.write_bytes(content)
    paths = {"FILE": str(bad), "OK": write(tmp_path, "ok.rsl", "forward 1;")}
    assert main([paths.get(a, a) for a in argv]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:"), err_lines
    assert str(bad) in err_lines[0], err_lines


# The exit-code contract on any file, for each option that reads one: FILE is
# the file under test, OK a clean source, and every output goes under OUT.
# Each JSON option's mutants start from a document it loads, so they reach
# its deeper checks; a source option's start from any of them.
RESPONSES = json.dumps(
    list(json.loads((DATA / "oracle_programs.json").read_text("utf-8")).values())[:3]
).encode()
FILE_OPTIONS = {
    "check-source": (["check", "FILE"], list(SHIPPED.values())),
    "compile-source": (["compile", "FILE", "-o", "OUT/c.py"], list(SHIPPED.values())),
    "run-source": (["run", "FILE", "--trace", "OUT/t.jsonl"], list(SHIPPED.values())),
    "run-world": (
        ["run", "OK", "--world", "FILE", "--trace", "OUT/t.jsonl"], [SHIPPED["world.json"]]
    ),
    "compile-manifest": (
        ["compile", "OK", "--manifest", "FILE", "-o", "OUT/c.py"], [SHIPPED["manifest.json"]]
    ),
    "eval-dataset": (
        [
            "eval", "--backend", "oracle", "--max-passes", "1", "--dataset", "FILE",
            "--report-json", "OUT/r.json", "--report-csv", "OUT/r.csv",
        ],
        [SHIPPED["tasks.json"]],
    ),
    "translate-responses": (
        ["translate", "t", "--backend", "scripted", "--responses", "FILE"], [RESPONSES]
    ),
}


@st.composite
def mutants(draw, bases):
    """One of bases with one span of up to 8 bytes replaced by up to 8 drawn
    bytes, or by drawn text, which keeps it UTF-8: a deletion, an insertion
    or an overwrite."""
    base = draw(st.sampled_from(bases))
    start = draw(st.integers(0, len(base)))
    end = draw(st.integers(start, min(len(base), start + 8)))
    patch = draw(st.binary(max_size=8) | st.text(max_size=8).map(str.encode))
    return base[:start] + patch + base[end:]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=4,
)


def json_slots(value, parent, key):
    """(parent, key) of value, then of every value nested in value, in
    document order."""
    yield parent, key
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for child_key, child in items:
            yield from json_slots(child, value, child_key)


@st.composite
def value_mutants(draw, bases):
    """One of bases, parsed as JSON, with the value at one drawn path replaced
    by a drawn JSON value, dumped again: still JSON, so it reaches the loader's
    checks of keys and values."""
    root = [json.loads(draw(st.sampled_from(bases)))]
    parent, key = draw(st.sampled_from(list(json_slots(root[0], root, 0))))
    parent[key] = draw(JSON_VALUES)
    return json.dumps(root[0]).encode()


KEYWORD_LIST = sorted(rsl.KEYWORDS)
KEYWORD_WORD = re.compile(rf"\b(?:{'|'.join(KEYWORD_LIST)})\b")
FINITE_NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def typed_mutants(draw, bases):
    """One of bases, parsed as JSON, with one number replaced by a drawn
    finite number, or one keyword in a string by a drawn keyword, dumped
    again. Every value keeps its type, so the document mostly loads and the
    command runs to its end."""
    root = [json.loads(draw(st.sampled_from(bases)))]
    spots = []
    for parent, key in json_slots(root[0], root, 0):
        value = parent[key]
        if isinstance(value, str):
            spots += [(parent, key, match.span()) for match in KEYWORD_WORD.finditer(value)]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            spots.append((parent, key, None))
    parent, key, span = draw(st.sampled_from(spots))
    if span is None:
        parent[key] = draw(FINITE_NUMBERS)
    else:
        start, end = span
        parent[key] = parent[key][:start] + draw(st.sampled_from(KEYWORD_LIST)) + parent[key][end:]
    return json.dumps(root[0]).encode()


@pytest.mark.parametrize("argv, bases", FILE_OPTIONS.values(), ids=FILE_OPTIONS.keys())
def test_any_file_exits_zero_to_three(argv, bases, tmp_path, capsys):
    # Each example overwrites FILE and OUT's files, so examples share tmp_path.
    (tmp_path / "out").mkdir()
    path = tmp_path / "input"
    paths = {"FILE": str(path), "OK": write(tmp_path, "ok.rsl", "forward 1;")}
    argv = [paths.get(a, a.replace("OUT", str(tmp_path / "out"))) for a in argv]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(content=st.one_of(
        st.binary(max_size=64), mutants(bases), value_mutants(bases), typed_mutants(bases),
    ))
    @example(content=DEEP_JSON)
    def exits_zero_to_three(content):
        path.write_bytes(content)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (code, err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), err
            assert "Traceback" not in err

    exits_zero_to_three()
