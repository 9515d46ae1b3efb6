"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time

from rsl import (
    Category,
    ModelConfig,
    Program,
    RobotState,
    ScriptedTransport,
    SimError,
    World,
    check,
    make_prompt_parts,
    render_program,
    run,
    translate,
)
from rsl.cli import main
from rsl.diagnostics import render
from rsl.sim import step
from rsl.syntax import Number, Statement

from support import (
    headings_close,
    oracle_execute,
    random_junk_source,
    random_program,
    statement_as_tuple,
)

# (category, fixture input, canonical sentence) for all nine error types.
TAXONOMY = [
    (Category.KEYWORD, "APPROACH table;", "Keywords should be lowercase."),
    (Category.IDENTIFIER, "approach 3apple;", "The identifier is illegal."),
    (Category.NUMBER, "forward 123.23.45;", "The number is illegal."),
    (Category.CHARACTER, "$forward 1;", "The $ is an illegal character."),
    (Category.COMMENT, "/ This is a comment", "This comment has errors."),
    (Category.COMMAND, "move 1.5;", "The command (keyword) is illegal."),
    (Category.PARAMETER, "forward table;", "Parameter types of the command are invalid."),
    (Category.QUANTITY, "goto 1;", "The number of parameters is illegal."),
    (Category.SEMICOLON, "approach table", "The statement must end with a semicolon."),
]


def _verdict(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def test_criterion_1_error_taxonomy_golden_suite():
    started = time.perf_counter()
    failures = []
    for category, source, sentence in TAXONOMY:
        diagnostics = check(source).diagnostics
        matching = [d for d in diagnostics if d.category is category]
        if not matching:
            failures.append(f"{source!r}: no {category.value} diagnostic")
            continue
        if matching[0].message != sentence:
            failures.append(f"{source!r}: message {matching[0].message!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s (budget 1s)")
    _verdict(1, "error-taxonomy golden suite (9/9)", failures)


def test_criterion_2_single_diagnostic_fixtures():
    failures = []
    for category, source, _ in TAXONOMY:
        diagnostics = check(source).diagnostics
        if len(diagnostics) != 1:
            failures.append(
                f"{source!r}: {len(diagnostics)} diagnostics "
                f"{[d.category.value for d in diagnostics]}"
            )
        elif diagnostics[0].category is not category:
            failures.append(f"{source!r}: got {diagnostics[0].category.value}")
    _verdict(2, "single-diagnostic fixture fidelity", failures)


def test_criterion_3_round_trip_property():
    rng = random.Random(2024)
    failures = []
    for index in range(1000):
        program = random_program(rng)
        outcome = check(render_program(program))
        if outcome.diagnostics or outcome.program != program:
            failures.append(f"case {index}: {render_program(program)!r}")
            if len(failures) > 3:
                break
    _verdict(3, "round-trip over 1,000 random programs", failures)


def test_criterion_4_fuzz_totality():
    rng = random.Random(777)
    failures = []
    for index in range(10000):
        source = random_junk_source(rng)
        try:
            outcome = check(source)
        except Exception as err:  # noqa: BLE001 - totality is the property
            failures.append(f"case {index} raised {type(err).__name__}: {source!r}")
            break
        for d in outcome.diagnostics:
            if not isinstance(d.category, Category) or not d.message:
                failures.append(f"case {index}: uncategorized diagnostic {d!r}")
                break
    _verdict(4, "fuzz totality over 10,000 inputs", failures)


def _grid_atoms():
    def num(raw):
        return Number(float(raw), raw)

    return [
        Statement("forward", (num("1.5"),)),
        Statement("forward", (num("2"),)),
        Statement("backward", (num("0.7"),)),
        Statement("turnleft", (num("0.9"),)),
        Statement("turnright", (num("1.2"),)),
        Statement("lookup", (num("0.3"),)),
        Statement("lookdown", (num("0.2"),)),
        Statement("lookleft", (num("0.4"),)),
        Statement("lookright", (num("0.8"),)),
        Statement("perceive"),
        Statement("goto", (num("2"), num("1"))),
        Statement("approach", ("box",)),
        Statement("grasp", ("box",)),
        Statement("grasp", ("ghost",)),
    ]


def test_criterion_5_simulator_oracle_equivalence():
    started = time.perf_counter()
    world = World({"box": (1.0, 0.5), "crate": (2.0, -1.0), "bin": (0.2, 0.2)})
    atoms = _grid_atoms()
    failures = []

    def compare(statements):
        result = run(Program(tuple(statements)), world)
        expected = oracle_execute(
            [statement_as_tuple(s) for s in statements],
            world.objects,
            world.grasp_range,
            world.reach_offset,
        )
        if isinstance(result, SimError):
            if not isinstance(expected, tuple):
                return f"sim failed, oracle succeeded: {statements}"
            kind, executed = expected
            if type(result).__name__ != kind or len(result.state.trace) != executed:
                return f"error mismatch on {statements}"
            return None
        if isinstance(expected, tuple):
            return f"oracle failed, sim succeeded: {statements}"
        checks = (
            abs(result.x - expected["x"]) < 1e-9
            and abs(result.y - expected["y"]) < 1e-9
            and headings_close(result.heading, expected["heading"])
            and abs(result.cam_pan - expected["cam_pan"]) < 1e-9
            and abs(result.cam_tilt - expected["cam_tilt"]) < 1e-9
            and result.held == expected["held"]
            and result.perceived == expected["perceived"]
        )
        return None if checks else f"state mismatch on {statements}"

    for length in range(5):
        for combo in itertools.product(atoms, repeat=length):
            problem = compare(combo)
            if problem:
                failures.append(problem)
                break
        if failures:
            break

    # Translation invariance of pose-relative programs.
    rng = random.Random(31)
    relative = [a for a in atoms if a.keyword not in ("goto", "approach", "grasp")]
    for _ in range(200):
        statements = tuple(rng.choice(relative) for _ in range(rng.randrange(1, 5)))
        dx, dy = rng.uniform(-7, 7), rng.uniform(-7, 7)
        base = run(Program(statements), world, RobotState(x=0.5, y=-1.0, heading=0.3))
        moved = run(
            Program(statements), world, RobotState(x=0.5 + dx, y=-1.0 + dy, heading=0.3)
        )
        if not (
            abs(moved.x - (base.x + dx)) < 1e-9
            and abs(moved.y - (base.y + dy)) < 1e-9
            and headings_close(moved.heading, base.heading)
        ):
            failures.append(f"translation invariance broken: {statements}")
            break

    # Inverse motions restore pose.
    for _ in range(200):
        start = RobotState(
            x=rng.uniform(-4, 4), y=rng.uniform(-4, 4), heading=rng.uniform(-3, 3)
        )
        d = rng.uniform(0.01, 8)
        a = rng.uniform(0.01, 6)
        back = step(
            step(start, world, Statement("forward", (Number(d, str(d)),))),
            world,
            Statement("backward", (Number(d, str(d)),)),
        )
        spun = step(
            step(start, world, Statement("turnleft", (Number(a, str(a)),))),
            world,
            Statement("turnright", (Number(a, str(a)),)),
        )
        if not (
            abs(back.x - start.x) < 1e-9
            and abs(back.y - start.y) < 1e-9
            and headings_close(spun.heading, start.heading)
        ):
            failures.append("inverse motion broken")
            break

    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    _verdict(5, "simulator equals brute-force oracle (<=4 statements)", failures)


def test_criterion_6_loop_determinism():
    failures = []
    config = ModelConfig(base_url="http://offline.invalid", model_name="scripted")
    transport = ScriptedTransport(["approach table", "approach table;"])
    outcome = translate(
        make_prompt_parts("Approach the table.", zero_shot=True),
        config,
        max_passes=5,
        transport=transport,
    )
    if not outcome.verified:
        failures.append("not verified")
    if outcome.passes != 2:
        failures.append(f"passes == {outcome.passes}")
    semicolon_line = (
        "Line 1: The statement must end with a semicolon. Near token 'approach table'."
    )
    feedback = outcome.transcript[-2]
    if feedback.role != "user":
        failures.append("second-to-last transcript message is not the feedback")
    elif feedback.content.count(semicolon_line) != 1:
        failures.append(
            f"feedback contains the rendered diagnostic "
            f"{feedback.content.count(semicolon_line)} times"
        )
    first_pass_diags = outcome.raw_history[0][1]
    if [d.category for d in first_pass_diags] != [Category.SEMICOLON]:
        failures.append("pass-1 diagnostics are not exactly [Semicolon]")
    if render(first_pass_diags[0]) != semicolon_line:
        failures.append("rendered diagnostic differs")
    _verdict(6, "scripted loop verifies on pass 2 with exact feedback", failures)


def test_criterion_7_offline_benchmark(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failures = []
    outputs = []
    reports = []
    for _ in range(2):
        code = main(["eval", "--backend", "oracle"])
        captured = capsys.readouterr().out
        outputs.append(captured)
        reports.append((tmp_path / "eval_report.json").read_text())
        if code != 0:
            failures.append(f"exit code {code}")
    for needle in ("success rate: 25/25", "accuracy: 25/25", "mean pass: 1.00"):
        if needle not in outputs[0]:
            failures.append(f"missing {needle!r} in output")
    if reports[0] != reports[1]:
        failures.append("report not deterministic across runs")
    doc = json.loads(reports[0])
    if doc["success_count"] != 25 or doc["accuracy_count"] != 25 or doc["mean_pass"] != 1.0:
        failures.append(f"aggregates wrong: {doc['success_count']}/{doc['accuracy_count']}")
    _verdict(7, "offline oracle benchmark 25/25, 25/25, pass 1.0", failures)


def test_criterion_8_one_pass_ablation(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failures = []

    code = main(["eval", "--backend", "oracle-fail-first", "--max-passes", "1"])
    single = capsys.readouterr().out
    if code != 0:
        failures.append(f"max-passes 1 exit code {code}")
    if "success rate: 0/25" not in single:
        failures.append("feedback disabled should fail all 25 tasks")

    code = main(["eval", "--backend", "oracle-fail-first", "--max-passes", "2"])
    double = capsys.readouterr().out
    if code != 0:
        failures.append(f"max-passes 2 exit code {code}")
    if "success rate: 25/25" not in double:
        failures.append("one feedback pass should repair all 25 tasks")
    if "mean pass: 2.00" not in double:
        failures.append("mean pass should be exactly 2.00")
    _verdict(8, "feedback ablation (0/25 at one pass, 25/25 at two)", failures)
