import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsl import (
    GraspOutOfRange,
    HandFull,
    Number,
    Program,
    RobotState,
    SimError,
    Statement,
    UnknownObject,
    World,
    WorldError,
    check,
    load_world,
    run,
    step,
    trace_to_jsonl,
)
from rsl.sim import wrap_heading
from rsl.syntax import STATEMENT_SCHEMAS

from support import headings_close, oracle_execute, random_statement, statement_as_tuple

WORLD = World({"box": (1.0, 0.5), "crate": (2.0, -1.0), "bin": (0.2, 0.2)})


def program(source):
    outcome = check(source)
    assert not outcome.diagnostics, source
    return outcome.program


def stmt(keyword, *args):
    built = []
    for a in args:
        built.append(Number(float(a), str(a)) if isinstance(a, (int, float)) else a)
    return Statement(keyword, tuple(built))


def test_forward_along_heading_zero():
    state = step(RobotState(), WORLD, stmt("forward", 2))
    assert (state.x, state.y, state.heading) == (2.0, 0.0, 0.0)


def test_turnleft_twice_accumulates():
    state = RobotState()
    for _ in range(2):
        state = step(state, WORLD, stmt("turnleft", 1.57))
    assert abs(state.heading - 3.14) < 1e-9


def test_goto_sets_position_keeps_heading():
    state = step(RobotState(heading=0.7), WORLD, stmt("goto", 3, 4))
    assert (state.x, state.y) == (3.0, 4.0)
    assert state.heading == 0.7


def test_grasp_out_of_range():
    world = World({"cup": (10.0, 0.0)})
    with pytest.raises(GraspOutOfRange):
        step(RobotState(), world, stmt("grasp", "cup"))


def test_grasp_unknown_object():
    with pytest.raises(UnknownObject):
        step(RobotState(), WORLD, stmt("grasp", "ghost"))
    with pytest.raises(UnknownObject):
        step(RobotState(), WORLD, stmt("approach", "ghost"))


def test_grasp_with_hand_full():
    world = World({"a": (0.1, 0.0), "b": (0.2, 0.0)})
    state = step(RobotState(), world, stmt("grasp", "a"))
    with pytest.raises(HandFull):
        step(state, world, stmt("grasp", "b"))


def test_camera_accumulates_without_clamping():
    state = RobotState()
    for _ in range(10):
        state = step(state, WORLD, stmt("lookup", 2))
    state = step(state, WORLD, stmt("lookleft", 1.5))
    state = step(state, WORLD, stmt("lookright", 0.25))
    assert state.cam_tilt == 20.0
    assert state.cam_pan == 1.25


def test_two_step_kinematics():
    result = run(program("forward 2; turnright 1.5707963; forward 2;"), WORLD)
    assert not isinstance(result, SimError)
    assert abs(result.x - 2.0) < 1e-6
    assert abs(result.y - (-2.0)) < 1e-6


def test_perceive_sets_flag_only():
    result = run(program("perceive;"), WORLD)
    assert result.perceived
    assert (result.x, result.y, result.heading) == (0.0, 0.0, 0.0)


def test_approach_parks_short_of_object_facing_it():
    world = World({"table": (3.0, 0.0)})
    state = step(RobotState(), world, stmt("approach", "table"))
    assert abs(state.x - 2.5) < 1e-12
    assert abs(state.y) < 1e-12
    assert headings_close(state.heading, 0.0)


def test_approach_then_grasp_composes_at_boundary():
    world = World({"bottle": (2.0, 2.0)})
    state = step(RobotState(), world, stmt("approach", "bottle"))
    state = step(state, world, stmt("grasp", "bottle"))
    assert state.held == "bottle"


def test_approach_then_grasp_far_object_fails():
    world = World({"table": (3.0, 0.0), "cup": (30.0, 0.0)})
    result = run(program("approach table; grasp cup;"), world)
    assert isinstance(result, GraspOutOfRange)
    assert len(result.state.trace) == 1


def test_run_returns_error_with_partial_trace():
    world = World({"box": (0.3, 0.0)})
    result = run(program("forward 1; grasp box; backward 1;"), world)
    assert isinstance(result, GraspOutOfRange)
    # forward executed, grasp failed at index 1.
    assert len(result.state.trace) == 1
    assert result.statement.keyword == "grasp"


def test_trace_length_equals_statement_count():
    result = run(program("forward 1; turnleft 1; perceive; goto 0, 0;"), WORLD)
    assert len(result.trace) == 4


def test_heading_wrap_convention():
    assert wrap_heading(math.pi) == pytest.approx(math.pi)
    assert wrap_heading(-math.pi) == pytest.approx(math.pi)
    assert wrap_heading(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_heading(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_heading(0.0) == 0.0


def test_inverse_motions_restore_state():
    rng = random.Random(5)
    for _ in range(200):
        start = RobotState(
            x=rng.uniform(-5, 5), y=rng.uniform(-5, 5), heading=rng.uniform(-3, 3)
        )
        d = rng.uniform(0.001, 10)
        there = step(start, WORLD, stmt("forward", d))
        back = step(there, WORLD, stmt("backward", d))
        assert abs(back.x - start.x) < 1e-9
        assert abs(back.y - start.y) < 1e-9
        a = rng.uniform(0.001, 6)
        left = step(start, WORLD, stmt("turnleft", a))
        right = step(left, WORLD, stmt("turnright", a))
        assert headings_close(right.heading, start.heading)


def test_translation_invariance_of_pose_relative_programs():
    rng = random.Random(6)
    relative = ["forward", "backward", "turnleft", "turnright",
                "lookup", "lookdown", "lookleft", "lookright", "perceive"]
    for _ in range(100):
        statements = []
        for _ in range(rng.randrange(1, 6)):
            kw = rng.choice(relative)
            statements.append(stmt(kw) if kw == "perceive" else stmt(kw, round(rng.uniform(0.1, 3), 3)))
        prog = Program(tuple(statements))
        dx, dy = rng.uniform(-10, 10), rng.uniform(-10, 10)
        base = run(prog, WORLD, RobotState(x=1.0, y=2.0, heading=0.4))
        moved = run(prog, WORLD, RobotState(x=1.0 + dx, y=2.0 + dy, heading=0.4))
        assert abs(moved.x - (base.x + dx)) < 1e-9
        assert abs(moved.y - (base.y + dy)) < 1e-9
        assert headings_close(moved.heading, base.heading)


def test_matches_independent_oracle_on_small_grid():
    atoms = [
        stmt("forward", 1.5),
        stmt("turnleft", 0.9),
        stmt("turnright", 1.2),
        stmt("goto", 2, 1),
        stmt("approach", "box"),
        stmt("grasp", "box"),
        stmt("perceive"),
    ]
    for length in range(3):
        for combo in itertools.product(atoms, repeat=length):
            _assert_matches_oracle(combo)


def _assert_matches_oracle(statements):
    result = run(Program(tuple(statements)), WORLD)
    expected = oracle_execute(
        [statement_as_tuple(s) for s in statements],
        WORLD.objects,
        WORLD.grasp_range,
        WORLD.reach_offset,
    )
    if isinstance(result, SimError):
        assert isinstance(expected, tuple), statements
        kind, executed = expected
        assert type(result).__name__ == kind
        assert len(result.state.trace) == executed
    else:
        assert isinstance(expected, dict), statements
        assert abs(result.x - expected["x"]) < 1e-9
        assert abs(result.y - expected["y"]) < 1e-9
        assert headings_close(result.heading, expected["heading"])
        assert abs(result.cam_pan - expected["cam_pan"]) < 1e-9
        assert abs(result.cam_tilt - expected["cam_tilt"]) < 1e-9
        assert result.held == expected["held"]
        assert result.perceived == expected["perceived"]


def test_world_loading_and_validation():
    world = load_world('{"objects": {"cup": [1, 2]}, "grasp_range": 0.4, "reach_offset": 0.3}')
    assert world.objects["cup"] == (1.0, 2.0)
    assert world.grasp_range == 0.4
    with pytest.raises(WorldError):
        load_world("not json")
    with pytest.raises(WorldError):
        load_world('{"objects": {"3bad": [0, 0]}}')
    with pytest.raises(WorldError):
        load_world('{"objects": {"cup": [0]}}')
    with pytest.raises(WorldError):
        load_world('{"objects": {}, "grasp_range": -1}')


def test_trace_export_is_line_delimited():
    result = run(program("forward 1; perceive;"), WORLD)
    lines = trace_to_jsonl(result).strip().splitlines()
    assert len(lines) == 2
    import json as json_mod

    first = json_mod.loads(lines[0])
    assert first["statement"] == "forward 1;"
    assert first["perceived"] is False
    second = json_mod.loads(lines[1])
    assert second["perceived"] is True


def fold_step(prog, world, initial):
    """run's reference: a left fold of the public step."""
    state = initial
    for statement in prog.statements:
        try:
            state = step(state, world, statement)
        except SimError as err:
            return err
    return state


def assert_run_equals_fold(prog, world, initial=None):
    result = run(prog, world, initial)
    expected = fold_step(prog, world, initial if initial is not None else RobotState())
    if isinstance(expected, SimError):
        assert type(result) is type(expected)
        assert str(result) == str(expected)
        assert result.statement == expected.statement
        assert result.state == expected.state
        assert len(result.state.trace) == len(expected.state.trace)
    else:
        assert result == expected


def test_run_equals_fold_of_step_over_fuzzed_programs():
    rng = random.Random(11)
    pool = ("box", "crate", "bin", "ghost")
    failures = 0
    for _ in range(400):
        statements = []
        for _ in range(rng.randrange(12)):
            statement = random_statement(rng)
            if statement.keyword in ("approach", "grasp"):
                statement = Statement(statement.keyword, (rng.choice(pool),))
            statements.append(statement)
        initial = None
        if rng.random() < 0.3:
            initial = step(RobotState(x=rng.uniform(-2, 2)), WORLD, stmt("forward", 1))
        assert_run_equals_fold(Program(tuple(statements)), WORLD, initial)
        failures += isinstance(run(Program(tuple(statements)), WORLD, initial), SimError)
    # The fuzz reaches both outcomes.
    assert 0 < failures < 400


def test_run_error_state_keeps_initial_trace():
    initial = step(RobotState(), WORLD, stmt("perceive"))
    result = run(program("forward 1; grasp ghost;"), WORLD, initial)
    assert isinstance(result, UnknownObject)
    assert [r.statement.keyword for r in result.state.trace] == ["perceive", "forward"]
    assert result.state.x == 1.0


def strict_json(line):
    """json.loads that rejects the non-standard NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


def assert_finite_pose(state):
    assert all(
        math.isfinite(v) for v in (state.x, state.y, state.heading, state.cam_pan, state.cam_tilt)
    )


HUGE = "1" + "0" * 308


@pytest.mark.parametrize(
    "source",
    [
        f"goto {HUGE}, 0; forward {HUGE};",
        f"turnleft 3.14159; backward {HUGE}; backward {HUGE};",
        f"lookup {HUGE}; lookup {HUGE};",
        f"lookdown {HUGE}; lookdown {HUGE};",
        f"lookleft {HUGE}; lookleft {HUGE};",
        f"lookright {HUGE}; lookright {HUGE};",
    ],
)
def test_overflow_to_a_non_finite_pose_is_a_sim_error(source):
    statements = program(source).statements
    result = run(program(source + " perceive;"), WORLD)
    assert type(result) is SimError
    assert result.statement == statements[-1]
    assert len(result.state.trace) == len(statements) - 1
    assert_finite_pose(result.state)
    for line in trace_to_jsonl(result.state).splitlines():
        strict_json(line)


def literals(signed):
    """Numeric literals of the grammar from 1 to 1.7e308 in magnitude, half
    of them within a factor 17 of the largest float; negative ones too when
    signed."""
    return st.builds(
        lambda sign, lead, zeros, fraction: f"{sign}{lead}{'0' * zeros}{fraction}",
        st.sampled_from(["", "-"] if signed else [""]),
        st.integers(1, 17),
        st.one_of(st.integers(0, 307), st.just(307)),
        st.sampled_from(["", ".5", ".25"]),
    )


@st.composite
def grammar_sources(draw):
    lines = []
    for keyword in draw(st.lists(st.sampled_from(sorted(STATEMENT_SCHEMAS)), max_size=12)):
        args = [
            draw(literals(keyword == "goto"))
            if kind == "number"
            else draw(st.sampled_from(["box", "crate", "bin", "ghost"]))
            for kind in STATEMENT_SCHEMAS[keyword]
        ]
        lines.append(f"{keyword} {', '.join(args)};" if args else f"{keyword};")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grammar_sources())
def test_verified_programs_stay_finite_and_export_strict_json(source):
    result = run(program(source), WORLD)
    state = result.state if isinstance(result, SimError) else result
    assert_finite_pose(state)
    for line in trace_to_jsonl(state).splitlines():
        strict_json(line)
