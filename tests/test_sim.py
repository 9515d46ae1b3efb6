import copy
import gc
import itertools
import json
import math
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsl import (
    GraspOutOfRange,
    HandFull,
    Number,
    Program,
    RobotState,
    SimError,
    Statement,
    TraceRecord,
    UnknownObject,
    World,
    WorldError,
    check,
    compose_feedback,
    default_manifest,
    default_world,
    generate,
    load_world,
    load_world_file,
    render_program,
    run,
    step,
    trace_to_jsonl,
)
from rsl.sim import wrap_heading
from rsl.syntax import STATEMENT_SCHEMAS

from support import (
    headings_close,
    oracle_execute,
    random_program,
    random_statement,
    reference_trace_to_jsonl,
    single_char_mutant,
    statement_as_tuple,
)

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


def test_trace_record_from_run_equals_one_built_by_hand():
    checked = program("goto 1, 2; lookup 3; lookleft 4; approach box; grasp box; perceive;")
    last = run(checked, WORLD).trace[-1]
    # approach box from (1, 2) parks 0.5 north of (1, 0.5), facing south.
    x, y, heading = 1.0, 1.0, -math.pi / 2
    perceive = checked.statements[-1]
    assert type(last) is TraceRecord
    assert last == TraceRecord(perceive, x, y, heading, 4.0, 3.0, "box", True)
    assert last == TraceRecord(
        statement=perceive, x=x, y=y, heading=heading,
        cam_pan=4.0, cam_tilt=3.0, held="box", perceived=True,
    )
    assert run(checked, WORLD).trace[0] == TraceRecord(
        checked.statements[0], 1.0, 2.0, 0.0, 0.0, 0.0, None, False
    )


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
    with pytest.raises(WorldError, match="must be a JSON object"):
        load_world('[{"objects": {}}]')
    with pytest.raises(WorldError, match='"objects" must be an object'):
        load_world('{"objects": [["cup", 1, 2]]}')
    with pytest.raises(WorldError):
        load_world('{"objects": {"3bad": [0, 0]}}')
    with pytest.raises(WorldError):
        load_world('{"objects": {"cup": [0]}}')
    with pytest.raises(WorldError):
        load_world('{"objects": {}, "grasp_range": -1}')
    # JSON booleans are ints to Python but are not coordinates or distances.
    with pytest.raises(WorldError, match="coordinates"):
        load_world('{"objects": {"cup": [true, false]}}')
    with pytest.raises(WorldError, match="grasp_range"):
        load_world('{"objects": {}, "grasp_range": true}')
    with pytest.raises(WorldError, match="reach_offset"):
        load_world('{"objects": {}, "reach_offset": false}')
    # An integer too large for a float, and one past the digit limit.
    with pytest.raises(WorldError, match="coordinates"):
        load_world('{"objects": {"cup": [1%s, 0]}}' % ("0" * 400))
    with pytest.raises(WorldError, match="grasp_range"):
        load_world('{"objects": {}, "grasp_range": 1%s}' % ("0" * 400))
    with pytest.raises(WorldError):
        load_world('{"objects": {"cup": [1%s, 0]}}' % ("0" * 5000))
    # JSON keeps the last of two equal keys; a world refuses them.
    with pytest.raises(WorldError, match="^duplicate key 'cup' in world$"):
        load_world('{"objects": {"cup": [1, 2], "cup": [3, 4]}}')
    with pytest.raises(WorldError, match="^duplicate key 'grasp_range' in world$"):
        load_world('{"objects": {}, "grasp_range": 0.4, "grasp_range": 9}')
    # A misspelt key would leave the world it names empty or at its defaults.
    with pytest.raises(WorldError, match="^world does not take a key 'object'$"):
        load_world('{"object": {"cup": [1, 2]}}')
    with pytest.raises(WorldError, match="^world does not take a key 'reach'$"):
        load_world('{"objects": {}, "grasp_range": 0.4, "reach": 1}')


@pytest.mark.parametrize(
    "objects, geometry, message",
    [
        ({"cup": (math.inf, 0.0)}, {}, "coordinates"),
        ({"cup": (1.0, 0.0)}, {"grasp_range": math.nan}, "grasp_range"),
        ({"cup": (10**400, 0)}, {}, "coordinates"),
        ({"cup": (True, 0.0)}, {}, "coordinates"),
        ({"cup": (1.0, 0.0, 0.0)}, {}, "coordinates"),
        ({"3bad": (0.0, 0.0)}, {}, "identifier"),
        ({}, {"reach_offset": -1}, "reach_offset"),
        ([("cup", (0.0, 0.0))], {}, '"objects" must be an object'),
    ],
    ids=[
        "inf", "grasp-range-nan", "int-past-float-range", "bool", "triple", "name", "negative",
        "not-a-dict",
    ],
)
def test_hand_built_world_rejected(objects, geometry, message):
    with pytest.raises(WorldError, match=message):
        World(objects, **geometry)


def test_hand_built_world_accepts_int_coordinates():
    assert World({"a": (1, 2)}).objects == {"a": (1, 2)}


def test_world_keeps_list_coordinates_as_a_tuple():
    assert World({"a": [1.5, -2]}, 0, 0).objects["a"] == (1.5, -2)


def test_world_objects_cannot_change_after_the_check():
    world = default_world()
    with pytest.raises(TypeError):
        world.objects["ghost"] = ("a", "b")
    assert isinstance(run(check("approach ghost;").program, world), UnknownObject)
    objects = {"cup": (1.0, 0.0)}
    world = World(objects)
    objects["ghost"] = ("a", "b")
    assert isinstance(run(check("approach ghost;").program, world), UnknownObject)


def test_world_survives_replace_pickle_and_deepcopy():
    world = World({"box": [1.0, 0.5]}, 0.25, 0.75)
    copies = [pickle.loads(pickle.dumps(world)), copy.deepcopy(world), replace(world)]
    for copied in copies:
        assert copied == world and copied.objects["box"] == (1.0, 0.5)
        with pytest.raises(TypeError):
            copied.objects["box"] = (0.0, 0.0)


def test_unpickled_world_is_checked_again():
    tampered = pickle.dumps(World({"box": (1.0, 0.5)})).replace(b"box", b"9ox")
    with pytest.raises(WorldError, match="'9ox' is not a valid identifier"):
        pickle.loads(tampered)


@pytest.mark.parametrize("name, content", [
    ("missing.json", None), ("latin1.json", b"\xff"), ("truncated.json", b"{"),
    pytest.param("duplicate.json", b'{"objects": {"cup": [1, 2], "cup": [3, 4]}}', id="duplicate.json"),
])
def test_world_file_errors_name_the_file(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(WorldError, match=name):
        load_world_file(path)


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


@pytest.mark.parametrize(
    "statement",
    [
        Statement("turnleft", (Number(math.inf, "inf"),)),
        Statement("turnright", (Number(-math.inf, "-inf"),)),
        Statement("goto", (Number(math.nan, "nan"), Number(0.0, "0"))),
    ],
    ids=["turnleft-inf", "turnright-minus-inf", "goto-nan"],
)
def test_hand_built_non_finite_number_is_a_sim_error(statement):
    # check never yields such a Number; only a program built by hand has one.
    result = run(Program((stmt("forward", 1), statement, stmt("perceive"))), WORLD)
    assert type(result) is SimError
    assert result.statement is statement
    assert [r.statement.keyword for r in result.state.trace] == ["forward"]
    assert_finite_pose(result.state)
    for line in trace_to_jsonl(result.state).splitlines():
        strict_json(line)
    with pytest.raises(SimError):
        step(RobotState(), WORLD, statement)


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


# Coordinates and distances up to the largest float, where an approach from
# far away can overflow the position.
BIG_NUMBERS = (1e308, 1.7976931348623157e308)
world_coordinates = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([*BIG_NUMBERS, *(-n for n in BIG_NUMBERS)]),
)
world_distances = st.one_of(
    st.floats(min_value=0, allow_infinity=False), st.sampled_from(BIG_NUMBERS)
)


@st.composite
def worlds(draw):
    objects = {name: (draw(world_coordinates), draw(world_coordinates)) for name in WORLD.objects}
    return World(objects, draw(world_distances), draw(world_distances))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grammar_sources(), worlds())
@example(f"goto 179{'0' * 306}, 0; approach a;", World({"a": (1e308, 0.0)}, reach_offset=1e308))
def test_verified_programs_stay_finite_and_export_strict_json(source, world):
    result = run(program(source), world)
    state = result.state if isinstance(result, SimError) else result
    assert_finite_pose(state)
    for line in trace_to_jsonl(state).splitlines():
        strict_json(line)


POSE_FIELDS = ("x", "y", "heading", "cam_pan", "cam_tilt")
EDGE_NUMBERS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
pose_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.sampled_from(EDGE_NUMBERS),
)
# Names that json must escape: non-ASCII, quote, backslash, control
# characters and a lone surrogate.
export_names = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["caf\u00e9", "\u2603", 'a"b', "a\\b", "a\nb", "\t", "\ud800", ""]),
)


@st.composite
def export_statements(draw):
    keyword = draw(st.sampled_from(sorted(STATEMENT_SCHEMAS)))
    args = tuple(
        Number(draw(pose_numbers), draw(st.one_of(st.just("1"), export_names)))
        if kind == "number"
        else draw(export_names)
        for kind in STATEMENT_SCHEMAS[keyword]
    )
    return Statement(keyword, args)


@st.composite
def hand_built_traces(draw):
    """Traces whose records mostly share the previous record's number
    objects, as run's do, but with any finite numbers and any names."""
    pose = [draw(pose_numbers) for _ in POSE_FIELDS]
    held = draw(st.one_of(st.none(), export_names))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        for i in draw(st.sets(st.integers(0, len(POSE_FIELDS) - 1), max_size=3)):
            pose[i] = draw(pose_numbers)
        if draw(st.integers(0, 3)) == 0:
            held = draw(st.one_of(st.none(), export_names))
        records.append(
            TraceRecord(draw(export_statements()), *pose, held, draw(st.booleans()))
        )
    return RobotState(trace=tuple(records))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(hand_built_traces())
@example(RobotState())
@example(step(RobotState(x=1, y=-2, heading=0, cam_pan=3, cam_tilt=-4), WORLD, stmt("perceive")))
@example(run(program("lookup 2; lookleft 1; forward 1; approach box; grasp box;"), WORLD, RobotState(x=1)))
@example(run(program("perceive;"), WORLD, RobotState(x=True)))
@example(run(program("perceive;"), WORLD, RobotState(y=10**400)))
def test_trace_export_matches_per_record_json_dumps(state):
    assert trace_to_jsonl(state) == reference_trace_to_jsonl(state)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", POSE_FIELDS)
@pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
def test_trace_export_rejects_a_non_finite_field(field, value, position):
    first = step(RobotState(), WORLD, stmt("forward", 1)).trace[0]
    pose = {name: getattr(first, name) for name in POSE_FIELDS}
    bad = TraceRecord(stmt("perceive"), **{**pose, field: value}, held=None, perceived=True)
    trace = (bad,) if position == 0 else (first, bad)
    with pytest.raises(ValueError):
        reference_trace_to_jsonl(RobotState(trace=trace))
    with pytest.raises(ValueError):
        trace_to_jsonl(RobotState(trace=trace))


# Endings that make run return each SimError subclass in WORLD.
SIM_ERROR_ENDINGS = {
    UnknownObject: "grasp ghost;",
    HandFull: "approach box; grasp box; approach bin; grasp bin;",
    GraspOutOfRange: "goto 9, 9; grasp crate;",
}


@st.composite
def pipeline_sources(draw):
    """Clean programs, programs that end in each SimError, and broken ones."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = render_program(random_program(rng))
    ending = draw(st.sampled_from(["", *SIM_ERROR_ENDINGS.values()]))
    source = f"{source}\n{ending}" if source else ending
    return single_char_mutant(rng, source) if draw(st.booleans()) else source


def _pipeline(source):
    """What the benchmark and the repair loop do with one source, each
    result kept in a local, as callers keep them."""
    outcome = check(source)
    if outcome.diagnostics:
        return compose_feedback(outcome.diagnostics, source)
    control = generate(outcome.program, default_manifest())
    result = run(outcome.program, WORLD)
    state = result.state if isinstance(result, SimError) else result
    return control, trace_to_jsonl(state)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pipeline_sources())
@example("approach box; grasp box;")
@example(SIM_ERROR_ENDINGS[UnknownObject])
@example(SIM_ERROR_ENDINGS[HandFull])
@example(SIM_ERROR_ENDINGS[GraspOutOfRange])
@example("grasp ghost")
def _pipeline_leaves_no_garbage(source):
    # Frozen, what the heap held before stays out of the count, and the last
    # collection scans only what the pipeline built.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        _pipeline(source)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_and_run_build_no_reference_cycle():
    # check and run pause the cyclic collector; that is safe only while
    # reference counting alone frees everything they and their callers build.
    try:
        _pipeline_leaves_no_garbage()
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("error", list(SIM_ERROR_ENDINGS), ids=lambda e: e.__name__)
def test_returned_sim_error_has_no_traceback_or_context(error):
    result = run(program(SIM_ERROR_ENDINGS[error]), WORLD)
    assert type(result) is error
    assert result.__traceback__ is None and result.__context__ is None
    try:
        raise ValueError("handled while run is called")
    except ValueError:
        result = run(program(SIM_ERROR_ENDINGS[error]), WORLD)
    assert result.__context__ is None
