"""2D kinematic execution of verified programs over a declarative world.

The robot is a point with a heading and an independently panning/tilting
camera. Execution is pure: each step maps (state, statement) to a new state,
and every executed statement appends a trace record, so a state carries its
own execution history. run gives the same result as folding step over the
program but builds the trace once and one state at the end, so its cost is
linear in the program's length. Trace records and states are slotted frozen
dataclasses. Programs are taken as verified: run does not check them again,
but a hand-built one whose numbers are not finite is a SimError. No
physics, collision, or sensing is modeled; perceive sets a flag.

trace_to_jsonl's format is byte-exact: one line per record, each the bytes
of json.dumps(record, sort_keys=True, allow_nan=False), so the keys come in
sorted order (cam_pan, cam_tilt, heading, held, perceived, statement, x, y),
numbers are written as their repr, which is json's float text, and strings
are escaped to ASCII. Every line ends in a newline. A non-finite number is a
ValueError, never NaN or Infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii

from .syntax import IDENTIFIER_RE, Number, Program, Statement, render_statement

# Slack for boundary grasps: an approach parks the robot exactly reach_offset
# from the object, which must still count as within an equal grasp_range
# despite float rounding.
_GRASP_EPSILON = 1e-9


@dataclass(frozen=True)
class World:
    """Named objects at fixed coordinates plus the manipulation geometry."""

    objects: dict[str, tuple[float, float]]
    grasp_range: float = 0.5
    reach_offset: float = 0.5


class WorldError(ValueError):
    """Malformed world document."""


def load_world(text: str) -> World:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise WorldError(f"world is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise WorldError("world must be a JSON object")
    raw_objects = doc.get("objects", {})
    if not isinstance(raw_objects, dict):
        raise WorldError("\"objects\" must be an object")
    objects: dict[str, tuple[float, float]] = {}
    for name, coords in raw_objects.items():
        if not IDENTIFIER_RE.match(name):
            raise WorldError(f"object name {name!r} is not a valid identifier")
        if (
            not isinstance(coords, list)
            or len(coords) != 2
            or not all(isinstance(c, (int, float)) for c in coords)
            or not all(math.isfinite(c) for c in coords)
        ):
            raise WorldError(f"object {name!r} needs finite [x, y] coordinates")
        objects[name] = (float(coords[0]), float(coords[1]))
    grasp_range = doc.get("grasp_range", 0.5)
    reach_offset = doc.get("reach_offset", 0.5)
    for label, value in (("grasp_range", grasp_range), ("reach_offset", reach_offset)):
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            raise WorldError(f"{label} must be a finite non-negative number")
    return World(objects, float(grasp_range), float(reach_offset))


def load_world_file(path) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        return load_world(fh.read())


def default_world() -> World:
    """The benchmark world shipped with the package."""
    text = resources.files("rsl.data").joinpath("world.json").read_text("utf-8")
    return load_world(text)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One executed statement and the pose/flags right after it."""

    statement: Statement
    x: float
    y: float
    heading: float
    cam_pan: float
    cam_tilt: float
    held: str | None
    perceived: bool


@dataclass(frozen=True, slots=True)
class RobotState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    cam_pan: float = 0.0
    cam_tilt: float = 0.0
    held: str | None = None
    perceived: bool = False
    trace: tuple[TraceRecord, ...] = ()


class SimError(Exception):
    """Execution failure. Carries the statement that failed and the state
    reached before it (whose trace covers the statements already executed)."""

    def __init__(self, message: str, statement: Statement, state: RobotState) -> None:
        super().__init__(message)
        self.statement = statement
        self.state = state


class UnknownObject(SimError):
    pass


class GraspOutOfRange(SimError):
    pass


class HandFull(SimError):
    pass


def wrap_heading(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _magnitude(statement: Statement) -> float:
    arg = statement.args[0]
    assert isinstance(arg, Number)
    return arg.value


def _object_position(
    world: World, statement: Statement, state: RobotState | TraceRecord
) -> tuple[float, float]:
    name = statement.args[0]
    assert isinstance(name, str)
    try:
        return world.objects[name]
    except KeyError:
        raise UnknownObject(f"unknown object '{name}'", statement, state) from None


def _execute(state: RobotState | TraceRecord, world: World, statement: Statement) -> TraceRecord:
    """The trace record of one statement executed from state, which may be
    the previous statement's record, as it holds the same pose fields.
    Raises a SimError subclass (UnknownObject, GraspOutOfRange, HandFull) on
    failure, and SimError itself when a turn or a goto is given a non-finite
    number, or finite literals would overflow the position or a camera angle
    to a non-finite value. Only the fields a statement changes are checked."""
    x, y, heading = state.x, state.y, state.heading
    cam_pan, cam_tilt = state.cam_pan, state.cam_tilt
    held, perceived = state.held, state.perceived
    kw = statement.keyword
    finite = True

    if kw == "forward":
        d = _magnitude(statement)
        x += d * math.cos(heading)
        y += d * math.sin(heading)
        finite = math.isfinite(x) and math.isfinite(y)
    elif kw == "backward":
        d = _magnitude(statement)
        x -= d * math.cos(heading)
        y -= d * math.sin(heading)
        finite = math.isfinite(x) and math.isfinite(y)
    elif kw == "turnleft" or kw == "turnright":
        turn = _magnitude(statement)
        finite = math.isfinite(turn)
        if finite:
            heading = wrap_heading(heading + (turn if kw == "turnleft" else -turn))
    elif kw == "lookup":
        cam_tilt += _magnitude(statement)
        finite = math.isfinite(cam_tilt)
    elif kw == "lookdown":
        cam_tilt -= _magnitude(statement)
        finite = math.isfinite(cam_tilt)
    elif kw == "lookleft":
        cam_pan += _magnitude(statement)
        finite = math.isfinite(cam_pan)
    elif kw == "lookright":
        cam_pan -= _magnitude(statement)
        finite = math.isfinite(cam_pan)
    elif kw == "perceive":
        perceived = True
    elif kw == "goto":
        first, second = statement.args
        assert isinstance(first, Number) and isinstance(second, Number)
        x, y = first.value, second.value
        finite = math.isfinite(x) and math.isfinite(y)
    elif kw == "approach":
        ox, oy = _object_position(world, statement, state)
        dx, dy = ox - x, oy - y
        if math.hypot(dx, dy) > 0.0:
            heading = math.atan2(dy, dx)
        # Park reach_offset short of the object, facing it.
        x = ox - world.reach_offset * math.cos(heading)
        y = oy - world.reach_offset * math.sin(heading)
    elif kw == "grasp":
        ox, oy = _object_position(world, statement, state)
        if held is not None:
            raise HandFull(f"already holding '{held}'", statement, state)
        distance = math.hypot(ox - x, oy - y)
        if distance > world.grasp_range + _GRASP_EPSILON:
            raise GraspOutOfRange(
                f"'{statement.args[0]}' is {distance:.3f} m away "
                f"(grasp range {world.grasp_range:g} m)",
                statement,
                state,
            )
        held = statement.args[0]  # type: ignore[assignment]
    else:  # pragma: no cover - Statement constructor forbids this
        raise SimError(f"unsupported statement {kw!r}", statement, state)

    if not finite:
        raise SimError(f"'{kw}' would leave the pose non-finite", statement, state)
    return TraceRecord(statement, x, y, heading, cam_pan, cam_tilt, held, perceived)


def _state_after(pose: RobotState | TraceRecord, trace: tuple[TraceRecord, ...]) -> RobotState:
    return RobotState(
        pose.x, pose.y, pose.heading, pose.cam_pan, pose.cam_tilt,
        pose.held, pose.perceived, trace,
    )


def step(state: RobotState, world: World, statement: Statement) -> RobotState:
    """Execute one statement. Returns the successor state, whose trace is
    state's plus one record; raises SimError or one of its subclasses
    (UnknownObject, GraspOutOfRange, HandFull) on failure."""
    record = _execute(state, world, statement)
    return _state_after(record, state.trace + (record,))


def run(program: Program, world: World, initial: RobotState | None = None) -> RobotState | SimError:
    """Fold step over the program. On failure, returns the SimError (it holds
    the trace up to the failing statement) instead of raising.

    The records are collected in a list and each one is the pose the next
    statement starts from, so the trace tuple and the returned state are
    built once and the cost stays linear in the program's length."""
    pose: RobotState | TraceRecord = initial if initial is not None else RobotState()
    records = list(pose.trace)
    for statement in program.statements:
        try:
            record = _execute(pose, world, statement)
        except SimError as err:
            err.state = _state_after(pose, tuple(records))
            return err
        records.append(record)
        pose = record
    return _state_after(pose, tuple(records))


# One trace line: json.dumps(record, sort_keys=True) layout, keys in sorted
# order, filled with text that is already JSON.
_TRACE_LINE = (
    '{"cam_pan": %s, "cam_tilt": %s, "heading": %s, "held": %s, '
    '"perceived": %s, "statement": %s, "x": %s, "y": %s}'
)
_UNSET = object()


def _number_text(value: float, field: str) -> str:
    """json's text for a number, which is its repr; a non-finite value is a
    ValueError, as json.dumps with allow_nan=False raises."""
    if not math.isfinite(value):
        raise ValueError(f"trace field {field} is not finite: {value!r}")
    return repr(value)


def trace_to_jsonl(state: RobotState) -> str:
    """Line-delimited JSON export: one record per executed statement, each
    line the bytes json.dumps(record, sort_keys=True, allow_nan=False) gives.

    _execute passes a field a statement does not change through as the same
    object, so a number's text is made again only when the object differs
    from the previous record's."""
    lines = []
    x = y = heading = cam_pan = cam_tilt = held = _UNSET
    for record in state.trace:
        if record.x is not x:
            x = record.x
            x_text = _number_text(x, "x")
        if record.y is not y:
            y = record.y
            y_text = _number_text(y, "y")
        if record.heading is not heading:
            heading = record.heading
            heading_text = _number_text(heading, "heading")
        if record.cam_pan is not cam_pan:
            cam_pan = record.cam_pan
            cam_pan_text = _number_text(cam_pan, "cam_pan")
        if record.cam_tilt is not cam_tilt:
            cam_tilt = record.cam_tilt
            cam_tilt_text = _number_text(cam_tilt, "cam_tilt")
        if record.held is not held:
            held = record.held
            held_text = "null" if held is None else encode_basestring_ascii(held)
        lines.append(_TRACE_LINE % (
            cam_pan_text, cam_tilt_text, heading_text, held_text,
            "true" if record.perceived else "false",
            encode_basestring_ascii(render_statement(record.statement)),
            x_text, y_text,
        ))
    return "\n".join(lines) + ("\n" if lines else "")
