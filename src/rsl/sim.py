"""2D kinematic execution of verified programs over a declarative world.

The robot is a point with a heading and an independently panning/tilting
camera. Execution is pure: each step maps (state, statement) to a new state,
and every executed statement appends a trace record, so a state carries its
own execution history. run gives the same result as folding step over the
program but builds the trace once and one state at the end, so its cost is
linear in the program's length. Trace records are named tuples, built with
tuple.__new__ as the lexer builds tokens, and states are slotted frozen
dataclasses. Programs are taken as verified: run does not check them again,
but a hand-built one whose numbers are not finite is a SimError. run
pauses the cyclic garbage collector (syntax.acyclic), since what it builds
holds no reference cycle: the SimError it returns carries no traceback and
no exception context. No physics, collision, or sensing is modeled;
perceive sets a flag.

trace_to_jsonl's format is byte-exact: one line per record, each the bytes
of json.dumps(record, sort_keys=True, allow_nan=False), so the keys come in
sorted order (cam_pan, cam_tilt, heading, held, perceived, statement, x, y),
a float is written as its repr, which is json's float text, any other value
as json writes it (a bool as true or false, an int as its digits), and
strings are escaped to ASCII. Every line ends in a newline. A non-finite
number is a ValueError, never NaN or Infinity. Each line is one f-string
of the keys in that order and each field's JSON text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .syntax import (
    IDENTIFIER_RE, Program, Statement, acyclic, finite_number, frozen_slots, json_document,
    json_object, read_input, render_statement,
)

# Slack for boundary grasps: an approach parks the robot exactly reach_offset
# from the object, which must still count as within an equal grasp_range
# despite float rounding.
_GRASP_EPSILON = 1e-9
_new = tuple.__new__


class WorldError(ValueError):
    """Malformed world, loaded from a document or built by hand."""


@dataclass(frozen=True)
class World:
    """Named objects at fixed coordinates plus the manipulation geometry.
    Every way of building one checks it, or raises WorldError: names are
    identifiers, coordinates a pair of finite numbers (a list or a tuple,
    kept as a tuple), and grasp_range and reach_offset finite, not negative.
    objects is kept read-only, and a pickled World is built and checked anew."""

    objects: Mapping[str, tuple[float, float]]
    grasp_range: float = 0.5
    reach_offset: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.objects, (dict, MappingProxyType)):
            raise WorldError("\"objects\" must be an object")
        for name, coords in self.objects.items():
            if type(name) is not str or not IDENTIFIER_RE.match(name):
                raise WorldError(f"object name {name!r} is not a valid identifier")
            pair = type(coords) in (list, tuple) and len(coords) == 2
            if not pair or not all(map(finite_number, coords)):
                raise WorldError(f"object {name!r} needs finite [x, y] coordinates")
        for label in ("grasp_range", "reach_offset"):
            value = getattr(self, label)
            if not finite_number(value) or value < 0:
                raise WorldError(f"{label} must be a finite non-negative number")
        objects = {name: tuple(c) for name, c in self.objects.items()}
        object.__setattr__(self, "objects", MappingProxyType(objects))

    def __reduce__(self):
        return World, (dict(self.objects), self.grasp_range, self.reach_offset)


def load_world(text: str) -> World:
    # Integers as floats: one past the float range reads as inf, which World
    # rejects, and one past int's digit limit raises no ValueError here.
    doc = json_document(text, WorldError, "world", parse_int=float)
    json_object(doc, WorldError, "world", ("objects", "grasp_range", "reach_offset"))
    geometry = {k: doc[k] for k in ("grasp_range", "reach_offset") if k in doc}
    return World(doc.get("objects", {}), **geometry)


def load_world_file(path) -> World:
    return read_input(path, WorldError, "world", load_world)


def default_world() -> World:
    """The benchmark world shipped with the package."""
    text = resources.files("rsl.data").joinpath("world.json").read_text("utf-8")
    return load_world(text)


class TraceRecord(NamedTuple):
    """One executed statement and the pose/flags right after it."""

    statement: Statement
    x: float
    y: float
    heading: float
    cam_pan: float
    cam_tilt: float
    held: str | None
    perceived: bool


@frozen_slots
class RobotState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    cam_pan: float = 0.0
    cam_tilt: float = 0.0
    held: str | None = None
    perceived: bool = False
    trace: tuple[TraceRecord, ...] = ()


# The state every run starts from unless given one; shared, as it cannot change.
_START = RobotState()


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


def _object_position(
    world: World, statement: Statement, state: RobotState | TraceRecord
) -> tuple[float, float]:
    name = statement.args[0]
    assert isinstance(name, str)
    position = world.objects.get(name)
    if position is None:
        raise UnknownObject(f"unknown object '{name}'", statement, state)
    return position


def _execute(state: RobotState | TraceRecord, world: World, statement: Statement) -> TraceRecord:
    """The trace record of one statement executed from state, which may be
    the previous statement's record, as it holds the same pose fields.
    Raises a SimError subclass (UnknownObject, GraspOutOfRange, HandFull) on
    failure, and SimError itself when a turn or a goto is given a non-finite
    number, or finite literals or an approach would overflow the position or
    a camera angle to a non-finite value. Only the fields a statement changes
    are checked."""
    x, y, heading = state.x, state.y, state.heading
    cam_pan, cam_tilt = state.cam_pan, state.cam_tilt
    held, perceived = state.held, state.perceived
    kw = statement.keyword
    finite = True

    # Adding a negated magnitude gives the same float as subtracting it.
    if kw == "forward" or kw == "backward":
        d = statement.args[0].value if kw == "forward" else -statement.args[0].value
        x += d * math.cos(heading)
        y += d * math.sin(heading)
        finite = math.isfinite(x) and math.isfinite(y)
    elif kw == "turnleft" or kw == "turnright":
        turn = statement.args[0].value
        finite = math.isfinite(turn)
        if finite:
            heading = wrap_heading(heading + (turn if kw == "turnleft" else -turn))
    elif kw == "lookup" or kw == "lookdown":
        cam_tilt += statement.args[0].value if kw == "lookup" else -statement.args[0].value
        finite = math.isfinite(cam_tilt)
    elif kw == "lookleft" or kw == "lookright":
        cam_pan += statement.args[0].value if kw == "lookleft" else -statement.args[0].value
        finite = math.isfinite(cam_pan)
    elif kw == "perceive":
        perceived = True
    elif kw == "goto":
        x, y = statement.args[0].value, statement.args[1].value
        finite = math.isfinite(x) and math.isfinite(y)
    elif kw == "approach":
        ox, oy = _object_position(world, statement, state)
        dx, dy = ox - x, oy - y
        if math.hypot(dx, dy) > 0.0:
            heading = math.atan2(dy, dx)
        # Park reach_offset short of the object, facing it.
        x = ox - world.reach_offset * math.cos(heading)
        y = oy - world.reach_offset * math.sin(heading)
        finite = math.isfinite(x) and math.isfinite(y)
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
    return _new(TraceRecord, (statement, x, y, heading, cam_pan, cam_tilt, held, perceived))


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


@acyclic
def run(program: Program, world: World, initial: RobotState | None = None) -> RobotState | SimError:
    """Fold step over the program. On failure, returns the SimError (it holds
    the trace up to the failing statement) instead of raising. The error
    comes without its traceback, which would hold this call's frame, and
    without the exception the caller may be handling, so a caller that
    keeps it in a local forms no reference cycle.

    The records are collected in a list and each one is the pose the next
    statement starts from, so the trace tuple and the returned state are
    built once and the cost stays linear in the program's length."""
    pose: RobotState | TraceRecord = _START if initial is None else initial
    records = list(pose.trace)
    for statement in program.statements:
        try:
            record = _execute(pose, world, statement)
        except SimError as err:
            err.state = _state_after(pose, tuple(records))
            err.__context__ = None
            return err.with_traceback(None)
        records.append(record)
        pose = record
    return _state_after(pose, tuple(records))


def _json_text(value, field: str) -> str:
    """json.dumps(value, allow_nan=False)'s text, a finite float's (its repr)
    taken directly. A value json refuses, such as a number that is not
    finite, is a ValueError that names the field."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError as err:
        raise ValueError(f"trace field {field} cannot be written as JSON: {err}") from err


def trace_to_jsonl(state: RobotState) -> str:
    """Line-delimited JSON export: one record per executed statement, each
    line the bytes json.dumps(record, sort_keys=True, allow_nan=False) gives.

    _execute passes a field a statement does not change through as the same
    object, so a field's text is made again only when the object differs
    from the previous record's."""
    lines = []
    last_x = last_y = last_heading = last_pan = last_tilt = last_held = last_perceived = object()
    # Unpacked, not read by attribute: Python 3.11 specialises attribute loads
    # on __slots__ but not on a named tuple's fields.
    for statement, x, y, heading, cam_pan, cam_tilt, held, perceived in state.trace:
        if x is not last_x:
            last_x, x_text = x, _json_text(x, "x")
        if y is not last_y:
            last_y, y_text = y, _json_text(y, "y")
        if heading is not last_heading:
            last_heading, heading_text = heading, _json_text(heading, "heading")
        if cam_pan is not last_pan:
            last_pan, cam_pan_text = cam_pan, _json_text(cam_pan, "cam_pan")
        if cam_tilt is not last_tilt:
            last_tilt, cam_tilt_text = cam_tilt, _json_text(cam_tilt, "cam_tilt")
        if held is not last_held:
            last_held, held_text = held, _json_text(held, "held")
        if perceived is not last_perceived:
            last_perceived, perceived_text = perceived, _json_text(perceived, "perceived")
        lines.append(
            f'{{"cam_pan": {cam_pan_text}, "cam_tilt": {cam_tilt_text}, "heading": {heading_text}, '
            f'"held": {held_text}, "perceived": {perceived_text}, "statement": '
            f'{encode_basestring_ascii(render_statement(statement))}, "x": {x_text}, "y": {y_text}}}'
        )
    return "\n".join(lines) + ("\n" if lines else "")
