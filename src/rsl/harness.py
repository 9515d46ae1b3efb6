"""The 25-task benchmark: dataset loading, accuracy predicates, metrics.

Three metrics per run: success rate (the generated program verifies and is a
non-empty, well-formed program), accuracy (the verified program, executed in
the simulator, satisfies the task's expectation predicates), and pass (mean
number of generation attempts). Pose is deliberately excluded from accuracy
unless a task opts in with an explicit pose predicate.

A deterministic oracle transport maps each benchmark task text to a
hand-verified program so the whole pipeline runs offline; the fail-first
wrapper breaks its first reply per task to exercise the feedback loop.
"""

from __future__ import annotations

import csv
import fnmatch
import functools
import io
import json
import threading
from dataclasses import asdict, dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from .diagnostics import render
from .llm import ModelConfig, Transport, TransportError
from .orchestrator import DEFAULT_MAX_PASSES, PromptParts, TranslationAborted, translate
from .sim import RobotState, SimError, World, run
from .syntax import (
    IDENTIFIER_RE, KEYWORDS, STATEMENT_SCHEMAS, Number, data_path, finite_number, json_document,
    json_object, read_input,
)

GROUP_SIZES = {"simple": 6, "ambiguous": 4, "multi_step": 6, "complex": 9}
TASK_COUNT = sum(GROUP_SIZES.values())

# Every predicate kind: the fields it needs, and those it may have.
_PREDICATE_FIELDS = {
    "sequence": (("actions",), ("tol",)),
    "subsequence": (("actions",), ("tol",)),
    "single_forward_in": (("min", "max"), ("min_exclusive", "max_exclusive")),
    "total_rotation": (("min", "max"), ()),
    "looks": (("min_count",), ()),
    "only_keywords": (("keywords",), ()),
    "held": (("object",), ()),
    "perceived": ((), ()),
    "pose": (("x", "y", "tol"), ()),
}
# Every predicate field, required or optional: (what it must be, its test).
_STRINGS = ("a list of strings", lambda v: type(v) is tuple and all(type(s) is str for s in v))
_FINITE = ("a finite number", finite_number)
_FIELD_TYPES = {
    "actions": ("a list of non-blank strings", lambda v: _STRINGS[1](v) and all(map(str.strip, v))),
    "keywords": _STRINGS,
    "object": ("a string", lambda v: type(v) is str),
    "min_count": ("an integer", lambda v: type(v) is int),
    "min": _FINITE, "max": _FINITE, "x": _FINITE, "y": _FINITE,
    "tol": ("a finite number >= 0", lambda v: finite_number(v) and v >= 0),
    **dict.fromkeys(("min_exclusive", "max_exclusive"), ("a boolean", lambda v: type(v) is bool)),
}
_LOOK_KEYWORDS = frozenset({"lookup", "lookdown", "lookleft", "lookright"})
_DEFAULT_TOL = 1e-6


class DatasetError(ValueError):
    """Malformed benchmark dataset."""


@dataclass(frozen=True)
class TaskExpectation:
    """Declarative checks over the execution trace and end state. Every way
    of building one checks each predicate's kind and fields against
    _PREDICATE_FIELDS and _FIELD_TYPES, that each keyword is one, and that
    each action pattern can match some statement, or raises DatasetError, so
    evaluation trusts them. Each predicate is kept as a read-only mapping,
    its lists as tuples, and a pickled expectation is checked anew."""

    predicates: tuple[Mapping, ...]

    def __post_init__(self) -> None:
        checked = []
        for pred in self.predicates:
            if not isinstance(pred, (dict, MappingProxyType)) or "kind" not in pred:
                raise DatasetError("predicate must be an object with a kind")
            kind = pred["kind"]
            if type(kind) is not str or kind not in _PREDICATE_FIELDS:
                raise DatasetError(f"unknown predicate kind {kind!r}")
            pred = {name: tuple(v) if type(v) is list else v for name, v in pred.items()}
            needs, may = _PREDICATE_FIELDS[kind]
            for name in pred:
                if name != "kind" and name not in needs and name not in may:
                    raise DatasetError(f"{kind} predicate does not take a field {name!r}")
            for name, (what, holds) in _FIELD_TYPES.items():
                if name in needs and name not in pred:
                    raise DatasetError(f"{kind} predicate needs {name!r}")
                if name in pred and not holds(pred[name]):
                    raise DatasetError(f"{kind} predicate field {name!r} must be {what}")
            for keyword in pred.get("keywords", ()):
                if keyword not in KEYWORDS:
                    raise DatasetError(f"{kind} predicate keyword {keyword!r} is not a keyword")
            for action in pred.get("actions", ()):
                if not _action_pattern(action)[0]:
                    raise DatasetError(f"{kind} predicate action {action!r} can match no statement")
            checked.append(MappingProxyType(pred))
        object.__setattr__(self, "predicates", tuple(checked))

    def __reduce__(self):
        return TaskExpectation, (tuple(map(dict, self.predicates)),)


@dataclass(frozen=True)
class TaskRecord:
    id: str
    group: str
    text: str
    expectation: TaskExpectation


def load_tasks(path) -> list[TaskRecord]:
    """Load and validate the benchmark file: 25 unique tasks partitioned
    6 simple / 4 ambiguous / 6 multi_step / 9 complex. Every error names the
    file, and an error in a task names the task too."""
    return read_input(path, DatasetError, "dataset", _task_records)


def _task_records(text: str) -> list[TaskRecord]:
    raw = json_document(text, DatasetError, "dataset")
    if not isinstance(raw, list):
        raise DatasetError("dataset must be a JSON list of tasks")

    records: list[TaskRecord] = []
    seen_ids: set[str] = set()
    counts = {group: 0 for group in GROUP_SIZES}
    for entry in raw:
        if not isinstance(entry, dict):
            raise DatasetError("each task must be a JSON object")
        task_id = entry.get("id")
        group = entry.get("group")
        text = entry.get("text")
        expectation = entry.get("expectation")
        if not isinstance(task_id, str) or not task_id:
            raise DatasetError("each task needs a non-empty string id")
        if task_id in seen_ids:
            raise DatasetError(f"duplicate task id {task_id!r}")
        seen_ids.add(task_id)
        json_object(entry, DatasetError, f"task {task_id}", ("id", "group", "text", "expectation"))
        if not isinstance(group, str) or group not in GROUP_SIZES:
            raise DatasetError(f"task {task_id}: unknown group {group!r}")
        if not isinstance(text, str) or not text.strip():
            raise DatasetError(f"task {task_id}: needs a non-empty text")
        if not isinstance(expectation, dict) or not isinstance(
            expectation.get("predicates"), list
        ):
            raise DatasetError(f"task {task_id}: needs an expectation with predicates")
        json_object(expectation, DatasetError, f"task {task_id}: expectation", ("predicates",))
        try:
            expected = TaskExpectation(tuple(expectation["predicates"]))
        except DatasetError as err:
            raise DatasetError(f"task {task_id}: {err}") from err
        counts[group] += 1
        records.append(TaskRecord(task_id, group, text, expected))

    if counts != GROUP_SIZES:
        want = " / ".join(f"{n} {g}" for g, n in GROUP_SIZES.items())
        got = " / ".join(f"{counts[g]} {g}" for g in GROUP_SIZES)
        raise DatasetError(f"expected {TASK_COUNT} tasks ({want}), got {got}")
    return records


def load_default_tasks() -> list[TaskRecord]:
    return load_tasks(data_path("tasks.json"))


# ---------------------------------------------------------------------------
# Accuracy predicates

def _pattern_arg(text: str) -> float | str | None:
    """None for *, the value of a finite number, else the text."""
    try:
        value = float(text)
    except ValueError:
        return None if text == "*" else text
    return value if finite_number(value) else text


@functools.lru_cache(maxsize=256)
def _action_pattern(action: str) -> tuple[frozenset[str], tuple[float | str | None, ...]]:
    """Parse an action pattern, "keyword arg ...", once. The keyword part may
    use fnmatch globs (look*); an arg of * matches anything, numeric args
    compare within tol and object args compare exactly. goto patterns
    separate the two coordinates with a space, no comma.

    Returns the keywords it can match, empty if none, and its args per
    _pattern_arg. A keyword counts if the glob matches it, it takes as many
    args, and each arg but * fits its slot: a finite number or an identifier."""
    glob, *texts = action.split()
    args = tuple(map(_pattern_arg, texts))
    exact = glob in STATEMENT_SCHEMAS  # then fnmatch need not compile the glob
    return frozenset(
        kw for kw, schema in STATEMENT_SCHEMAS.items()
        if len(schema) == len(args) and (kw == glob if exact else fnmatch.fnmatchcase(kw, glob))
        and all(
            arg is None or (type(arg) is float if slot == "number" else IDENTIFIER_RE.match(str(arg)))
            for arg, slot in zip(args, schema)
        )
    ), args


def _match_action(pattern: str, record, tol: float) -> bool:
    """Match one trace record against an action pattern (see _action_pattern)."""
    keywords, args = _action_pattern(pattern)
    if record.statement.keyword not in keywords:
        return False
    for want, arg in zip(args, record.statement.args):
        if want is not None and (abs(arg.value - want) > tol if isinstance(arg, Number) else arg != want):
            return False
    return True


def _holds(pred: Mapping, state: RobotState) -> bool:
    kind = pred["kind"]
    tol = pred.get("tol", _DEFAULT_TOL)
    trace = state.trace

    if kind == "sequence" or kind == "subsequence":
        # With as many actions as records, the scan can match action i only to record i.
        if kind == "sequence" and len(pred["actions"]) != len(trace):
            return False
        index = 0
        for action in pred["actions"]:
            while index < len(trace) and not _match_action(action, trace[index], tol):
                index += 1
            if index == len(trace):
                return False
            index += 1
        return True
    if kind == "single_forward_in":
        if len(trace) != 1 or trace[0].statement.keyword != "forward":
            return False
        magnitude = trace[0].statement.args[0].value
        low, high = pred["min"], pred["max"]
        low_ok = magnitude > low if pred.get("min_exclusive") else magnitude >= low
        high_ok = magnitude < high if pred.get("max_exclusive") else magnitude <= high
        return low_ok and high_ok
    if kind == "total_rotation":
        total = 0.0
        for record in trace:
            if record.statement.keyword == "turnleft":
                total += record.statement.args[0].value
            elif record.statement.keyword == "turnright":
                total -= record.statement.args[0].value
        return pred["min"] <= abs(total) <= pred["max"]
    if kind == "looks":
        count = sum(1 for r in trace if r.statement.keyword in _LOOK_KEYWORDS)
        return count >= pred["min_count"]
    if kind == "only_keywords":
        allowed = set(pred["keywords"])
        return all(r.statement.keyword in allowed for r in trace)
    if kind == "held":
        return state.held == pred["object"]
    if kind == "perceived":
        return state.perceived
    # pose, the last kind
    return abs(state.x - pred["x"]) <= tol and abs(state.y - pred["y"]) <= tol


def evaluate_accuracy(outcome: RobotState | SimError, expectation: TaskExpectation) -> bool:
    """True iff execution succeeded and every expectation predicate holds."""
    if isinstance(outcome, SimError):
        return False
    return all(_holds(pred, outcome) for pred in expectation.predicates)


# ---------------------------------------------------------------------------
# Offline transports

class OracleTransport:
    """Deterministic stand-in model: replies with the hand-verified program
    for whichever benchmark task appears in the conversation."""

    def __init__(self) -> None:
        path = data_path("oracle_programs.json")
        self.programs: dict[str, str] = read_input(path, ValueError, "oracle programs", json.loads)

    def send(self, config: ModelConfig, payload: dict) -> dict:
        for message in reversed(payload["messages"]):  # the last user message that is a task
            if message.get("role") == "user" and message.get("content") in self.programs:
                program = self.programs[message["content"]]
                return {"choices": [{"message": {"role": "assistant", "content": program}}]}
        raise TransportError("oracle transport: no known task in the prompt")


class FailFirstTransport:
    """Oracle wrapper whose first reply of each task's program drops the final
    semicolon, forcing exactly one feedback pass before the correct program."""

    def __init__(self) -> None:
        self._oracle = OracleTransport()
        self._replied: set[str] = set()
        self._lock = threading.Lock()

    def send(self, config: ModelConfig, payload: dict) -> dict:
        reply = self._oracle.send(config, payload)
        message = reply["choices"][0]["message"]
        with self._lock:
            first = message["content"] not in self._replied
            self._replied.add(message["content"])
        if first:
            message["content"] = message["content"].rstrip().rstrip(";")
        return reply


# ---------------------------------------------------------------------------
# Evaluation and reports

@dataclass(frozen=True)
class TaskResult:
    id: str
    group: str
    success: bool
    accurate: bool
    passes: int
    diagnostics_history: tuple[tuple[str, ...], ...]
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    per_task: tuple[TaskResult, ...]
    success_count: int
    accurate_count: int
    total: int
    mean_pass: float

    @property
    def success_rate(self) -> float:
        return self.success_count / self.total

    @property
    def accuracy(self) -> float:
        return self.accurate_count / self.total


def evaluate(
    tasks: Sequence[TaskRecord],
    config: ModelConfig,
    parts_template: PromptParts,
    world: World,
    max_passes: int = DEFAULT_MAX_PASSES,
    transport: Transport | None = None,
    parallelism: int = 1,
) -> EvalReport:
    """Run every task through the translation loop, execute the successes in
    the simulator, and aggregate the three metrics. Per-task transport errors
    are recorded as failures with pass = max_passes, never aborts."""
    if not tasks:
        raise ValueError("tasks must be non-empty")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def worker(task: TaskRecord) -> TaskResult:
        parts = replace(parts_template, task=task.text)
        try:
            outcome = translate(parts, config, max_passes, transport=transport)
        except TranslationAborted as err:
            return TaskResult(task.id, task.group, False, False, max_passes, (), error=str(err))
        history = tuple(
            tuple(render(d) for d in diagnostics) for _, diagnostics in outcome.raw_history
        )
        success = outcome.verified
        accurate = success and evaluate_accuracy(run(outcome.program, world), task.expectation)
        return TaskResult(task.id, task.group, success, accurate, outcome.passes, history)

    if parallelism == 1:
        results = [worker(task) for task in tasks]
    else:
        # Imported here: it loads logging and more, which serial runs never need.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(worker, tasks))
    results.sort(key=lambda r: r.id)
    return EvalReport(
        per_task=tuple(results),
        success_count=sum(r.success for r in results),
        accurate_count=sum(r.accurate for r in results),
        total=len(results),
        mean_pass=sum(r.passes for r in results) / len(results),
    )


def report_to_json(report: EvalReport) -> str:
    doc = {
        "total": report.total,
        "success_count": report.success_count,
        "success_rate": report.success_rate,
        "accuracy_count": report.accurate_count,
        "accuracy": report.accuracy,
        "mean_pass": report.mean_pass,
        "per_task": [asdict(r) for r in report.per_task],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def report_to_csv(report: EvalReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "group", "success", "accurate", "passes"])
    for r in report.per_task:
        writer.writerow(
            [r.id, r.group, str(r.success).lower(), str(r.accurate).lower(), r.passes]
        )
    return buffer.getvalue()
