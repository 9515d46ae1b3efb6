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
import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from typing import Sequence

from .diagnostics import render
from .llm import ModelConfig, Transport, TransportError
from .orchestrator import LoopOutcome, PromptParts, TranslationAborted, translate
from .sim import RobotState, SimError, World, run
from .syntax import Number

GROUP_SIZES = {"simple": 6, "ambiguous": 4, "multi_step": 6, "complex": 9}
TASK_COUNT = sum(GROUP_SIZES.values())

_PREDICATE_KINDS = {
    "sequence",
    "subsequence",
    "single_forward_in",
    "total_rotation",
    "looks",
    "only_keywords",
    "held",
    "perceived",
    "pose",
}
_LOOK_KEYWORDS = frozenset({"lookup", "lookdown", "lookleft", "lookright"})
_DEFAULT_TOL = 1e-6


class DatasetError(ValueError):
    """Malformed benchmark dataset."""


@dataclass(frozen=True)
class TaskExpectation:
    """Declarative checks over the execution trace and end state."""

    predicates: tuple[dict, ...]


@dataclass(frozen=True)
class TaskRecord:
    id: str
    group: str
    text: str
    expectation: TaskExpectation


def _validate_predicate(pred: object, task_id: str) -> dict:
    if not isinstance(pred, dict) or "kind" not in pred:
        raise DatasetError(f"task {task_id}: predicate must be an object with a kind")
    kind = pred["kind"]
    if kind not in _PREDICATE_KINDS:
        raise DatasetError(f"task {task_id}: unknown predicate kind {kind!r}")
    needs = {
        "sequence": ("actions",),
        "subsequence": ("actions",),
        "single_forward_in": ("min", "max"),
        "total_rotation": ("min", "max"),
        "looks": ("min_count",),
        "only_keywords": ("keywords",),
        "held": ("object",),
        "perceived": (),
        "pose": ("x", "y", "tol"),
    }[kind]
    for field_name in needs:
        if field_name not in pred:
            raise DatasetError(f"task {task_id}: {kind} predicate needs {field_name!r}")
    return pred


def load_tasks(path) -> list[TaskRecord]:
    """Load and validate the benchmark file: 25 unique tasks partitioned
    6 simple / 4 ambiguous / 6 multi_step / 9 complex."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise DatasetError(f"cannot read dataset: {err}") from err
    except json.JSONDecodeError as err:
        raise DatasetError(f"dataset is not valid JSON: {err}") from err
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
        if group not in GROUP_SIZES:
            raise DatasetError(f"task {task_id}: unknown group {group!r}")
        if not isinstance(text, str) or not text:
            raise DatasetError(f"task {task_id}: needs a non-empty text")
        if not isinstance(expectation, dict) or not isinstance(
            expectation.get("predicates"), list
        ):
            raise DatasetError(f"task {task_id}: needs an expectation with predicates")
        predicates = tuple(
            _validate_predicate(p, task_id) for p in expectation["predicates"]
        )
        counts[group] += 1
        records.append(TaskRecord(task_id, group, text, TaskExpectation(predicates)))

    if counts != GROUP_SIZES:
        want = " / ".join(f"{n} {g}" for g, n in GROUP_SIZES.items())
        got = " / ".join(f"{counts[g]} {g}" for g in GROUP_SIZES)
        raise DatasetError(f"expected {TASK_COUNT} tasks ({want}), got {got}")
    return records


def default_tasks_path():
    return resources.files("rsl.data").joinpath("tasks.json")


def load_default_tasks() -> list[TaskRecord]:
    with resources.as_file(default_tasks_path()) as path:
        return load_tasks(path)


# ---------------------------------------------------------------------------
# Accuracy predicates

def _match_action(pattern: str, record, tol: float) -> bool:
    """Match one trace record against "keyword arg ...". The keyword part may
    use * globs (look*); an arg of * matches anything; numeric args compare
    within tol; object args compare exactly. goto patterns separate the two
    coordinates with a space, no comma."""
    parts = pattern.split()
    statement = record.statement
    if not fnmatch.fnmatchcase(statement.keyword, parts[0]):
        return False
    arg_patterns = parts[1:]
    if len(arg_patterns) != len(statement.args):
        return False
    for arg_pattern, arg in zip(arg_patterns, statement.args):
        if arg_pattern == "*":
            continue
        if isinstance(arg, Number):
            try:
                wanted = float(arg_pattern)
            except ValueError:
                return False
            if abs(arg.value - wanted) > tol:
                return False
        elif arg_pattern != arg:
            return False
    return True


def _holds(pred: dict, state: RobotState) -> bool:
    kind = pred["kind"]
    tol = float(pred.get("tol", _DEFAULT_TOL))
    trace = state.trace

    if kind == "sequence":
        actions = pred["actions"]
        return len(trace) == len(actions) and all(
            _match_action(a, r, tol) for a, r in zip(actions, trace)
        )
    if kind == "subsequence":
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
        low, high = float(pred["min"]), float(pred["max"])
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
        return float(pred["min"]) <= abs(total) <= float(pred["max"])
    if kind == "looks":
        count = sum(1 for r in trace if r.statement.keyword in _LOOK_KEYWORDS)
        return count >= int(pred["min_count"])
    if kind == "only_keywords":
        allowed = set(pred["keywords"])
        return all(r.statement.keyword in allowed for r in trace)
    if kind == "held":
        return state.held == pred["object"]
    if kind == "perceived":
        return state.perceived
    if kind == "pose":
        return (
            abs(state.x - float(pred["x"])) <= tol
            and abs(state.y - float(pred["y"])) <= tol
        )
    raise DatasetError(f"unknown predicate kind {kind!r}")


def evaluate_accuracy(outcome: RobotState | SimError, expectation: TaskExpectation) -> bool:
    """True iff execution succeeded and every expectation predicate holds."""
    if isinstance(outcome, SimError):
        return False
    return all(_holds(pred, outcome) for pred in expectation.predicates)


# ---------------------------------------------------------------------------
# Offline transports

def _load_oracle_programs() -> dict[str, str]:
    text = resources.files("rsl.data").joinpath("oracle_programs.json").read_text("utf-8")
    return json.loads(text)


def _find_task(messages: Sequence[dict], known: dict[str, str]) -> str | None:
    for message in reversed(messages):
        if message.get("role") == "user" and message.get("content") in known:
            return message["content"]
    return None


class OracleTransport:
    """Deterministic stand-in model: replies with the hand-verified program
    for whichever benchmark task appears in the conversation."""

    def __init__(self, programs: dict[str, str] | None = None) -> None:
        self.programs = dict(programs) if programs is not None else _load_oracle_programs()

    def send(self, config: ModelConfig, payload: dict) -> dict:
        task = _find_task(payload["messages"], self.programs)
        if task is None:
            raise TransportError("oracle transport: no known task in the prompt")
        return {
            "choices": [
                {"message": {"role": "assistant", "content": self.programs[task]}}
            ]
        }


class FailFirstTransport:
    """Oracle wrapper whose first reply per task drops the final semicolon,
    forcing exactly one feedback pass before the correct program."""

    def __init__(self, programs: dict[str, str] | None = None) -> None:
        self._oracle = OracleTransport(programs)
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def send(self, config: ModelConfig, payload: dict) -> dict:
        task = _find_task(payload["messages"], self._oracle.programs)
        if task is None:
            raise TransportError("oracle transport: no known task in the prompt")
        with self._lock:
            self._calls[task] = self._calls.get(task, 0) + 1
            first = self._calls[task] == 1
        program = self._oracle.programs[task]
        if first:
            program = program.rstrip().rstrip(";")
        return {"choices": [{"message": {"role": "assistant", "content": program}}]}


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


def _evaluate_one(
    task: TaskRecord,
    config: ModelConfig,
    parts_template: PromptParts,
    world: World,
    max_passes: int,
    transport: Transport | None,
) -> TaskResult:
    parts = replace(parts_template, task=task.text)
    try:
        outcome: LoopOutcome = translate(parts, config, max_passes, transport=transport)
    except TranslationAborted as err:
        return TaskResult(
            task.id, task.group, False, False, max_passes, (), error=str(err)
        )
    history = tuple(
        tuple(render(d) for d in diagnostics) for _, diagnostics in outcome.raw_history
    )
    success = (
        outcome.verified
        and outcome.program is not None
        and len(outcome.program.statements) >= 1
    )
    accurate = False
    if success:
        accurate = evaluate_accuracy(run(outcome.program, world), task.expectation)
    return TaskResult(task.id, task.group, success, accurate, outcome.passes, history)


def evaluate(
    tasks: Sequence[TaskRecord],
    config: ModelConfig,
    parts_template: PromptParts,
    world: World,
    max_passes: int = 5,
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
        return _evaluate_one(task, config, parts_template, world, max_passes, transport)

    if parallelism == 1:
        results = [worker(task) for task in tasks]
    else:
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
        "per_task": [
            {
                "id": r.id,
                "group": r.group,
                "success": r.success,
                "accurate": r.accurate,
                "passes": r.passes,
                "diagnostics_history": [list(p) for p in r.diagnostics_history],
                "error": r.error,
            }
            for r in report.per_task
        ],
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
