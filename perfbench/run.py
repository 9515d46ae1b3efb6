#!/usr/bin/env python3
"""Benchmark of the rsl toolchain: three offline workloads through the
public rsl API, standard library only; the ops run in one process and one
thread.

    python3 perfbench/run.py --workload compile-long --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all

A run sets rsl up in fresh interpreters (import from this checkout's src/,
then load the default tasks, world, manifest and prompt parts), several
times before its ops and again after them, and reports the median as
setup_s. It then runs ops in a closed loop with one caller, whole cycles of
seeded inputs at a time, for about --seconds and at least 100 ops. Times are
scaled by a calibration loop run between ops, which removes most of the
slowdown that other tenants of a shared machine cause. Every output is
checked against a reference from inputs.py, which does not use rsl. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs half the
time untraced and half traced, prints the per-layer metrics and writes the
spans to perfbench/out/. The last line of stdout is one JSON object:
correct, attempted, failed, metrics. Metric names and units come from
BENCHMARK.json. --workload all runs every workload untraced and traced,
each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import inputs
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_OPS = 100
# Set-ups in fresh interpreters before the ops, and as many after them.
SETUP_REPEATS = 7
WARMUP_OPS = 3
# Bounds the traced run's memory and trace file.
MAX_SPANS = 200_000
# Calibration: a fixed piece of pure-Python work from this benchmark's own
# reference code (no rsl), run between ops at least every CALIBRATE_EVERY
# seconds. Other tenants of a shared machine slow it and rsl alike, by up to
# several times, for seconds to minutes at a time. So every op time is
# scaled by CALIBRATION_REFERENCE_S over the mean of the calibration times
# measured just before and just after it: reported op times are seconds at
# the speed where the calibration takes CALIBRATION_REFERENCE_S, roughly
# that of one vCPU of the 2-vCPU Intel Xeon VM the benchmark was written on.
CALIBRATION_STATEMENTS = 300
CALIBRATE_EVERY = 0.02
CALIBRATION_REFERENCE_S = 0.0012
# A reply rendered back as this diagnostic is the single-line fence that
# extract_rsl does not unwrap (ROADMAP open item 4).
BACKTICK_DIAGNOSTIC = "The ` is an illegal character."
# Run by a fresh interpreter: import rsl from the given source directory and
# load what every op needs. Its own calibration, a loop over builtins only so
# that it imports nothing rsl would, runs three times before the set-up and
# three times after it. Prints the set-up seconds, the two median
# calibration seconds, and where rsl came from.
SETUP_SCRIPT = """
import sys, time
def calibrate():
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        key = "k%d" % (i % 97)
        table[key] = table.get(key, 0.0) + i * 0.5
        ", ".join([key, str(i)]).split(",")
    return time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
before = sorted(calibrate() for _ in range(3))[1]
start = time.perf_counter()
import rsl
rsl.load_default_tasks(), rsl.default_world(), rsl.default_manifest()
rsl.make_prompt_parts("placeholder task")
elapsed = time.perf_counter() - start
after = sorted(calibrate() for _ in range(3))[1]
print(elapsed, before, after, rsl.__file__)
"""
# Seconds the set-up script's calibration takes at the reference speed;
# set-up times are scaled to it as op times are to CALIBRATION_REFERENCE_S.
SETUP_CALIBRATION_REFERENCE_S = 0.002


def make_calibration(data):
    """Returns a function that runs the calibration work once and returns
    the seconds it took."""
    statements = inputs.compile_program(
        random.Random("calibration"), CALIBRATION_STATEMENTS, sorted(data.objects), fails=False)

    def calibrate():
        start = time.perf_counter()
        inputs.expected_ast(statements)
        inputs.expected_code(statements, data.manifest)
        inputs.execute(statements, data)
        return time.perf_counter() - start

    return calibrate


def scale(seconds, before, after):
    """seconds at the reference speed, from the calibrations around them."""
    return seconds * CALIBRATION_REFERENCE_S * 2 / (before + after)


def setup_times(repeats):
    """Cold set-up times, each in a fresh interpreter, so every import that
    rsl makes (its own modules, the standard library's, requests) counts.
    Each is scaled by that interpreter's calibrations."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed, before, after, origin = done.stdout.split(maxsplit=3)
        if not Path(origin.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported rsl from {origin.strip()}, not from {SRC}")
        times.append(float(elapsed) * SETUP_CALIBRATION_REFERENCE_S * 2 / (float(before) + float(after)))
    return times


def load_env():
    """Import rsl from this checkout into this process and load the defaults
    every op needs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rsl = importlib.import_module("rsl")
    if not Path(rsl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported rsl from {rsl.__file__}, not from {SRC}")
    return SimpleNamespace(
        rsl=rsl,
        tasks=rsl.load_default_tasks(),
        world=rsl.default_world(),
        manifest=rsl.default_manifest(),
        parts=rsl.make_prompt_parts("placeholder task"),
    )


def digest(value) -> bytes:
    """A reference kept as the hash of its repr, so that the references of a
    whole cycle add next to nothing to the process's memory."""
    return hashlib.sha256(repr(value).encode("utf-8")).digest()


def observed_ast(program):
    return tuple(
        (s.keyword, tuple((a.raw, a.value) if hasattr(a, "raw") else a for a in s.args))
        for s in program.statements
    )


def pose_of(state):
    return (state.x, state.y, state.heading, state.cam_pan, state.cam_tilt,
            state.held, state.perceived)


class CompileLong:
    """One op: check -> generate(default manifest) -> run(default world) ->
    trace_to_jsonl, on one clean program. An item is (source, statements,
    digest of the syntax tree, digest of the code, executor result)."""

    extra_spans = ()
    required_spans = ("lexer.lex", "parser.check", "parser.parse", "parser.validate",
                      "codegen.generate", "sim.run", "sim.trace_export")

    def __init__(self, env, data, seed):
        self.env = env
        self.cases = [
            (case.source, len(case.statements),
             digest(inputs.expected_ast(case.statements)),
             digest(inputs.expected_code(case.statements, data.manifest)),
             inputs.execute(case.statements, data))
            for case in inputs.compile_cases(seed, data)
        ]

    @staticmethod
    def size(item):
        return item[1]

    def op(self, item):
        rsl = self.env.rsl
        checked = rsl.check(item[0])
        code = rsl.generate(checked.program, self.env.manifest)
        outcome = rsl.run(checked.program, self.env.world)
        state = outcome.state if isinstance(outcome, rsl.SimError) else outcome
        return (checked, code, outcome, state, rsl.trace_to_jsonl(state)), item[1]

    def verdict(self, item, output):
        _, _, ast, code, (kind, executed, pose) = item
        checked, generated, outcome, state, jsonl = output
        observed_kind = type(outcome).__name__ if isinstance(outcome, Exception) else "ok"
        records = jsonl.splitlines()
        last = json.loads(records[-1]) if records else None
        ok = (
            not checked.diagnostics
            and digest(observed_ast(checked.program)) == ast
            and digest(generated) == code
            and observed_kind == kind
            and len(state.trace) == executed == len(records)
            and inputs.pose_matches(pose, pose_of(state))
            and (last is None or (inputs.close(last["x"], pose[0]) and inputs.close(last["y"], pose[1])))
        )
        return "ok" if ok else "wrong"


class CheckBroken:
    """One op: check -> compose_feedback, on one long broken program. An
    item is (source, statements, digest of the injected (category, line,
    token) list, digest of the feedback)."""

    extra_spans = ()
    required_spans = ("lexer.lex", "parser.check", "parser.parse", "parser.validate",
                      "diagnostics.feedback", "diagnostics.render")

    def __init__(self, env, data, seed):
        self.env = env
        self.cases = [
            (c.source, c.size, digest(c.expected), digest(inputs.expected_feedback(c)))
            for c in inputs.broken_cases(seed, data)
        ]

    @staticmethod
    def size(item):
        return item[1]

    def op(self, item):
        rsl = self.env.rsl
        checked = rsl.check(item[0])
        return (checked, rsl.compose_feedback(checked.diagnostics, item[0])), item[1]

    def verdict(self, item, output):
        _, _, expected, feedback = item
        checked, composed = output
        found = tuple((d.category.value, d.span.line, d.token_text) for d in checked.diagnostics)
        return "ok" if digest(found) == expected and digest(composed) == feedback else "wrong"


class StandInModel:
    """Seeded stand-in for a chat model: replies with its script in order,
    then repeats the last reply. Implements the rsl transport interface."""

    def __init__(self, case):
        self.case = case
        self.sent = 0

    def send(self, config, payload):
        if not any(m["role"] == "user" and m["content"] == self.case.task for m in payload["messages"]):
            raise RuntimeError("stand-in model: the task is not in the prompt")
        reply = self.case.replies[min(self.sent, len(self.case.replies) - 1)]
        self.sent += 1
        return {"choices": [{"message": {"role": "assistant", "content": reply}}]}


class RepairLoop:
    """One op: one task through evaluate([task], ..., parallelism=1) against
    a stand-in that sends k broken replies, then the oracle program."""

    extra_spans = ((StandInModel, "send", "llm.model_wait"),)
    required_spans = ("harness.evaluate", "harness.accuracy", "orchestrator.prompt_parts",
                      "orchestrator.translate", "orchestrator.extract", "llm.complete",
                      "llm.model_wait", "lexer.lex", "parser.check", "parser.parse",
                      "parser.validate", "diagnostics.feedback", "diagnostics.render", "sim.run")

    def __init__(self, env, data, seed):
        self.env = env
        by_text = {task.text: task for task in env.tasks}
        self.cases = [(by_text[c.task], c) for c in inputs.repair_cases(seed, data)]
        self.config = env.rsl.ModelConfig(base_url="http://localhost", model_name="stand-in")

    @staticmethod
    def size(item):
        return item[1].statements

    def op(self, item):
        task, case = item
        model = StandInModel(case)
        report = self.env.rsl.evaluate(
            [task], self.config, self.env.parts, self.env.world,
            max_passes=inputs.MAX_PASSES, transport=model, parallelism=1,
        )
        return report.per_task[0], model.sent * case.statements

    def verdict(self, item, result):
        case = item[1]
        if (result.success, result.accurate, result.passes) == case.expected:
            return "ok"
        # Still a failed op; it only does not make the run incorrect.
        known = (
            case.final_shape == "inline_fence"
            and case.broken_count < len(result.diagnostics_history)
            and any(BACKTICK_DIAGNOSTIC in line for line in result.diagnostics_history[case.broken_count])
        )
        return "known-defect" if known else "wrong"


WORKLOADS = {"repair-loop": RepairLoop, "compile-long": CompileLong, "check-broken": CheckBroken}


def measure(workload, seconds, calibrate, tracer=None):
    """Closed loop, one caller: whole cycles over the inputs, each item once
    a cycle, with a calibration after any op that ends CALIBRATE_EVERY
    seconds or more after the last one. Cycles go on while the next one, as
    long as the last, still ends within seconds and the tracer holds fewer
    than MAX_SPANS spans; at least MIN_OPS ops run. Returns every op's
    scaled time, the statements the ops handled, and the verdict counts.
    Times are kept in an array of doubles, so that the benchmark's own
    memory hardly grows with the number of ops."""
    times, pending, statements, verdicts = array("d"), [], 0, Counter()
    previous = calibrate()
    last_calibration = start = time.perf_counter()
    ops, cycle_s = 0, 0.0

    def more():
        if ops < MIN_OPS:
            return True
        full = tracer is not None and len(tracer.spans) >= MAX_SPANS
        return not full and time.perf_counter() - start + cycle_s <= seconds

    def flush():
        nonlocal previous, last_calibration
        current = calibrate()
        times.extend(scale(t, previous, current) for t in pending)
        pending.clear()
        previous, last_calibration = current, time.perf_counter()

    while more():
        cycle_start = time.perf_counter()
        for item in workload.cases:
            if tracer is not None:
                tracer.begin_op(workload.size(item))
            began = time.perf_counter()
            try:
                output, handled = workload.op(item)
            except Exception:  # the op failed; count it and keep measuring
                pending.append(time.perf_counter() - began)
                if not verdicts["raised"]:
                    traceback.print_exc()
                verdicts["raised"] += 1
            else:
                pending.append(time.perf_counter() - began)
                statements += handled
                verdicts[workload.verdict(item, output)] += 1
            if time.perf_counter() - last_calibration >= CALIBRATE_EVERY:
                flush()
        ops += len(workload.cases)
        cycle_s = time.perf_counter() - cycle_start
    flush()
    return times, statements, verdicts


def percentile_ms(times, q):
    ms = [t * 1e3 for t in times]
    return statistics.median(ms) if q == 50 else statistics.quantiles(ms, n=10, method="inclusive")[8]


def run_workload(name, seed, seconds, trace):
    """Returns the metrics, the verdict counts and the names of required
    spans that the traced run did not record."""
    data = inputs.load_data(SRC / "rsl" / "data")
    calibrate = make_calibration(data)
    if not trace:
        setups = setup_times(SETUP_REPEATS)
    workload = WORKLOADS[name](load_env(), data, seed)
    for item in workload.cases[:WARMUP_OPS]:
        workload.op(item)
    if not trace:
        times, statements, verdicts = measure(workload, seconds, calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Set up again after the ops, so that the median spans the run.
        setups += setup_times(SETUP_REPEATS)
        metrics = {
            "op_ms_p50": percentile_ms(times, 50),
            "op_ms_p90": percentile_ms(times, 90),
            "stmts_per_s": statements / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        return metrics, verdicts, []
    plain, _, verdicts = measure(workload, seconds / 2, calibrate)
    tracer = Tracer()
    with tracer.installed(workload.extra_spans):
        traced, _, traced_verdicts = measure(workload, seconds / 2, calibrate, tracer)
    verdicts += traced_verdicts
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = percentile_ms(traced, 50) / percentile_ms(plain, 50)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}.jsonl")
    calls = tracer.call_counts()
    return metrics, verdicts, [n for n in workload.required_spans if not calls[n]]


def result_line(spec, metrics, verdicts, trace, unrecorded=()):
    """Print every metric by name and unit, then the JSON result. A required
    span that the traced run did not record makes the run incorrect: its
    layer's metrics would read 0, which looks like a gain."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = sum(verdicts.values())
    failed = attempted - verdicts["ok"]
    for m in declared:
        print(f"{m['name']:42} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"{'failed_frac':42} {failed / attempted:14.6g} ratio  ({dict(verdicts)})")
    if unrecorded:
        print(f"required spans not recorded: {', '.join(unrecorded)}", file=sys.stderr)
    return json.dumps({
        "correct": verdicts["wrong"] == 0 and verdicts["raised"] == 0 and not unrecorded,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    })


def run_all(spec, seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    rows: dict[str, dict[str, str]] = {}
    for trace in (0, 1):
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed_frac = result["failed"] / result["attempted"]
            for metric, entry in {**result["metrics"], "failed_frac": {"value": failed_frac, "unit": "ratio"}}.items():
                rows.setdefault(f"{metric} [{entry['unit']}]", {})[name] = f"{entry['value']:.6g}"
            rows.setdefault("correct", {})[name] = str(result["correct"]).lower()
    print(f"{'metric':48}" + "".join(f"{name:>16}" for name in WORKLOADS))
    for metric, values in rows.items():
        print(f"{metric:48}" + "".join(f"{values.get(name, '-'):>16}" for name in WORKLOADS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rsl" / "__init__.py").is_file():
        print(f"no rsl sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        run_all(spec, args.seed, seconds)
        return 0
    metrics, verdicts, unrecorded = run_workload(args.workload, args.seed, seconds, args.trace)
    print(result_line(spec, metrics, verdicts, args.trace, unrecorded))
    return 0


if __name__ == "__main__":
    sys.exit(main())
