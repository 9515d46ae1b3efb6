"""Command-line entry point: check, compile, run, translate, and eval.

Exit codes are stable across subcommands: 0 success, 1 domain failure
(diagnostics, simulation error, loop exhaustion), 2 input or configuration
error (including a file that cannot be read or written, or is not UTF-8),
3 transport error. main is the one place that maps an exception to exit
code 2 or 3. Model configuration comes from RSL_API_KEY,
RSL_BASE_URL, and RSL_MODEL, overridable per flag; every subcommand takes
--json for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codegen import generate, load_manifest_file
from .diagnostics import EMPTY_PROGRAM, render
from .harness import (
    FailFirstTransport, OracleTransport, evaluate, load_tasks, report_to_csv, report_to_json,
)
from .llm import ENV_API_KEY, LlmError, ModelConfig, ScriptedTransport, config_from_env
from .orchestrator import DEFAULT_MAX_PASSES, make_prompt_parts, transcript_to_json, translate
from .parser import check
from .sim import SimError, TraceRecord, load_world_file, run, trace_to_jsonl
from .syntax import data_path, json_document, read_input, render_program

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_TRANSPORT = 3

# Offline transports are deterministic; retrying them is pointless.
_OFFLINE_CONFIG = dict(base_url="http://offline.invalid", api_key="offline", max_retries=0)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, allow_nan=False))


def _diagnostics_json(diagnostics) -> list[dict]:
    return [
        {
            "category": d.category.value,
            "line": d.span.line,
            "col_start": d.span.col_start,
            "col_end": d.span.col_end,
            "token": d.token_text,
            "message": d.message,
            "rendered": render(d),
        }
        for d in diagnostics
    ]


def _make_backend(args) -> tuple[ModelConfig, object]:
    """Resolve (config, transport) from --backend. An unusable endpoint
    configuration is an LlmError, so it exits like a transport failure."""
    if args.backend == "http":
        try:
            config = config_from_env(
                base_url=args.base_url, model_name=args.model, api_key=args.api_key
            )
        except ValueError as err:
            raise LlmError(str(err)) from err
        if not config.api_key:
            raise LlmError(f"no API key: set {ENV_API_KEY} or pass --api-key")
        return config, None
    config = ModelConfig(model_name=args.backend, **_OFFLINE_CONFIG)
    if args.backend == "oracle":
        return config, OracleTransport()
    if args.backend == "oracle-fail-first":
        return config, FailFirstTransport()
    # scripted
    if not args.responses:
        raise ValueError("--backend scripted requires --responses FILE")
    responses = read_input(
        args.responses, ValueError, "responses",
        lambda text: json_document(text, ValueError, "responses"),
    )
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise ValueError(f"responses file {args.responses} must be a JSON list of strings")
    return config, ScriptedTransport(responses)


def _report(outcome, as_json: bool) -> int:
    """check's verdict: with --json the document on stdout, else each
    diagnostic rendered on stderr. Returns the exit code."""
    if as_json:
        _print_json(
            {
                "ok": not outcome.diagnostics,
                "statements": len(outcome.program.statements),
                "diagnostics": _diagnostics_json(outcome.diagnostics),
            }
        )
    else:
        for diagnostic in outcome.diagnostics:
            print(render(diagnostic), file=sys.stderr)
    return EXIT_DOMAIN if outcome.diagnostics else EXIT_OK


def cmd_check(args) -> int:
    return _report(check(read_input(args.source, ValueError, "source")), args.json)


def cmd_compile(args) -> int:
    outcome = check(read_input(args.source, ValueError, "source"))
    manifest = load_manifest_file(args.manifest)
    if outcome.diagnostics:
        return _report(outcome, args.json)
    emitted = generate(outcome.program, manifest)
    if args.output:
        Path(args.output).write_text(emitted, encoding="utf-8")
        if args.json:
            _print_json({"ok": True, "output": args.output})
    elif args.json:
        _print_json({"ok": True, "program": emitted})
    else:
        sys.stdout.write(emitted)
    return EXIT_OK


def cmd_run(args) -> int:
    outcome = check(read_input(args.source, ValueError, "source"))
    world = load_world_file(args.world)
    if outcome.diagnostics:
        return _report(outcome, args.json)
    result = run(outcome.program, world)
    failed = isinstance(result, SimError)
    state = result.state if failed else result
    trace_path = args.trace or (args.source + ".trace.jsonl")
    Path(trace_path).write_text(trace_to_jsonl(state), encoding="utf-8")
    if args.json:
        _print_json(
            {
                "ok": not failed,
                "error": str(result) if failed else None,
                "error_kind": type(result).__name__ if failed else None,
                **{name: getattr(state, name) for name in TraceRecord._fields[1:]},
                "executed": len(state.trace),
                "trace": trace_path,
            }
        )
    elif failed:
        print(f"{type(result).__name__}: {result}", file=sys.stderr)
        print(f"executed {len(state.trace)} statement(s); trace: {trace_path}")
    else:
        print(
            f"position: ({state.x:g}, {state.y:g})  heading: {state.heading:g}\n"
            f"camera: pan {state.cam_pan:g}, tilt {state.cam_tilt:g}\n"
            f"held: {state.held or 'nothing'}  perceived: {str(state.perceived).lower()}\n"
            f"executed {len(state.trace)} statement(s); trace: {trace_path}"
        )
    return EXIT_DOMAIN if failed else EXIT_OK


def cmd_translate(args) -> int:
    config, transport = _make_backend(args)
    parts = make_prompt_parts(args.task, zero_shot=args.zero_shot)
    manifest = load_manifest_file(args.manifest) if args.compile_to else None
    outcome = translate(parts, config, args.max_passes, transport=transport)
    if args.transcript:
        Path(args.transcript).write_text(transcript_to_json(outcome.transcript), encoding="utf-8")
    last_diagnostics = outcome.raw_history[-1][1]
    if args.json:
        _print_json(
            {
                "verified": outcome.verified,
                "passes": outcome.passes,
                "program": None if outcome.program is None else render_program(outcome.program),
                "diagnostics": _diagnostics_json(last_diagnostics),
            }
        )
    if not outcome.verified:
        if not args.json:
            for line in [render(d) for d in last_diagnostics] or [EMPTY_PROGRAM]:
                print(line, file=sys.stderr)
            print(f"not verified after {outcome.passes} pass(es)", file=sys.stderr)
        return EXIT_DOMAIN
    if not args.json:
        print(render_program(outcome.program))
        print(f"passes: {outcome.passes}")
    if args.compile_to:
        Path(args.compile_to).write_text(generate(outcome.program, manifest), encoding="utf-8")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, transport = _make_backend(args)
    tasks = load_tasks(args.dataset)
    world = load_world_file(args.world)
    parts_template = make_prompt_parts("placeholder", zero_shot=args.zero_shot)
    report = evaluate(
        tasks, config, parts_template, world, max_passes=args.max_passes,
        transport=transport, parallelism=args.parallelism,
    )
    Path(args.report_json).write_text(report_to_json(report), encoding="utf-8")
    Path(args.report_csv).write_text(report_to_csv(report), encoding="utf-8")
    if args.json:
        print(report_to_json(report))
    else:
        print(f"success rate: {report.success_count}/{report.total}")
        print(f"accuracy: {report.accurate_count}/{report.total}")
        print(f"mean pass: {report.mean_pass:.2f}")
        print(f"reports: {args.report_json}, {args.report_csv}")
    return EXIT_OK


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend",
        choices=["http", "oracle", "oracle-fail-first", "scripted"],
        default="http",
        help="model backend: a live endpoint or an offline deterministic one",
    )
    sub.add_argument("--responses", help="JSON list of replies for --backend scripted")
    sub.add_argument("--model", help="model name (overrides RSL_MODEL)")
    sub.add_argument("--base-url", help="endpoint base URL (overrides RSL_BASE_URL)")
    sub.add_argument("--api-key", help="API key (overrides RSL_API_KEY)")
    sub.add_argument(
        "--max-passes",
        type=int,
        default=DEFAULT_MAX_PASSES,
        help="generation attempts before giving up (1 disables feedback)",
    )
    sub.add_argument(
        "--zero-shot", action="store_true", help="omit the exemplar shots from the prompt"
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsl",
        description="Robot Skill Language compiler, simulator, and translation loop",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, func, positional, help_text in [
        ("check", cmd_check, "source", "verify a .rsl source file"),
        ("compile", cmd_compile, "source", "compile a verified program"),
        ("run", cmd_run, "source", "execute a program in the simulator"),
        ("translate", cmd_translate, "task",
         "translate a natural-language task into a verified program"),
        ("eval", cmd_eval, None, "run the 25-task benchmark"),
    ]:
        sub[name] = subparsers.add_parser(name, help=help_text)
        # The shipped files, for the subcommands that take --manifest, --world or --dataset.
        sub[name].set_defaults(func=func, manifest=data_path("manifest.json"),
                               world=data_path("world.json"), dataset=data_path("tasks.json"))
        if positional:
            sub[name].add_argument(positional)

    sub["compile"].add_argument("--manifest", help="skill manifest JSON (default: built-in)")
    sub["compile"].add_argument("-o", "--output", help="write here instead of stdout")
    sub["run"].add_argument("--world", help="world JSON (default: built-in benchmark world)")
    sub["run"].add_argument("--trace", help="trace output path (default: SOURCE.trace.jsonl)")
    _add_backend_flags(sub["translate"])
    sub["translate"].add_argument("--compile-to", help="also compile the verified program here")
    sub["translate"].add_argument("--manifest", help="manifest for --compile-to")
    sub["translate"].add_argument("--transcript", help="write the chat transcript JSON here")
    sub["eval"].add_argument("--dataset", help="task dataset JSON (default: built-in)")
    sub["eval"].add_argument("--world", help="world JSON (default: built-in)")
    _add_backend_flags(sub["eval"])
    sub["eval"].add_argument("--parallelism", type=int, default=1)
    sub["eval"].add_argument("--report-json", default="eval_report.json")
    sub["eval"].add_argument("--report-csv", default="eval_report.csv")
    for command in sub.values():
        command.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one subcommand. An LlmError exits 3; an OSError or ValueError
    (unreadable, unwritable or non-UTF-8 file, malformed JSON, dataset,
    manifest or world, bad argument) exits 2. Anything else is a bug and
    keeps its traceback."""
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except LlmError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
