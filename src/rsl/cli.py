"""Command-line entry point: check, compile, run, translate, and eval.

Exit codes are stable across subcommands: 0 success, 1 domain failure
(diagnostics, simulation error, loop exhaustion), 2 input or configuration
error, 3 transport error. Model configuration comes from RSL_API_KEY,
RSL_BASE_URL, and RSL_MODEL, overridable per flag; every subcommand takes
--json for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codegen import ManifestError, default_manifest, generate, load_manifest_file
from .diagnostics import render
from .harness import (
    DatasetError,
    FailFirstTransport,
    OracleTransport,
    evaluate,
    load_default_tasks,
    load_tasks,
    report_to_csv,
    report_to_json,
)
from .llm import (
    ENV_API_KEY,
    LlmError,
    ModelConfig,
    ScriptedTransport,
    config_from_env,
)
from .orchestrator import (
    DEFAULT_MAX_PASSES,
    TranslationAborted,
    make_prompt_parts,
    transcript_to_json,
    translate,
)
from .parser import check
from .sim import SimError, WorldError, default_world, load_world_file, run, trace_to_jsonl
from .syntax import render_program

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_TRANSPORT = 3

# Offline transports are deterministic; retrying them is pointless.
_OFFLINE_CONFIG = dict(base_url="http://offline.invalid", api_key="offline", max_retries=0)


def _read_source(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return None


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, allow_nan=False))


def _print_diagnostics(diagnostics) -> None:
    for diagnostic in diagnostics:
        print(render(diagnostic), file=sys.stderr)


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


def _load_world_arg(path: str | None):
    try:
        return load_world_file(path) if path else default_world()
    except (OSError, WorldError) as err:
        print(f"error: {err}", file=sys.stderr)
        return None


def _load_manifest_arg(path: str | None):
    try:
        return load_manifest_file(path) if path else default_manifest()
    except (OSError, ManifestError) as err:
        print(f"error: {err}", file=sys.stderr)
        return None


def _make_backend(args) -> tuple[ModelConfig, object] | int:
    """Resolve (config, transport) from --backend; an int is an exit code."""
    if args.backend == "http":
        try:
            config = config_from_env(
                base_url=args.base_url, model_name=args.model, api_key=args.api_key
            )
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_TRANSPORT
        if not config.api_key:
            print(f"error: no API key: set {ENV_API_KEY} or pass --api-key", file=sys.stderr)
            return EXIT_TRANSPORT
        return config, None
    config = ModelConfig(model_name=args.backend, **_OFFLINE_CONFIG)
    if args.backend == "oracle":
        return config, OracleTransport()
    if args.backend == "oracle-fail-first":
        return config, FailFirstTransport()
    # scripted
    if not args.responses:
        print("error: --backend scripted requires --responses FILE", file=sys.stderr)
        return EXIT_INPUT
    try:
        responses = json.loads(Path(args.responses).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot load responses: {err}", file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        print("error: responses file must be a JSON list of strings", file=sys.stderr)
        return EXIT_INPUT
    return config, ScriptedTransport(responses)


def cmd_check(args) -> int:
    source = _read_source(args.source)
    if source is None:
        return EXIT_INPUT
    outcome = check(source)
    if args.json:
        _print_json(
            {
                "ok": not outcome.diagnostics,
                "statements": len(outcome.program.statements),
                "diagnostics": _diagnostics_json(outcome.diagnostics),
            }
        )
    else:
        _print_diagnostics(outcome.diagnostics)
    return EXIT_DOMAIN if outcome.diagnostics else EXIT_OK


def cmd_compile(args) -> int:
    source = _read_source(args.source)
    if source is None:
        return EXIT_INPUT
    manifest = _load_manifest_arg(args.manifest)
    if manifest is None:
        return EXIT_INPUT
    outcome = check(source)
    if outcome.diagnostics:
        _print_diagnostics(outcome.diagnostics)
        return EXIT_DOMAIN
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
    source = _read_source(args.source)
    if source is None:
        return EXIT_INPUT
    world = _load_world_arg(args.world)
    if world is None:
        return EXIT_INPUT
    outcome = check(source)
    if outcome.diagnostics:
        _print_diagnostics(outcome.diagnostics)
        return EXIT_DOMAIN
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
                "x": state.x,
                "y": state.y,
                "heading": state.heading,
                "cam_pan": state.cam_pan,
                "cam_tilt": state.cam_tilt,
                "held": state.held,
                "perceived": state.perceived,
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
    backend = _make_backend(args)
    if isinstance(backend, int):
        return backend
    config, transport = backend
    parts = make_prompt_parts(args.task, zero_shot=args.zero_shot)
    manifest = None
    if args.compile_to:
        manifest = _load_manifest_arg(args.manifest)
        if manifest is None:
            return EXIT_INPUT
    try:
        outcome = translate(parts, config, args.max_passes, transport=transport)
    except TranslationAborted as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.transcript:
        Path(args.transcript).write_text(
            transcript_to_json(outcome.transcript), encoding="utf-8"
        )
    last_diagnostics = outcome.raw_history[-1][1] if outcome.raw_history else ()
    if args.json:
        _print_json(
            {
                "verified": outcome.verified,
                "passes": outcome.passes,
                "program": render_program(outcome.program)
                if outcome.program is not None
                else None,
                "diagnostics": _diagnostics_json(last_diagnostics),
            }
        )
    if not outcome.verified:
        if not args.json:
            _print_diagnostics(last_diagnostics)
            print(f"not verified after {outcome.passes} pass(es)", file=sys.stderr)
        return EXIT_DOMAIN
    if not args.json:
        print(render_program(outcome.program))
        print(f"passes: {outcome.passes}")
    if args.compile_to:
        Path(args.compile_to).write_text(
            generate(outcome.program, manifest), encoding="utf-8"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    backend = _make_backend(args)
    if isinstance(backend, int):
        return backend
    config, transport = backend
    try:
        tasks = load_tasks(args.dataset) if args.dataset else load_default_tasks()
    except DatasetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    world = _load_world_arg(args.world)
    if world is None:
        return EXIT_INPUT
    parts_template = make_prompt_parts("placeholder", zero_shot=args.zero_shot)
    try:
        report = evaluate(
            tasks,
            config,
            parts_template,
            world,
            max_passes=args.max_passes,
            transport=transport,
            parallelism=args.parallelism,
        )
    except LlmError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
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

    p_check = subparsers.add_parser("check", help="verify a .rsl source file")
    p_check.add_argument("source")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_compile = subparsers.add_parser("compile", help="compile a verified program")
    p_compile.add_argument("source")
    p_compile.add_argument("--manifest", help="skill manifest JSON (default: built-in)")
    p_compile.add_argument("-o", "--output", help="write here instead of stdout")
    p_compile.add_argument("--json", action="store_true")
    p_compile.set_defaults(func=cmd_compile)

    p_run = subparsers.add_parser("run", help="execute a program in the simulator")
    p_run.add_argument("source")
    p_run.add_argument("--world", help="world JSON (default: built-in benchmark world)")
    p_run.add_argument("--trace", help="trace output path (default: SOURCE.trace.jsonl)")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_translate = subparsers.add_parser(
        "translate", help="translate a natural-language task into a verified program"
    )
    p_translate.add_argument("task")
    _add_backend_flags(p_translate)
    p_translate.add_argument("--compile-to", help="also compile the verified program here")
    p_translate.add_argument("--manifest", help="manifest for --compile-to")
    p_translate.add_argument("--transcript", help="write the chat transcript JSON here")
    p_translate.add_argument("--json", action="store_true")
    p_translate.set_defaults(func=cmd_translate)

    p_eval = subparsers.add_parser("eval", help="run the 25-task benchmark")
    p_eval.add_argument("--dataset", help="task dataset JSON (default: built-in)")
    p_eval.add_argument("--world", help="world JSON (default: built-in)")
    _add_backend_flags(p_eval)
    p_eval.add_argument("--parallelism", type=int, default=1)
    p_eval.add_argument("--report-json", default="eval_report.json")
    p_eval.add_argument("--report-csv", default="eval_report.csv")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
