"""Robot Skill Language toolchain.

A small command language for robot skills (12 statement forms), its compiler
(lexer, LL(1) parser, semantic validation, nine-category diagnostics), a
manifest-driven code generator, a 2D kinematic simulator used as the accuracy
oracle, and an LLM translation loop that repairs generated programs from
compiler feedback until they verify.
"""

from types import ModuleType as _ModuleType

from .codegen import (
    GenerationError,
    ManifestError,
    SkillBinding,
    SkillManifest,
    default_manifest,
    generate,
    load_manifest,
    load_manifest_file,
)
from .diagnostics import Category, Diagnostic, compose_feedback
from .diagnostics import render as render_diagnostic
from .harness import (
    DatasetError,
    EvalReport,
    FailFirstTransport,
    OracleTransport,
    TaskExpectation,
    TaskRecord,
    TaskResult,
    evaluate,
    evaluate_accuracy,
    load_default_tasks,
    load_tasks,
    report_to_csv,
    report_to_json,
)
from .lexer import LexOutcome, lex
from .llm import (
    AuthError,
    ChatMessage,
    HttpTransport,
    LlmError,
    ModelConfig,
    ProtocolError,
    RequestRejected,
    ScriptedTransport,
    TransportError,
    complete,
    config_from_env,
)
from .orchestrator import (
    LoopOutcome,
    PromptParts,
    TranslationAborted,
    build_prompt,
    default_shots,
    default_system_message,
    extract_rsl,
    make_prompt_parts,
    translate,
)
from .parser import ParseOutcome, check, parse, validate
from .sim import (
    GraspOutOfRange,
    HandFull,
    RobotState,
    SimError,
    TraceRecord,
    UnknownObject,
    World,
    WorldError,
    default_world,
    load_world,
    load_world_file,
    run,
    step,
    trace_to_jsonl,
)
from .syntax import (
    KEYWORDS,
    Number,
    Program,
    STATEMENT_SCHEMAS,
    SourceSpan,
    Statement,
    Token,
    TokenKind,
    render_program,
    render_statement,
)

__version__ = "0.1.0"

# The public API is every name imported above; the submodules are not part of it.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
