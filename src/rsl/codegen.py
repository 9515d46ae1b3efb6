"""Compile a verified program into robot control source text.

Generation walks the statement list depth-first (statements are the subtrees)
and emits one call line per statement, driven entirely by a skill-binding
manifest so the same compiler retargets to any robot platform by swapping the
manifest. The default manifest binds each keyword to a same-named function in
a "robot_interface" module and emits Python-style calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .diagnostics import render
from .parser import check
from .syntax import IDENTIFIER_RE, Number, Program, STATEMENT_SCHEMAS, render_program


class ManifestError(ValueError):
    """Malformed or incomplete skill manifest."""


class GenerationError(ValueError):
    """Code generation invoked outside its contract (unverified program or
    statement without a binding)."""


@dataclass(frozen=True)
class SkillBinding:
    """Binds one keyword to a target interface function."""

    keyword: str
    module_path: str
    function_name: str
    param_schema: tuple[str, ...]


@dataclass(frozen=True)
class SkillManifest:
    bindings: dict[str, SkillBinding]
    preamble: tuple[str, ...] = ()


def _reject_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ManifestError(f"duplicate key {key!r} in manifest")
        obj[key] = value
    return obj


def load_manifest(text: str) -> SkillManifest:
    """Parse and validate a manifest document.

    Rejects malformed JSON, duplicate or unknown keywords, parameter schemas
    that do not match the fixed statement forms, and any missing keyword
    (naming the absentees). Module and function names go into the generated
    source verbatim, so a function must be an identifier and a module
    dot-separated identifiers.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ManifestError:
        raise
    except json.JSONDecodeError as err:
        raise ManifestError(f"manifest is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")

    preamble = doc.get("preamble", [])
    if not isinstance(preamble, list) or not all(isinstance(p, str) for p in preamble):
        raise ManifestError("preamble must be a list of strings")

    raw_bindings = doc.get("bindings")
    if not isinstance(raw_bindings, dict):
        raise ManifestError("manifest requires a \"bindings\" object")

    bindings: dict[str, SkillBinding] = {}
    for keyword, entry in raw_bindings.items():
        if keyword not in STATEMENT_SCHEMAS:
            raise ManifestError(f"unknown keyword {keyword!r} in manifest")
        if not isinstance(entry, dict):
            raise ManifestError(f"binding for {keyword!r} must be an object")
        module = entry.get("module")
        function = entry.get("function")
        params = entry.get("params")
        if not isinstance(module, str) or not module:
            raise ManifestError(f"binding for {keyword!r} needs a module name")
        if not isinstance(function, str) or not function:
            raise ManifestError(f"binding for {keyword!r} needs a function name")
        if not all(IDENTIFIER_RE.match(part) for part in module.split(".")):
            raise ManifestError(
                f"binding for {keyword!r} has an invalid module name {module!r}"
            )
        if not IDENTIFIER_RE.match(function):
            raise ManifestError(
                f"binding for {keyword!r} has an invalid function name {function!r}"
            )
        if not isinstance(params, list):
            raise ManifestError(f"binding for {keyword!r} needs a params list")
        expected = list(STATEMENT_SCHEMAS[keyword])
        if params != expected:
            raise ManifestError(
                f"binding for {keyword!r} declares params {params}, expected {expected}"
            )
        bindings[keyword] = SkillBinding(keyword, module, function, tuple(params))

    missing = sorted(STATEMENT_SCHEMAS.keys() - bindings.keys())
    if missing:
        raise ManifestError(f"manifest is missing bindings for: {', '.join(missing)}")
    return SkillManifest(bindings, tuple(preamble))


def load_manifest_file(path) -> SkillManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return load_manifest(fh.read())


def default_manifest() -> SkillManifest:
    """The manifest shipped with the package (robot_interface bindings)."""
    text = resources.files("rsl.data").joinpath("manifest.json").read_text("utf-8")
    return load_manifest(text)


def _call_line(statement, binding: SkillBinding) -> str:
    rendered_args = []
    for arg in statement.args:
        if isinstance(arg, Number):
            rendered_args.append(arg.raw)
        else:
            rendered_args.append(json.dumps(arg))
    return f"{binding.function_name}({', '.join(rendered_args)})"


def generate(program: Program, manifest: SkillManifest) -> str:
    """Emit the control program: import preamble, then one call per statement
    in source order. Output is deterministic for identical inputs.

    The program must be verified. A program that check() verified carries
    its mark and is trusted as is; any other program is rendered and checked
    here, and generation refuses on any diagnostic.
    """
    if not program.verified:
        diagnostics = check(render_program(program)).diagnostics
        if diagnostics:
            raise GenerationError(f"program is not verified: {render(diagnostics[0])}")

    used: dict[str, set[str]] = {}
    for statement in program.statements:
        binding = manifest.bindings.get(statement.keyword)
        if binding is None:
            raise GenerationError(f"no binding for keyword {statement.keyword!r}")
        used.setdefault(binding.module_path, set()).add(binding.function_name)

    lines = list(manifest.preamble)
    for module in sorted(used):
        lines.append(f"from {module} import {', '.join(sorted(used[module]))}")
    if lines and program.statements:
        lines.append("")
    for statement in program.statements:
        lines.append(_call_line(statement, manifest.bindings[statement.keyword]))
    return "\n".join(lines) + ("\n" if lines else "")
