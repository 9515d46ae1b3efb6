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
from keyword import iskeyword

from .diagnostics import render
from .parser import check
from .syntax import IDENTIFIER_RE, Number, Program, STATEMENT_SCHEMAS, render_program


class ManifestError(ValueError):
    """Malformed or incomplete skill manifest."""


class GenerationError(ValueError):
    """Code generation invoked on a program that is not verified."""


@dataclass(frozen=True)
class SkillBinding:
    """Binds one keyword to a target interface function. Every way of building
    one checks it, or raises ManifestError, as the names are emitted verbatim:
    a known keyword, a function that is an identifier, a module of dotted
    identifiers, none a Python keyword, and param_schema the statement form."""

    keyword: str
    module_path: str
    function_name: str
    param_schema: tuple[str, ...]

    def __post_init__(self) -> None:
        kw, module, function = self.keyword, self.module_path, self.function_name
        if kw not in STATEMENT_SCHEMAS:
            raise ManifestError(f"unknown keyword {kw!r} in manifest")
        if not isinstance(module, str) or not module:
            raise ManifestError(f"binding for {kw!r} needs a module name")
        if not isinstance(function, str) or not function:
            raise ManifestError(f"binding for {kw!r} needs a function name")
        if not all(IDENTIFIER_RE.match(p) and not iskeyword(p) for p in module.split(".")):
            raise ManifestError(f"binding for {kw!r} has an invalid module name {module!r}")
        if not IDENTIFIER_RE.match(function) or iskeyword(function):
            raise ManifestError(f"binding for {kw!r} has an invalid function name {function!r}")
        params, expected = self.param_schema, list(STATEMENT_SCHEMAS[kw])
        if type(params) not in (list, tuple):
            raise ManifestError(f"binding for {kw!r} needs a params list")
        if list(params) != expected:
            raise ManifestError(
                f"binding for {kw!r} declares params {list(params)}, expected {expected}"
            )
        object.__setattr__(self, "param_schema", tuple(params))


@dataclass(frozen=True)
class SkillManifest:
    """A binding for every keyword, filed under that keyword. Every way of
    building one checks this, or raises ManifestError, as generate trusts it."""

    bindings: dict[str, SkillBinding]
    preamble: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for keyword, binding in self.bindings.items():
            if binding.keyword != keyword:
                raise ManifestError(f"binding for {keyword!r} is for keyword {binding.keyword!r}")
        missing = sorted(STATEMENT_SCHEMAS.keys() - self.bindings.keys())
        if missing:
            raise ManifestError(f"manifest is missing bindings for: {', '.join(missing)}")


def _reject_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ManifestError(f"duplicate key {key!r} in manifest")
        obj[key] = value
    return obj


def load_manifest(text: str) -> SkillManifest:
    """Parse a manifest document into bindings, which check themselves (see
    SkillBinding). Rejects malformed JSON, a duplicate key, a document of
    the wrong shape and any missing keyword (naming the absentees)."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ManifestError:  # a duplicate key
        raise
    except ValueError as err:  # also an integer past the int-to-str digit limit
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
        if not isinstance(entry, dict):
            raise ManifestError(f"binding for {keyword!r} must be an object")
        bindings[keyword] = SkillBinding(
            keyword, entry.get("module"), entry.get("function"), entry.get("params")
        )
    return SkillManifest(bindings, tuple(preamble))


def load_manifest_file(path) -> SkillManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_manifest(fh.read())
    except (OSError, UnicodeDecodeError, ManifestError) as err:
        raise ManifestError(f"cannot load manifest {path}: {err}") from err


def default_manifest() -> SkillManifest:
    """The manifest shipped with the package (robot_interface bindings)."""
    text = resources.files("rsl.data").joinpath("manifest.json").read_text("utf-8")
    return load_manifest(text)


def _call_line(statement, binding: SkillBinding) -> str:
    rendered_args = []
    for arg in statement.args:
        if not isinstance(arg, Number):
            rendered_args.append(json.dumps(arg))
        elif "." not in arg.raw and arg.raw[0] in "-0" and arg.raw.strip("-0"):
            # Python rejects leading zeros on a nonzero integer: 007 -> 7, -02 -> -2.
            rendered_args.append(("-" if arg.raw[0] == "-" else "") + arg.raw.lstrip("-0"))
        else:
            rendered_args.append(arg.raw)
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
    calls = []
    for statement in program.statements:
        binding = manifest.bindings[statement.keyword]
        used.setdefault(binding.module_path, set()).add(binding.function_name)
        calls.append(_call_line(statement, binding))

    lines = list(manifest.preamble)
    for module in sorted(used):
        lines.append(f"from {module} import {', '.join(sorted(used[module]))}")
    if lines and calls:
        lines.append("")
    lines += calls
    return "\n".join(lines) + ("\n" if lines else "")
