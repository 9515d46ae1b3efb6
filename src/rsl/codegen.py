"""Compile a verified program into robot control source text.

Generation walks the statement list depth-first (statements are the subtrees)
and emits one call line per statement, driven entirely by a skill-binding
manifest so the same compiler retargets to any robot platform by swapping the
manifest. The default manifest binds each keyword to a same-named function in
a "robot_interface" module and emits Python-style calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from keyword import iskeyword
from types import MappingProxyType
from typing import Mapping

from .diagnostics import render
from .parser import check
from .syntax import (
    IDENTIFIER_RE, Number, Program, STATEMENT_SCHEMAS, data_path, json_document, json_object,
    read_input, render_program,
)


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
    """A binding for every keyword, filed under that keyword, and a preamble
    of lines (a list or a tuple of strings, kept as a tuple). Every way of
    building one checks this, or raises ManifestError, as generate trusts it.
    bindings is kept as a read-only copy, and a pickled one is checked anew."""

    bindings: Mapping[str, SkillBinding]
    preamble: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        preamble = self.preamble
        if type(preamble) not in (list, tuple) or not all(isinstance(p, str) for p in preamble):
            raise ManifestError("preamble must be a list of strings")
        bindings = MappingProxyType(dict(self.bindings))
        for keyword, binding in bindings.items():
            if binding.keyword != keyword:
                raise ManifestError(f"binding for {keyword!r} is for keyword {binding.keyword!r}")
        missing = sorted(STATEMENT_SCHEMAS.keys() - bindings.keys())
        if missing:
            raise ManifestError(f"manifest is missing bindings for: {', '.join(missing)}")
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "preamble", tuple(preamble))

    def __reduce__(self):
        return SkillManifest, (dict(self.bindings), self.preamble)


def load_manifest(text: str) -> SkillManifest:
    """Parse a manifest document into bindings, which check themselves (see
    SkillBinding). Rejects malformed JSON, a duplicate key, a key that is
    not a manifest's or a binding's, a document of the wrong shape and any
    missing keyword (naming the absentees)."""
    doc = json_document(text, ManifestError, "manifest")
    json_object(doc, ManifestError, "manifest", ("preamble", "bindings"))

    raw_bindings = doc.get("bindings")
    if not isinstance(raw_bindings, dict):
        raise ManifestError("manifest requires a \"bindings\" object")

    bindings: dict[str, SkillBinding] = {}
    for keyword, entry in raw_bindings.items():
        json_object(entry, ManifestError, f"binding for {keyword!r}",
                    ("module", "function", "params"))
        bindings[keyword] = SkillBinding(
            keyword, entry.get("module"), entry.get("function"), entry.get("params")
        )
    return SkillManifest(bindings, doc.get("preamble", ()))


def load_manifest_file(path) -> SkillManifest:
    return read_input(path, ManifestError, "manifest", load_manifest)


def default_manifest() -> SkillManifest:
    """The manifest shipped with the package (robot_interface bindings)."""
    return load_manifest_file(data_path("manifest.json"))


def _call_line(statement, binding: SkillBinding) -> str:
    rendered_args = []
    for arg in statement.args:
        if not isinstance(arg, Number):
            rendered_args.append(encode_basestring_ascii(arg))  # json.dumps(arg)'s text
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

    bindings = manifest.bindings
    calls = [_call_line(statement, bindings[statement.keyword]) for statement in program.statements]
    used: dict[str, set[str]] = {}
    for keyword in {statement.keyword for statement in program.statements}:
        binding = bindings[keyword]
        used.setdefault(binding.module_path, set()).add(binding.function_name)

    lines = list(manifest.preamble)
    for module in sorted(used):
        lines.append(f"from {module} import {', '.join(sorted(used[module]))}")
    if lines and calls:
        lines.append("")
    lines += calls
    return "\n".join(lines) + ("\n" if lines else "")
