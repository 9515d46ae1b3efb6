import json
import random
from dataclasses import replace

import pytest

import rsl.codegen as codegen_mod
from rsl import (
    GenerationError,
    ManifestError,
    Number,
    Program,
    Statement,
    check,
    default_manifest,
    generate,
    load_manifest,
    render_statement,
)
from rsl.syntax import STATEMENT_SCHEMAS

from support import random_program, random_statement


def manifest_doc():
    return {
        "preamble": [],
        "bindings": {
            kw: {"module": "robot_interface", "function": kw, "params": list(schema)}
            for kw, schema in STATEMENT_SCHEMAS.items()
        },
    }


def test_default_manifest_loads():
    manifest = default_manifest()
    assert set(manifest.bindings) == set(STATEMENT_SCHEMAS)


def test_happy_path_manifest():
    manifest = load_manifest(json.dumps(manifest_doc()))
    assert manifest.bindings["goto"].param_schema == ("number", "number")


def test_missing_keyword_is_named():
    doc = manifest_doc()
    del doc["bindings"]["grasp"]
    with pytest.raises(ManifestError, match="grasp"):
        load_manifest(json.dumps(doc))


def test_goto_arity_mismatch_rejected():
    doc = manifest_doc()
    doc["bindings"]["goto"]["params"] = ["number"]
    with pytest.raises(ManifestError, match="goto"):
        load_manifest(json.dumps(doc))


def test_param_kind_mismatch_rejected():
    doc = manifest_doc()
    doc["bindings"]["grasp"]["params"] = ["number"]
    with pytest.raises(ManifestError, match="grasp"):
        load_manifest(json.dumps(doc))


def test_unknown_keyword_rejected():
    doc = manifest_doc()
    doc["bindings"]["fly"] = {"module": "m", "function": "fly", "params": ["number"]}
    with pytest.raises(ManifestError, match="fly"):
        load_manifest(json.dumps(doc))


@pytest.mark.parametrize(
    "field, name",
    [
        ("module", "os\nimport shutil; shutil.rmtree('/tmp/x')  #"),
        ("module", "robot_interface."),
        ("module", "robot..arm"),
        ("function", "forward(); import os  #"),
        ("function", "robot.forward"),
        ("function", "9lives"),
    ],
)
def test_binding_names_must_be_identifiers(field, name):
    doc = manifest_doc()
    doc["bindings"]["forward"][field] = name
    with pytest.raises(ManifestError, match="forward"):
        load_manifest(json.dumps(doc))


def test_dotted_module_name_accepted():
    doc = manifest_doc()
    doc["bindings"]["forward"]["module"] = "robots.arm_v2"
    program = check("forward 1;").program
    emitted = generate(program, load_manifest(json.dumps(doc)))
    assert emitted == "from robots.arm_v2 import forward\n\nforward(1)\n"


def test_duplicate_keyword_rejected():
    doc = json.dumps(manifest_doc())
    duplicated = doc.replace(
        '"grasp": {"module": "robot_interface", "function": "grasp", "params": ["object"]}',
        '"grasp": {"module": "robot_interface", "function": "grasp", "params": ["object"]}, '
        '"grasp": {"module": "robot_interface", "function": "grasp2", "params": ["object"]}',
    )
    assert duplicated != doc
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(duplicated)


def test_malformed_json_rejected():
    with pytest.raises(ManifestError, match="JSON"):
        load_manifest("{not json")


def test_generate_two_statements():
    program = check("forward 1.5; grasp cup;").program
    emitted = generate(program, default_manifest())
    assert emitted == (
        "from robot_interface import forward, grasp\n"
        "\n"
        "forward(1.5)\n"
        'grasp("cup")\n'
    )


def test_generate_goto_keeps_argument_order():
    program = check("goto 3, 4;").program
    emitted = generate(program, default_manifest())
    assert "goto(3, 4)" in emitted


def test_generate_renders_numbers_from_raw_text():
    program = check("forward 1.50;").program
    assert "forward(1.50)" in generate(program, default_manifest())


def test_generate_empty_program_emits_preamble_only():
    doc = manifest_doc()
    doc["preamble"] = ["import rospy"]
    manifest = load_manifest(json.dumps(doc))
    assert generate(Program(), manifest) == "import rospy\n"
    assert generate(Program(), default_manifest()) == ""


def test_generate_is_deterministic():
    program = check("perceive; approach door; goto 0, 1;").program
    manifest = default_manifest()
    assert generate(program, manifest) == generate(program, manifest)


def test_line_bijection_over_random_programs():
    rng = random.Random(42)
    manifest = default_manifest()
    for _ in range(50):
        program = random_program(rng)
        emitted = generate(program, manifest)
        lines = [line for line in emitted.splitlines() if line]
        call_lines = [line for line in lines if not line.startswith("from ")]
        assert len(call_lines) == len(program.statements)
        for statement, line in zip(program.statements, call_lines):
            assert line.startswith(f"{statement.keyword}(")


def test_generate_rejects_unverified_program():
    bad = Program((Statement("forward", (Number(0.0, "0"),)),))
    with pytest.raises(GenerationError, match="not verified"):
        generate(bad, default_manifest())
    sneaky = Program((Statement("approach", ("3apple",)),))
    with pytest.raises(GenerationError, match="not verified"):
        generate(sneaky, default_manifest())


def test_manifest_closure():
    manifest = default_manifest()
    program = check("forward 1; grasp cup; perceive;").program
    emitted = generate(program, manifest)
    known = {b.function_name for b in manifest.bindings.values()}
    for line in emitted.splitlines():
        if line and not line.startswith("from "):
            assert line.split("(", 1)[0] in known


def test_module_import_dedup():
    program = check("forward 1; forward 2; backward 3;").program
    emitted = generate(program, default_manifest())
    assert emitted.count("from robot_interface import") == 1
    assert "from robot_interface import backward, forward\n" in emitted


def count_checks(monkeypatch):
    calls = []
    original = codegen_mod.check

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(codegen_mod, "check", counting)
    return calls


def test_check_marks_only_verified_programs():
    assert check("forward 1; perceive;").program.verified
    assert check("").program.verified
    assert not check("forward 1; perceive").program.verified
    assert not check("forward 0;").program.verified


def test_mark_is_not_settable_and_not_compared():
    with pytest.raises(TypeError):
        Program((), "", True)  # type: ignore[call-arg]
    checked = check("forward 1;").program
    built = Program((Statement("forward", (Number(1.0, "1"),)),))
    assert checked == built and not built.verified
    assert repr(checked) == repr(Program(checked.statements, checked.source))


def test_generate_trusts_checked_program(monkeypatch):
    program = check("forward 1.5; grasp cup; goto 0, -2;").program
    calls = count_checks(monkeypatch)
    emitted = generate(program, default_manifest())
    assert calls == []
    assert emitted.endswith('forward(1.5)\ngrasp("cup")\ngoto(0, -2)\n')


def test_replaced_program_is_verified_again(monkeypatch):
    program = check("forward 1; perceive;").program
    copy = replace(program)
    assert not copy.verified
    calls = count_checks(monkeypatch)
    generate(copy, default_manifest())
    assert calls == ["forward 1;\nperceive;"]
    edited = replace(program, statements=(Statement("forward", (Number(0.0, "0"),)),))
    with pytest.raises(GenerationError, match="not verified"):
        generate(edited, default_manifest())


def test_trusted_and_rechecked_generation_agree():
    rng = random.Random(7)
    manifest = default_manifest()
    for _ in range(100):
        statements = tuple(random_statement(rng) for _ in range(rng.randrange(8)))
        checked = check("\n".join(render_statement(s) for s in statements)).program
        assert checked.verified
        assert generate(checked, manifest) == generate(Program(statements), manifest)
