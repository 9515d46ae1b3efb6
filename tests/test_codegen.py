import copy
import json
import keyword
import pickle
import random
import sys
import types
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rsl.codegen as codegen_mod
from rsl import (
    GenerationError,
    ManifestError,
    Number,
    Program,
    RobotState,
    SimError,
    SkillBinding,
    SkillManifest,
    Statement,
    World,
    check,
    default_manifest,
    generate,
    load_manifest,
    load_manifest_file,
    render_statement,
    run,
    step,
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
        ("function", "lambda"),
        ("module", "robot.class"),
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


def without(mapping, key):
    del mapping[key]
    return mapping


def test_malformed_json_rejected():
    with pytest.raises(ManifestError, match="JSON"):
        load_manifest("{not json")
    # An integer past the int-to-str digit limit makes json raise ValueError.
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest('{"preamble": [1' + "0" * 5000 + "]}")
    # A duplicate key keeps its own message.
    with pytest.raises(ManifestError, match="^duplicate key 'preamble' in manifest$"):
        load_manifest('{"preamble": [], "preamble": []}')
    forward = manifest_doc()["bindings"]["forward"]
    for doc, message in [
        ([], "must be a JSON object"),
        ({**manifest_doc(), "preamble": "import robot"}, "preamble must be a list of strings"),
        ({**manifest_doc(), "preamble": [1]}, "preamble must be a list of strings"),
        (without(manifest_doc(), "bindings"), 'requires a "bindings" object'),
        ({"bindings": []}, 'requires a "bindings" object'),
        ({"bindings": {"forward": "robot_interface.forward"}}, "'forward' must be an object"),
        ({"bindings": {"forward": without(dict(forward), "module")}}, "needs a module"),
        ({"bindings": {"forward": {**forward, "module": ""}}}, "needs a module"),
        ({"bindings": {"forward": without(dict(forward), "function")}}, "needs a function"),
        ({"bindings": {"forward": {**forward, "function": 7}}}, "needs a function"),
        ({"bindings": {"forward": without(dict(forward), "params")}}, "needs a params list"),
        ({"bindings": {"forward": {**forward, "params": "number"}}}, "needs a params list"),
    ]:
        with pytest.raises(ManifestError, match=message):
            load_manifest(json.dumps(doc))


@pytest.mark.parametrize(
    "binding, message",
    [
        (("perceive", "os", "system('echo hi');x", ()), "invalid function name"),
        (("forward", "robot_interface", "system('x');y", ("number",)), "invalid function name"),
        (("forward", "robot.class", "forward", ("number",)), "invalid module name"),
        (("goto", "robot_interface", "goto", ("number",)), r"declares params \['number'\]"),
        (("grasp", "robot_interface", "grasp", "object"), "needs a params list"),
        (("fly", "robot_interface", "fly", ("number",)), "unknown keyword 'fly'"),
    ],
    ids=[
        "injected-call", "statement-in-function", "keyword-in-module", "params", "params-string",
        "keyword",
    ],
)
def test_hand_built_binding_rejected(binding, message):
    with pytest.raises(ManifestError, match=message):
        SkillBinding(*binding)


def test_hand_built_manifest_files_each_binding_under_its_keyword():
    bindings = dict(default_manifest().bindings)
    bindings["forward"] = SkillBinding("grasp", "robot_interface", "grasp", ("object",))
    with pytest.raises(ManifestError, match="^binding for 'forward' is for keyword 'grasp'$"):
        SkillManifest(bindings)


def test_hand_built_manifest_needs_every_keyword():
    bindings = dict(default_manifest().bindings)
    del bindings["grasp"], bindings["goto"]
    with pytest.raises(ManifestError, match="^manifest is missing bindings for: goto, grasp$"):
        SkillManifest(bindings)


def test_hand_built_manifest_checks_its_preamble_and_keeps_a_copy():
    bindings = dict(default_manifest().bindings)
    for preamble in ([5], "import robot", ["import robot", None]):
        with pytest.raises(ManifestError, match="^preamble must be a list of strings$"):
            SkillManifest(bindings, preamble)
    lines = ["import robot"]
    manifest = SkillManifest(bindings, lines)
    lines.append("import os")
    assert manifest.preamble == ("import robot",)
    emitted = generate(check("perceive;").program, manifest)
    assert emitted == "import robot\nfrom robot_interface import perceive\n\nperceive()\n"


def test_manifest_bindings_cannot_change_after_the_check():
    manifest = default_manifest()
    with pytest.raises(TypeError):
        manifest.bindings["forward"] = SkillBinding("grasp", "robot_interface", "grasp", ("object",))
    with pytest.raises(TypeError):
        del manifest.bindings["perceive"]
    emitted = generate(check("forward 1; perceive;").program, manifest)
    assert emitted.endswith("\nforward(1)\nperceive()\n")


def test_manifest_keeps_its_own_copy_of_the_bindings():
    bindings = dict(default_manifest().bindings)
    manifest = SkillManifest(bindings)
    del bindings["perceive"]
    assert generate(check("perceive;").program, manifest).endswith("\nperceive()\n")


def test_manifest_survives_replace_pickle_and_deepcopy():
    manifest = replace(default_manifest(), preamble=("# robot",))
    program = check("goto 1, 2; grasp cup; perceive;").program
    copies = [pickle.loads(pickle.dumps(manifest)), copy.deepcopy(manifest), replace(manifest)]
    for copied in copies:
        assert copied == manifest
        assert generate(program, copied) == generate(program, manifest)
        with pytest.raises(TypeError):
            del copied.bindings["perceive"]


def test_unpickled_manifest_is_checked_again():
    tampered = pickle.dumps(default_manifest()).replace(b"lookleft", b"lookLeft")
    with pytest.raises(ManifestError, match="missing bindings for: lookleft$"):
        pickle.loads(tampered)


def test_hand_built_binding_keeps_params_as_a_tuple():
    assert SkillBinding("goto", "m", "f", ["number", "number"]).param_schema == ("number", "number")


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


@pytest.mark.parametrize(
    "source, call",
    [
        ("forward 007;", "forward(7)"),
        ("goto 01, -02;", "goto(1, -2)"),
        ("goto 0010, -00100;", "goto(10, -100)"),
        ("goto 000, -00;", "goto(000, -00)"),
        ("goto 00.5, -0;", "goto(00.5, -0)"),
        ("goto -007.50, 0;", "goto(-007.50, 0)"),
        ("forward 1.50;", "forward(1.50)"),
    ],
)
def test_generated_numbers_are_python_literals(source, call):
    emitted = generate(check(source).program, default_manifest())
    assert emitted.endswith(f"\n{call}\n")
    compile(emitted, "<generated>", "exec")


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


@pytest.mark.parametrize("name, content", [
    ("missing.json", None), ("latin1.json", b"\xff"), ("truncated.json", b"{"),
    pytest.param("huge.json", b'{"preamble": [1' + b"0" * 5000 + b"]}", id="huge.json-5001-digits"),
])
def test_manifest_file_errors_name_the_file(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ManifestError, match=name):
        load_manifest_file(path)


# Object names that are Python keywords or builtins must reach the robot as
# strings; "ghost" is not in the world, so approaching it fails.
EXEC_WORLD = World({"cup": (1.0, 0.5), "None": (2.0, -1.0), "class": (0.2, 0.2), "print": (-1.0, 3.0)})
OBJECT_NAMES = st.sampled_from([*EXEC_WORLD.objects, "ghost"])
# Leading zeros, all-zero integers and long fractions.
NUMERALS = st.builds(
    str.__add__,
    st.from_regex(r"0{0,3}[1-9][0-9]{0,3}|0{1,3}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,30}", fullmatch=True)),
)


@st.composite
def verified_sources(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kw = draw(st.sampled_from(sorted(STATEMENT_SCHEMAS)))
        args = []
        for kind in STATEMENT_SCHEMAS[kw]:
            if kind == "object":
                args.append(draw(OBJECT_NAMES))
            elif kw == "goto":
                args.append(draw(st.sampled_from(["", "-"])) + draw(NUMERALS))
            else:
                args.append(draw(NUMERALS.filter(lambda n: float(n) > 0)))
        lines.append(f"{kw} {', '.join(args)};" if args else f"{kw};")
    return "\n".join(lines)


def robot_stub(world):
    """A robot_interface module whose twelve functions fold step over one state."""
    module = types.ModuleType("robot_interface")
    module.state = RobotState()

    def bind(kw, schema):
        def call(*args):
            parsed = []
            for arg, kind in zip(args, schema, strict=True):
                assert type(arg) in ((int, float) if kind == "number" else (str,))
                parsed.append(Number(float(arg), repr(arg)) if kind == "number" else arg)
            module.state = step(module.state, world, Statement(kw, tuple(parsed)))
        return call

    for kw, schema in STATEMENT_SCHEMAS.items():
        setattr(module, kw, bind(kw, schema))
    return module


def pose(state):
    return (state.x, state.y, state.heading, state.cam_pan, state.cam_tilt, state.held, state.perceived)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(verified_sources())
@example("forward 007;\ngoto 01, -02;\ngoto -0, -00;\napproach None;\ngrasp None;\ngrasp class;")
@example("turnleft 1.000000000000000000000000001;\napproach class;\ngrasp class;\nlookup 0010.5;")
@example("approach ghost;")
def test_generated_code_does_what_the_simulator_does(source):
    checked = check(source)
    assert not checked.diagnostics, source
    code = compile(generate(checked.program, default_manifest()), "<generated>", "exec")
    expected = run(checked.program, EXEC_WORLD)
    stub = robot_stub(EXEC_WORLD)
    with mock.patch.dict(sys.modules, {"robot_interface": stub}):
        if isinstance(expected, SimError):
            with pytest.raises(SimError) as raised:
                exec(code, {})
            assert type(raised.value) is type(expected)
            expected = expected.state
        else:
            exec(code, {})
    assert pose(stub.state) == pose(expected)
    assert [r.statement.keyword for r in stub.state.trace] == [
        r.statement.keyword for r in expected.trace
    ]


NAMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.sampled_from([*keyword.softkwlist, "None_", "classy", "print"]),
).filter(lambda name: not keyword.iskeyword(name))


@st.composite
def valid_manifests(draw):
    doc = manifest_doc()
    for binding in doc["bindings"].values():
        binding["module"] = ".".join(draw(st.lists(NAMES, min_size=1, max_size=3)))
        binding["function"] = draw(NAMES)
    return json.dumps(doc)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(valid_manifests(), verified_sources())
def test_generated_code_compiles_for_random_valid_manifests(manifest, source):
    compile(generate(check(source).program, load_manifest(manifest)), "<generated>", "exec")
