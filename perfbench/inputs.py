"""Seeded inputs and independent references for the three workloads.

Nothing here imports rsl. Programs, expected syntax trees, expected
diagnostics, expected generated code and expected end poses all come from
the generator's own records, the data files the package ships, and the
language rules in the README. A defect in the code under test therefore
cannot also hide in its reference.

Statements are ``(keyword, args)`` tuples; args are raw numeric strings or
object names, exactly as written in the source.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCHEMAS = {
    "forward": ("number",),
    "backward": ("number",),
    "turnleft": ("number",),
    "turnright": ("number",),
    "lookup": ("number",),
    "lookdown": ("number",),
    "lookleft": ("number",),
    "lookright": ("number",),
    "perceive": (),
    "approach": ("object",),
    "goto": ("number", "number"),
    "grasp": ("object",),
}
MAGNITUDE_KEYWORDS = frozenset(k for k, s in SCHEMAS.items() if s == ("number",))

MESSAGES = {
    "Keyword": "Keywords should be lowercase.",
    "Identifier": "The identifier is illegal.",
    "Number": "The number is illegal.",
    "Comment": "This comment has errors.",
    "Command": "The command (keyword) is illegal.",
    "Parameter": "Parameter types of the command are invalid.",
    "Quantity": "The number of parameters is illegal.",
    "Semicolon": "The statement must end with a semicolon.",
}
FEEDBACK_INSTRUCTION = (
    "Regenerate a corrected RSL program only: output the full program, "
    "one statement per line, with no explanations."
)

MAX_PASSES = 5
SIZE_RANGE = (100, 5000)
PROGRAMS_PER_CYCLE = 100
# Share of compile-long programs that end in a failing grasp, so the
# simulator's error path runs on a fixed share of ops.
SIM_ERROR_SHARE = 0.2
BROKEN_SHARE = 0.35
SEMICOLON_SHARE = 0.5
CATEGORIES = (
    "Keyword", "Identifier", "Number", "Character", "Comment",
    "Command", "Parameter", "Quantity", "Semicolon",
)
# A line that starts with one of these is not led by a lowercase keyword, so
# it may not follow a dropped semicolon (the parser would then report
# Quantity) and the keyword-line extractor drops it.
NOT_KEYWORD_LED = frozenset({"Keyword", "Command"})
_BAD_VERBS = ("move", "jump", "rotate", "fetch", "walk", "spin", "foward", "aproach")
_NOTES = ("check this", "todo later", "maybe slower", "from the task")
_ILLEGAL_CHARS = "$@#!?%&"

# Counts k of broken replies before the oracle reply, dealt out over the 25
# tasks: about 1.36 mean passes, and 24 of 25 tasks verified. The repo README
# gives 24-25/25 tasks verified at about 1.2 mean passes for the 12-shot
# prompt with strong models. k = MAX_PASSES exhausts the pass budget. How
# the remaining tasks split between k = 1 and k = 2 is an assumption. A
# cycle has one round per task; in round r, task i draws count (i + r) mod
# 25 of a seeded order, so every task meets every count once a cycle and
# the cycle's work does not depend on the seed.
ROUND_BROKEN_COUNTS = (0,) * 20 + (1,) * 3 + (2, MAX_PASSES)
ROUNDS = len(ROUND_BROKEN_COUNTS)
# Shapes of the 600 final replies a cycle reaches. That 6% are single-line
# fences is an assumption; the other three documented shapes share the rest.
_FINAL_SHAPES = ("bare",) * 188 + ("fence",) * 188 + ("prose",) * 188 + ("inline_fence",) * 36
SHAPES = ("bare", "fence", "prose", "inline_fence")


def render_line(keyword: str, args) -> str:
    return f"{keyword} {', '.join(args)};" if args else f"{keyword};"


def parse_line(line: str) -> tuple[str, tuple[str, ...]]:
    """Split one canonical statement line, as in the shipped oracle programs."""
    body = line.strip().rstrip(";")
    keyword, _, rest = body.partition(" ")
    return keyword, tuple(a.strip() for a in rest.split(",")) if rest else ()


@dataclass(frozen=True)
class Data:
    """The package's shipped data, read as plain JSON."""

    objects: dict[str, tuple[float, float]]
    grasp_range: float
    reach_offset: float
    manifest: dict
    oracle: dict[str, str]
    task_texts: tuple[str, ...]


def load_data(data_dir: Path) -> Data:
    def read(name):
        return json.loads((data_dir / name).read_text("utf-8"))

    world = read("world.json")
    return Data(
        {k: (float(v[0]), float(v[1])) for k, v in world["objects"].items()},
        float(world.get("grasp_range", 0.5)),
        float(world.get("reach_offset", 0.5)),
        read("manifest.json"),
        read("oracle_programs.json"),
        tuple(t["text"] for t in read("tasks.json")),
    )


# ---------------------------------------------------------------------------
# Statement generation and fault injection

def _magnitude(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return str(rng.randint(1, 9))
    return f"{rng.randint(5, 500) / 100:.2f}"


def _coordinate(rng: random.Random) -> str:
    return f"{rng.randint(-1000, 1000) / 100:.2f}"


_MOTION_WEIGHTS = {
    "forward": 3, "backward": 1, "turnleft": 2, "turnright": 2, "lookup": 1,
    "lookdown": 1, "lookleft": 1, "lookright": 1, "perceive": 1, "approach": 1,
    "goto": 2,
}
_MOTION_KEYWORDS = tuple(_MOTION_WEIGHTS)
_MOTION_CUMULATIVE = tuple(
    sum(list(_MOTION_WEIGHTS.values())[: i + 1]) for i in range(len(_MOTION_WEIGHTS))
)


def clean_statement(rng: random.Random, objects, grasp: bool = False):
    if grasp:
        keyword = "grasp"
    else:
        keyword = rng.choices(_MOTION_KEYWORDS, cum_weights=_MOTION_CUMULATIVE)[0]
    args = []
    for kind in SCHEMAS[keyword]:
        if kind == "object":
            args.append(rng.choice(objects))
        elif keyword == "goto":
            args.append(_coordinate(rng))
        else:
            args.append(_magnitude(rng))
    return keyword, tuple(args)


def feasible(keyword: str, category: str) -> bool:
    schema = SCHEMAS[keyword]
    if category == "Identifier":
        return "object" in schema
    if category == "Number":
        return "number" in schema
    if category == "Parameter":
        return bool(schema)
    return True


def inject(rng: random.Random, keyword: str, args, category: str, objects):
    """Break one statement so that check reports exactly one diagnostic of
    category. Returns the line and the diagnostic's expected token text."""
    if category == "Keyword":
        word = keyword.upper() if rng.random() < 0.5 else keyword.capitalize()
        return render_line(word, args), word
    if category == "Identifier":
        bad = f"{rng.randint(1, 9)}{args[0]}"
        return render_line(keyword, (bad,)), bad
    if category == "Number":
        slot = rng.randrange(len(args))
        bad = args[slot] + (".5" if "." in args[slot] else ".")
        return render_line(keyword, args[:slot] + (bad,) + args[slot + 1:]), bad
    if category == "Character":
        char = rng.choice(_ILLEGAL_CHARS)
        return render_line(keyword, args)[:-1] + char + ";", char
    if category == "Comment":
        note = "/ " + rng.choice(_NOTES)
        return render_line(keyword, args) + " " + note, note
    if category == "Command":
        word = rng.choice(_BAD_VERBS)
        return render_line(word, args), word
    if category == "Parameter":
        if keyword in MAGNITUDE_KEYWORDS and rng.random() < 0.5:
            # Syntactically fine; validate rejects the non-positive magnitude.
            bad = rng.choice(("0", "0.0", "-" + args[0]))
            return render_line(keyword, (bad,)), bad
        slot = rng.randrange(len(args))
        bad = str(rng.randint(1, 9)) if SCHEMAS[keyword][slot] == "object" else rng.choice(objects)
        return render_line(keyword, args[:slot] + (bad,) + args[slot + 1:]), bad
    if category == "Quantity":
        extra = str(rng.randint(1, 9))
        if not args:
            return f"{keyword} {extra};", extra
        if rng.random() < 0.5:
            return render_line(keyword, args[:-1]), ";"
        return f"{render_line(keyword, args)[:-1]} {extra};", extra
    if category == "Semicolon":
        text = render_line(keyword, args)[:-1]
        return text, text
    raise ValueError(f"unknown category {category!r}")


def break_statements(rng, statements, broken: set[int], objects, keyword_led_only=False):
    """Lines of a program whose statements at the given indices each carry
    one injected diagnostic, plus the expected (category, line, token) list.

    A semicolon is dropped only before a line led by a lowercase keyword,
    or at the end of the program."""
    chosen: dict[int, str] = {}
    # Back to front, so the next line's category is known when deciding
    # whether this statement may lose its semicolon.
    for i in sorted(broken, reverse=True):
        keyword = statements[i][0]
        next_led = chosen.get(i + 1) not in NOT_KEYWORD_LED
        if next_led and rng.random() < SEMICOLON_SHARE:
            chosen[i] = "Semicolon"
            continue
        options = [
            c for c in CATEGORIES
            if c != "Semicolon" and feasible(keyword, c)
            and not (keyword_led_only and c in NOT_KEYWORD_LED)
        ]
        chosen[i] = rng.choice(options)
    lines, expected = [], []
    for i, (keyword, args) in enumerate(statements):
        if i in chosen:
            line, token = inject(rng, keyword, args, chosen[i], objects)
            expected.append((chosen[i], i + 1, token))
        else:
            line = render_line(keyword, args)
        lines.append(line)
    return lines, expected


def stratified_sizes(rng: random.Random, count: int) -> list[int]:
    """Log-uniform program sizes: the midpoint of each of count
    equal-probability strata, in seeded order. Every cycle spans the whole
    range with the same sizes, so percentiles do not move with the seed;
    the seed changes the programs' content and order."""
    low, high = SIZE_RANGE
    sizes = [round(low * (high / low) ** ((i + 0.5) / count)) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


# ---------------------------------------------------------------------------
# compile-long

@dataclass(frozen=True)
class CompileCase:
    source: str
    statements: tuple[tuple[str, tuple[str, ...]], ...]


def compile_program(rng: random.Random, size: int, objects, fails: bool):
    """A clean program of size statements. At most one grasp succeeds (it
    follows an approach of the same object); a failing program ends with a
    grasp that finds the hand full or, after a far goto, out of range."""
    statements = []
    held = False
    fail_at = max(0, int(size * 0.95) - 2) if fails else None
    while len(statements) < size:
        if fail_at is not None and len(statements) >= fail_at:
            if not held:
                statements.append(("goto", ("40", "40")))
            statements.append(clean_statement(rng, objects, grasp=True))
            fail_at = None
        elif not held and rng.random() < 0.01:
            target = rng.choice(objects)
            statements += [("approach", (target,)), ("grasp", (target,))]
            held = True
        else:
            statements.append(clean_statement(rng, objects))
    return tuple(statements[:size])


def compile_cases(seed: int, data: Data):
    """Yields one cycle's programs; one at a time, so that a caller that
    keeps only digests of them never holds every syntax tree at once."""
    rng = random.Random(f"compile-long:{seed}")
    objects = sorted(data.objects)
    sizes = stratified_sizes(rng, PROGRAMS_PER_CYCLE)
    failing = [i < PROGRAMS_PER_CYCLE * SIM_ERROR_SHARE for i in range(len(sizes))]
    rng.shuffle(failing)
    for size, fails in zip(sizes, failing):
        statements = compile_program(rng, size, objects, fails)
        source = "\n".join(render_line(k, a) for k, a in statements) + "\n"
        yield CompileCase(source, statements)


def expected_ast(statements):
    """(keyword, args) per statement, each number as (text, value)."""
    return tuple(
        (keyword, tuple(
            (a, float(a)) if kind == "number" else a
            for a, kind in zip(args, SCHEMAS[keyword])
        ))
        for keyword, args in statements
    )


def expected_code(statements, manifest: dict) -> str:
    """Control source per the manifest: preamble, one sorted import line per
    module, a blank line, then one call per statement."""
    bindings = manifest["bindings"]
    used: dict[str, set[str]] = {}
    calls = []
    for keyword, args in statements:
        binding = bindings[keyword]
        used.setdefault(binding["module"], set()).add(binding["function"])
        rendered = [
            json.dumps(a) if kind == "object" else a
            for a, kind in zip(args, SCHEMAS[keyword])
        ]
        calls.append(f"{binding['function']}({', '.join(rendered)})")
    lines = list(manifest.get("preamble", []))
    lines += [f"from {m} import {', '.join(sorted(used[m]))}" for m in sorted(used)]
    if lines and calls:
        lines.append("")
    lines += calls
    return "\n".join(lines) + ("\n" if lines else "")


def execute(statements, data: Data):
    """Independent kinematics: returns ("ok", executed, pose) or
    (error kind, executed, pose before the failing statement). pose is
    (x, y, heading, cam_pan, cam_tilt, held, perceived); heading is not
    wrapped, so compare it modulo a full turn."""
    x = y = heading = pan = tilt = 0.0
    held, perceived = None, False
    for executed, (keyword, args) in enumerate(statements):
        values = [float(a) for a, kind in zip(args, SCHEMAS[keyword]) if kind == "number"]
        if keyword in ("forward", "backward"):
            sign = 1.0 if keyword == "forward" else -1.0
            x += sign * values[0] * math.cos(heading)
            y += sign * values[0] * math.sin(heading)
        elif keyword == "turnleft":
            heading += values[0]
        elif keyword == "turnright":
            heading -= values[0]
        elif keyword == "lookup":
            tilt += values[0]
        elif keyword == "lookdown":
            tilt -= values[0]
        elif keyword == "lookleft":
            pan += values[0]
        elif keyword == "lookright":
            pan -= values[0]
        elif keyword == "perceive":
            perceived = True
        elif keyword == "goto":
            x, y = values
        else:
            pose = (x, y, heading, pan, tilt, held, perceived)
            if args[0] not in data.objects:
                return "UnknownObject", executed, pose
            ox, oy = data.objects[args[0]]
            if keyword == "approach":
                if math.hypot(ox - x, oy - y) > 0.0:
                    heading = math.atan2(oy - y, ox - x)
                x = ox - data.reach_offset * math.cos(heading)
                y = oy - data.reach_offset * math.sin(heading)
            elif held is not None:
                return "HandFull", executed, pose
            elif math.hypot(ox - x, oy - y) > data.grasp_range + 1e-9:
                return "GraspOutOfRange", executed, pose
            else:
                held = args[0]
    return "ok", len(statements), (x, y, heading, pan, tilt, held, perceived)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def same_heading(a: float, b: float) -> bool:
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= 1e-6


def pose_matches(pose, observed) -> bool:
    x, y, heading, pan, tilt, held, perceived = pose
    ox, oy, oheading, opan, otilt, oheld, operceived = observed
    return (
        close(x, ox) and close(y, oy) and same_heading(heading, oheading)
        and close(pan, opan) and close(tilt, otilt)
        and held == oheld and perceived == operceived
    )


# ---------------------------------------------------------------------------
# check-broken

@dataclass(frozen=True)
class BrokenCase:
    source: str
    size: int
    expected: tuple[tuple[str, int, str], ...]


def broken_cases(seed: int, data: Data):
    """Yields one cycle's programs, one at a time as compile_cases does."""
    rng = random.Random(f"check-broken:{seed}")
    objects = sorted(data.objects)
    for size in stratified_sizes(rng, PROGRAMS_PER_CYCLE):
        statements = [
            clean_statement(rng, objects, grasp=rng.random() < 0.05) for _ in range(size)
        ]
        broken = set(rng.sample(range(size), max(1, round(size * BROKEN_SHARE))))
        lines, expected = break_statements(rng, statements, broken, objects)
        yield BrokenCase("\n".join(lines) + "\n", size, tuple(expected))


def render_expected(category: str, line: int, token: str) -> str:
    message = (
        f"The {token} is an illegal character." if category == "Character"
        else MESSAGES[category]
    )
    return f"Line {line}: {message} Near token '{token}'."


def expected_feedback(case: BrokenCase) -> str:
    return "\n".join(
        ["The previously generated program was:", case.source, "",
         "The compiler reported the following errors:"]
        + [render_expected(*d) for d in case.expected]
        + ["", FEEDBACK_INSTRUCTION]
    )


# ---------------------------------------------------------------------------
# repair-loop

@dataclass(frozen=True)
class RepairCase:
    task: str
    replies: tuple[str, ...]
    statements: int
    broken_count: int
    final_shape: str

    @property
    def expected(self) -> tuple[bool, bool, int]:
        """(success, accurate, passes) implied by the script: the oracle
        program verifies and is accurate, every broken reply fails."""
        if self.broken_count >= MAX_PASSES:
            return False, False, MAX_PASSES
        return True, True, self.broken_count + 1


def shape_reply(shape: str, lines) -> str:
    body = "\n".join(lines)
    if shape == "bare":
        return body
    if shape == "fence":
        return f"Here is the program.\n```rsl\n{body}\n```\nIt follows the task step by step."
    if shape == "prose":
        return f"Sure, this is the program for the task:\n{body}\nEach line is one skill."
    if shape == "inline_fence":
        return "```rsl " + " ".join(lines) + "```"
    raise ValueError(f"unknown shape {shape!r}")


def repair_cases(seed: int, data: Data) -> list[RepairCase]:
    rng = random.Random(f"repair-loop:{seed}")
    objects = sorted(data.objects)
    finals = list(_FINAL_SHAPES)
    rng.shuffle(finals)
    counts = list(ROUND_BROKEN_COUNTS)
    rng.shuffle(counts)
    cases = []
    for round_ in range(ROUNDS):
        for i, task in enumerate(data.task_texts):
            k = counts[(i + round_) % len(counts)]
            oracle_lines = data.oracle[task].splitlines()
            statements = [parse_line(line) for line in oracle_lines]
            replies = []
            for _ in range(k):
                shape = rng.choice(SHAPES)
                count = 1 + rng.randrange(max(1, len(statements) // 3))
                lines, _ = break_statements(
                    rng, statements, set(rng.sample(range(len(statements)), count)), objects,
                    # Outside a multi-line fence, extract_rsl keeps only
                    # keyword-led lines, so a line that is not would vanish
                    # and leave a program that verifies.
                    keyword_led_only=shape != "fence",
                )
                replies.append(shape_reply(shape, lines))
            final = finals.pop() if k < MAX_PASSES else "bare"
            replies.append(shape_reply(final, oracle_lines))
            cases.append(RepairCase(task, tuple(replies), len(statements), k, final))
    rng.shuffle(cases)
    return cases
