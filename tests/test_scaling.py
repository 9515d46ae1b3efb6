"""Cost must grow linearly with program length.

Each case is timed at 1k and 10k statements, best of three runs. The 1k run
calls the function ten times, so both runs last about as long, and the runs
of the two sizes alternate, so a slow spell of a shared machine falls on
both. The garbage collector is off while timing, as in timeit. Linear cost
gives a 10k/1k ratio per call near 10; the bound of 20 leaves room for
noise but not for cost that grows with the square of the length.
"""

import gc
import random
import time

import pytest

from rsl import Category, check, default_world, lex, render_statement, run

from support import random_statement

SIZES = (1_000, 10_000)
CALLS = (10, 1)
MAX_RATIO = 20.0


def timed(fn, arg, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn(arg)
    return (time.perf_counter() - start) / calls


def assert_linear(fn, inputs) -> None:
    best = [float("inf")] * len(inputs)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for i, (arg, calls) in enumerate(zip(inputs, CALLS)):
                best[i] = min(best[i], timed(fn, arg, calls))
    finally:
        gc.enable()
    ratio = best[1] / best[0]
    assert ratio <= MAX_RATIO, f"10k/1k time ratio {ratio:.1f} > {MAX_RATIO}"


def statements(count: int, objects: bool = True):
    """count seeded random statements; without approach and grasp, which
    name world objects, unless objects is set."""
    rng = random.Random(count)
    out = []
    while len(out) < count:
        statement = random_statement(rng)
        if objects or statement.keyword not in ("approach", "grasp"):
            out.append(statement)
    return out


def test_check_with_every_semicolon_missing_scales_linearly():
    sources = []
    for count in SIZES:
        source = "\n".join(render_statement(s)[:-1] for s in statements(count))
        assert len(check(source).diagnostics) == count
        sources.append(source)
    assert_linear(check, sources)


@pytest.mark.parametrize("fn", [check, lex])
def test_clean_source_scales_linearly(fn):
    sources = ["\n".join(map(render_statement, statements(count))) for count in SIZES]
    assert not check(sources[0]).diagnostics
    assert_linear(fn, sources)


def test_check_of_one_long_malformed_number_scales_linearly():
    # 10k and 100k "1." pairs: recovering the number's value must not try
    # every prefix of it.
    sources = [f"forward {'1.' * pairs};" for pairs in (10_000, 100_000)]
    assert [d.category for d in check(sources[1]).diagnostics] == [Category.NUMBER]
    assert_linear(check, sources)


def test_run_scales_linearly():
    world = default_world()
    programs = []
    for count in SIZES:
        # No statement names an object, so none can fail on the world.
        outcome = check("\n".join(map(render_statement, statements(count, objects=False))))
        assert not outcome.diagnostics
        programs.append(outcome.program)
    assert_linear(lambda program: run(program, world), programs)
