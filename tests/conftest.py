import gc

import pytest

import rsl.llm as llm_mod


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Retry backoff must not consume wall-clock time in tests. Tests that
    assert the backoff schedule install their own recorder on top."""
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """check and run pause the cyclic garbage collector only for their own
    call, and a test that freezes the heap thaws it, so no test may end with
    the collector off or objects frozen. Both are undone before the test
    fails, so one such test does not change the ones after it."""
    yield
    if not gc.isenabled() or gc.get_freeze_count():
        gc.enable()
        gc.unfreeze()
        pytest.fail("the test left the cyclic garbage collector disabled or the heap frozen")
