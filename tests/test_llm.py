import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

import rsl
import rsl.llm as llm_mod
from rsl import (
    AuthError,
    ChatMessage,
    ModelConfig,
    ProtocolError,
    RequestRejected,
    ScriptedTransport,
    TransportError,
    complete,
    config_from_env,
)

CONFIG = ModelConfig(base_url="http://test.invalid", model_name="m", api_key="k")


def msgs(*contents):
    out = [ChatMessage("system", "sys")]
    for c in contents:
        out.append(ChatMessage("user", c))
    return out


def test_scripted_echo():
    transport = ScriptedTransport(["forward 1;"])
    assert complete(CONFIG, msgs("task"), transport=transport) == "forward 1;"


def test_scripted_exhaustion_is_transport_error():
    transport = ScriptedTransport(["a", "b"])
    complete(CONFIG, msgs("one"), transport=transport)
    complete(CONFIG, msgs("two"), transport=transport)
    with pytest.raises(TransportError, match="exhausted"):
        complete(CONFIG, msgs("three"), transport=transport)


def test_scripted_records_requests():
    transport = ScriptedTransport(["a", "b"])
    complete(CONFIG, msgs("one"), transport=transport)
    complete(CONFIG, msgs("two"), transport=transport)
    assert len(transport.requests) == 2
    assert transport.requests[1][-1] == {"role": "user", "content": "two"}


def test_scripted_requires_responses():
    with pytest.raises(ValueError):
        ScriptedTransport([])


def test_scripted_takes_any_iterable():
    transport = ScriptedTransport(reply for reply in ("a", "b"))
    assert complete(CONFIG, msgs("one"), transport=transport) == "a"
    assert complete(CONFIG, msgs("two"), transport=transport) == "b"
    with pytest.raises(ValueError):
        ScriptedTransport(iter([]))


class FlakyTransport:
    """Fails with TransportError n times, then delegates to a script."""

    def __init__(self, failures, text):
        self.failures = failures
        self.calls = 0
        self.text = text

    def send(self, config, payload):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("synthetic timeout")
        return {"choices": [{"message": {"content": self.text}}]}


def test_retry_two_timeouts_then_success(monkeypatch):
    sleeps = []
    monkeypatch.setattr(llm_mod, "_sleep", sleeps.append)
    transport = FlakyTransport(2, "ok")
    assert complete(CONFIG, msgs("t"), transport=transport) == "ok"
    assert transport.calls == 3
    # Exponential backoff between attempts.
    assert sleeps == [0.5, 1.0]


def test_backoff_waits_are_capped(monkeypatch):
    sleeps = []
    monkeypatch.setattr(llm_mod, "_sleep", sleeps.append)
    config = ModelConfig(base_url="http://x", model_name="m", max_retries=12)
    transport = FlakyTransport(20, "never")
    with pytest.raises(TransportError):
        complete(config, msgs("t"), transport=transport)
    # Doubling from 0.5 s to the 8 s ceiling, then 8 s a wait.
    assert sleeps == [0.5, 1.0, 2.0, 4.0] + [8.0] * 8
    # A retry budget past 2 ** 1024 half-seconds still ends in the transport's error.
    sleeps.clear()
    config = ModelConfig(base_url="http://x", model_name="m", max_retries=1100)
    with pytest.raises(TransportError):
        complete(config, msgs("t"), transport=FlakyTransport(2000, "never"))
    assert len(sleeps) == 1100 and max(sleeps) == 8.0


def test_retries_exhausted(monkeypatch):
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)
    transport = FlakyTransport(10, "never")
    with pytest.raises(TransportError):
        complete(CONFIG, msgs("t"), transport=transport)
    assert transport.calls == CONFIG.max_retries + 1


class RejectingTransport:
    def __init__(self):
        self.calls = 0

    def send(self, config, payload):
        self.calls += 1
        raise AuthError("bad key")


def test_auth_errors_never_retried(monkeypatch):
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)
    transport = RejectingTransport()
    with pytest.raises(AuthError):
        complete(CONFIG, msgs("t"), transport=transport)
    assert transport.calls == 1


class CannedTransport:
    def __init__(self, data):
        self.data = data

    def send(self, config, payload):
        return self.data


def test_empty_choices_is_protocol_error():
    with pytest.raises(ProtocolError):
        complete(CONFIG, msgs("t"), transport=CannedTransport({"choices": []}))
    with pytest.raises(ProtocolError):
        complete(CONFIG, msgs("t"), transport=CannedTransport({}))
    with pytest.raises(ProtocolError):
        complete(
            CONFIG,
            msgs("t"),
            transport=CannedTransport({"choices": [{"message": {}}]}),
        )
    with pytest.raises(ProtocolError, match="response is not an object"):
        complete(CONFIG, msgs("t"), transport=CannedTransport(["choices"]))
    for choice in ({}, "text", {"message": "text"}):
        with pytest.raises(ProtocolError, match="first choice has no message"):
            complete(CONFIG, msgs("t"), transport=CannedTransport({"choices": [choice]}))


def test_messages_must_start_with_single_system():
    for messages in ([], [ChatMessage("user", "hi")], [ChatMessage("user", "hi"), *msgs()]):
        with pytest.raises(ValueError, match="^messages must start with a system message$"):
            complete(CONFIG, messages, transport=CannedTransport({}))
    doubled = msgs("a") + [ChatMessage("system", "again")]
    with pytest.raises(ValueError, match="^messages must contain exactly one system message$"):
        complete(CONFIG, doubled, transport=CannedTransport({}))


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("tool", "x")
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    # Assistant content may be empty (models do return empty replies).
    assert ChatMessage("assistant", "").content == ""


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(base_url="ftp://x", model_name="m")
    with pytest.raises(ValueError):
        ModelConfig(base_url="http://x", model_name="")
    with pytest.raises(ValueError):
        ModelConfig(base_url="http://x", model_name="m", timeout=0)
    with pytest.raises(ValueError):
        ModelConfig(base_url="http://x", model_name="m", temperature=-1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"\Atimeout must be positive\Z"):
            ModelConfig(base_url="http://x", model_name="m", timeout=bad)
        with pytest.raises(ValueError, match=r"\Atemperature must be >= 0\Z"):
            ModelConfig(base_url="http://x", model_name="m", temperature=bad)
    with pytest.raises(ValueError, match="max_retries"):
        ModelConfig(base_url="http://x", model_name="m", max_retries=-1)
    assert ModelConfig(base_url="http://x", model_name="m", temperature=2, timeout=1e-3).timeout == 1e-3


class FakeResponse:
    def __init__(self, status_code=200, payload=None, body_is_json=True):
        self.status_code = status_code
        self._payload = payload
        self._body_is_json = body_is_json

    def json(self):
        if not self._body_is_json:
            raise ValueError("no json")
        return self._payload


def test_http_transport_success(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, json=json, headers=headers, timeout=timeout)
        return FakeResponse(payload={"choices": [{"message": {"content": "hi"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    text = complete(CONFIG, msgs("task"))
    assert text == "hi"
    assert seen["url"] == "http://test.invalid/chat/completions"
    assert seen["headers"]["Authorization"] == "Bearer k"
    assert seen["json"]["model"] == "m"
    assert seen["json"]["temperature"] == 0.0
    assert seen["json"]["messages"][0]["role"] == "system"
    assert seen["timeout"] == CONFIG.timeout


def test_http_transport_auth_error(monkeypatch):
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(401))
    with pytest.raises(AuthError):
        complete(CONFIG, msgs("t"))


def test_http_transport_server_error_retried(monkeypatch):
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)
    calls = []

    def fake_post(*args, **kwargs):
        calls.append(1)
        return FakeResponse(503)

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(TransportError):
        complete(CONFIG, msgs("t"))
    assert len(calls) == CONFIG.max_retries + 1


def posts_returning(monkeypatch, status):
    """Make every POST answer with status; returns the list of calls made."""
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)
    calls = []

    def fake_post(*args, **kwargs):
        calls.append(1)
        return FakeResponse(status)

    monkeypatch.setattr(requests, "post", fake_post)
    return calls


@pytest.mark.parametrize("status", [400, 404, 422])
def test_http_transport_rejected_request_sent_once(monkeypatch, status):
    calls = posts_returning(monkeypatch, status)
    with pytest.raises(RequestRejected, match=f"HTTP {status}"):
        complete(CONFIG, msgs("t"))
    assert len(calls) == 1


@pytest.mark.parametrize("status", [408, 429])
def test_http_transport_timeout_and_rate_limit_retried(monkeypatch, status):
    calls = posts_returning(monkeypatch, status)
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        complete(CONFIG, msgs("t"))
    assert len(calls) == CONFIG.max_retries + 1


def test_http_transport_non_json_body(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, body_is_json=False)
    )
    with pytest.raises(ProtocolError):
        complete(CONFIG, msgs("t"))


def test_network_failure_message_hides_secret(monkeypatch):
    def fake_post(*args, **kwargs):
        raise requests.ConnectionError("boom")

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)
    secret_config = ModelConfig(
        base_url="http://test.invalid", model_name="m", api_key="top-secret-key"
    )
    with pytest.raises(TransportError) as info:
        complete(secret_config, msgs("t"))
    assert "top-secret-key" not in str(info.value)


def test_config_from_env_and_overrides():
    env = {"RSL_BASE_URL": "http://env", "RSL_MODEL": "env-model", "RSL_API_KEY": "ek"}
    config = config_from_env(env)
    assert (config.base_url, config.model_name, config.api_key) == (
        "http://env", "env-model", "ek",
    )
    # The endpoint gets ModelConfig's defaults: temperature 0, a 60 s timeout, 3 retries.
    assert (config.temperature, config.timeout, config.max_retries) == (0.0, 60.0, 3)
    overridden = config_from_env(env, base_url="http://flag", model_name="flag-model")
    assert (overridden.base_url, overridden.model_name) == ("http://flag", "flag-model")
    with pytest.raises(ValueError):
        config_from_env({"RSL_MODEL": "m"})
    with pytest.raises(ValueError):
        config_from_env({"RSL_BASE_URL": "http://x"})


OFFLINE_PROBE = """
import sys

import rsl

outcome = rsl.check("forward 1; turnleft 0.5; perceive; approach cup;")
assert not outcome.diagnostics
rsl.generate(outcome.program, rsl.default_manifest())
state = rsl.run(outcome.program, rsl.default_world())
assert rsl.trace_to_jsonl(state).count("\\n") == 4
print(sorted(name for name in sys.modules if name.split(".")[0] == "requests"))
"""


def test_offline_use_does_not_load_requests():
    # A fresh interpreter: this one has requests loaded already.
    src = str(Path(rsl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", OFFLINE_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


SHIPPED_DATA_PROBE = """
import sys

import rsl

assert len(rsl.load_default_tasks()) == 25
rsl.default_world()
rsl.default_manifest()
rsl.default_system_message()
rsl.default_shots()
rsl.make_prompt_parts("Grasp the cup.")
rsl.OracleTransport()
rsl.FailFirstTransport()
print(sorted(name for name in sys.modules if name.startswith(("importlib.resources", "pathlib"))))
"""


def test_shipped_data_loads_without_importlib_resources():
    # -S: without site, since a start-up .pth file may import importlib.resources itself.
    src = str(Path(rsl.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", SHIPPED_DATA_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
