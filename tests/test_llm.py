import pytest

import rsl.llm as llm_mod
from rsl import (
    AuthError,
    ChatMessage,
    ModelConfig,
    ProtocolError,
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


def test_messages_must_start_with_single_system():
    with pytest.raises(ValueError):
        complete(CONFIG, [ChatMessage("user", "hi")], transport=CannedTransport({}))
    doubled = msgs("a") + [ChatMessage("system", "again")]
    with pytest.raises(ValueError):
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

    monkeypatch.setattr(llm_mod.requests, "post", fake_post)
    text = complete(CONFIG, msgs("task"))
    assert text == "hi"
    assert seen["url"] == "http://test.invalid/chat/completions"
    assert seen["headers"]["Authorization"] == "Bearer k"
    assert seen["json"]["model"] == "m"
    assert seen["json"]["temperature"] == 0.0
    assert seen["json"]["messages"][0]["role"] == "system"
    assert seen["timeout"] == CONFIG.timeout


def test_http_transport_auth_error(monkeypatch):
    monkeypatch.setattr(llm_mod.requests, "post", lambda *a, **k: FakeResponse(401))
    with pytest.raises(AuthError):
        complete(CONFIG, msgs("t"))


def test_http_transport_server_error_retried(monkeypatch):
    monkeypatch.setattr(llm_mod, "_sleep", lambda _: None)
    calls = []

    def fake_post(*args, **kwargs):
        calls.append(1)
        return FakeResponse(503)

    monkeypatch.setattr(llm_mod.requests, "post", fake_post)
    with pytest.raises(TransportError):
        complete(CONFIG, msgs("t"))
    assert len(calls) == CONFIG.max_retries + 1


def test_http_transport_non_json_body(monkeypatch):
    monkeypatch.setattr(
        llm_mod.requests, "post", lambda *a, **k: FakeResponse(200, body_is_json=False)
    )
    with pytest.raises(ProtocolError):
        complete(CONFIG, msgs("t"))


def test_network_failure_message_hides_secret(monkeypatch):
    def fake_post(*args, **kwargs):
        raise llm_mod.requests.ConnectionError("boom")

    monkeypatch.setattr(llm_mod.requests, "post", fake_post)
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
    overridden = config_from_env(env, base_url="http://flag", model_name="flag-model")
    assert (overridden.base_url, overridden.model_name) == ("http://flag", "flag-model")
    with pytest.raises(ValueError):
        config_from_env({"RSL_MODEL": "m"})
    with pytest.raises(ValueError):
        config_from_env({"RSL_BASE_URL": "http://x"})
