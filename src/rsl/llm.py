"""Minimal chat-completion client for OpenAI-compatible endpoints.

The wire format is the standard chat-completions JSON: POST to
{base_url}/chat/completions with bearer authentication, messages as a list of
{role, content} objects, answer read from choices[0].message.content.
Transports are pluggable; ScriptedTransport replays canned responses and
records every request, which is how the repair loop is tested offline.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import requests

ENV_API_KEY = "RSL_API_KEY"
ENV_BASE_URL = "RSL_BASE_URL"
ENV_MODEL = "RSL_MODEL"

_BACKOFF_BASE_SECONDS = 0.5
_sleep = time.sleep  # swapped out in tests


class LlmError(Exception):
    pass


class TransportError(LlmError):
    """Network failure, timeout, server error, or an exhausted script."""


class AuthError(LlmError):
    """Credential rejection; never retried."""


class ProtocolError(LlmError):
    """Response is structurally not a chat completion."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class ModelConfig:
    base_url: str
    model_name: str
    api_key: str = ""
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not self.base_url.startswith(("http://", "https://")):
            raise ValueError("base_url must be an absolute http(s) URL")
        if not self.model_name:
            raise ValueError("model_name must be non-empty")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class Transport(Protocol):
    def send(self, config: ModelConfig, payload: dict) -> dict: ...


class HttpTransport:
    def send(self, config: ModelConfig, payload: dict) -> dict:
        url = config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {config.api_key}"}
        try:
            response = requests.post(
                url, json=payload, headers=headers, timeout=config.timeout
            )
        except requests.RequestException as err:
            # Deliberately terse: never echo headers or the key.
            raise TransportError(
                f"request to {url} failed: {type(err).__name__}"
            ) from err
        if response.status_code in (401, 403):
            raise AuthError(f"authentication rejected (HTTP {response.status_code})")
        if response.status_code >= 400:
            raise TransportError(f"endpoint returned HTTP {response.status_code}")
        try:
            return response.json()
        except ValueError as err:
            raise ProtocolError("response body is not JSON") from err


class ScriptedTransport:
    """Replays a fixed sequence of assistant responses, taken from any
    iterable, in order and records every request's messages. Exhausting the
    script is a TransportError."""

    def __init__(self, responses: Iterable[str]) -> None:
        responses = list(responses)
        if not responses:
            raise ValueError("scripted transport needs at least one response")
        self._queue = deque(responses)
        self._lock = threading.Lock()
        self.requests: list[list[dict]] = []

    def send(self, config: ModelConfig, payload: dict) -> dict:
        with self._lock:
            self.requests.append(payload["messages"])
            if not self._queue:
                raise TransportError("scripted transport exhausted")
            text = self._queue.popleft()
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def _extract_content(data: dict) -> str:
    if not isinstance(data, dict):
        raise ProtocolError("response is not an object")
    choices = data.get("choices")
    if not isinstance(choices, list) or not choices:
        raise ProtocolError("response has no choices")
    message = choices[0].get("message") if isinstance(choices[0], dict) else None
    if not isinstance(message, dict):
        raise ProtocolError("first choice has no message")
    content = message.get("content")
    if not isinstance(content, str):
        raise ProtocolError("message has no text content")
    return content


def complete(
    config: ModelConfig,
    messages: Sequence[ChatMessage],
    transport: Transport | None = None,
) -> str:
    """Send one chat completion and return the assistant text of the first
    choice. Transient transport failures are retried up to max_retries with
    exponential backoff; authentication errors are never retried."""
    if not messages or messages[0].role != "system":
        raise ValueError("messages must start with a system message")
    if any(m.role == "system" for m in messages[1:]):
        raise ValueError("messages must contain exactly one system message")
    if transport is None:
        transport = HttpTransport()
    payload = {
        "model": config.model_name,
        "temperature": config.temperature,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
    }
    failures = 0
    while True:
        try:
            data = transport.send(config, payload)
            break
        except AuthError:
            raise
        except TransportError:
            failures += 1
            if failures > config.max_retries:
                raise
            _sleep(_BACKOFF_BASE_SECONDS * 2 ** (failures - 1))
    return _extract_content(data)


def config_from_env(
    environ=None,
    *,
    base_url: str | None = None,
    model_name: str | None = None,
    api_key: str | None = None,
    temperature: float = 0.0,
    timeout: float = 60.0,
    max_retries: int = 3,
) -> ModelConfig:
    """Resolve a ModelConfig from RSL_BASE_URL / RSL_MODEL / RSL_API_KEY,
    with explicit arguments taking precedence. Raises ValueError when the
    endpoint or model is unresolvable."""
    env = os.environ if environ is None else environ
    resolved_url = base_url or env.get(ENV_BASE_URL, "")
    resolved_model = model_name or env.get(ENV_MODEL, "")
    resolved_key = api_key if api_key is not None else env.get(ENV_API_KEY, "")
    if not resolved_url:
        raise ValueError(f"no endpoint: set {ENV_BASE_URL} or pass --base-url")
    if not resolved_model:
        raise ValueError(f"no model: set {ENV_MODEL} or pass --model")
    return ModelConfig(
        base_url=resolved_url,
        model_name=resolved_model,
        api_key=resolved_key,
        temperature=temperature,
        timeout=timeout,
        max_retries=max_retries,
    )
