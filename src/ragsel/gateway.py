"""LLM access layer: OpenAI-compatible HTTP backends plus deterministic
transcript replay for tests and reproducible runs.

Every chat call resolves to ``(completion text, Usage)``. Transcripts are
line-delimited JSON keyed by a request fingerprint, so identical requests
always replay identical responses.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import ssl
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import typed
from .files import appending, decode, iter_jsonl

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
# each byte as _TOKEN_RE classes it: a word byte, a space byte (also \x1c-\x1f, which
# bytes.split keeps but \s matches) or a mark byte, so ASCII text is counted in bytes
_BYTE_CLASSES = b"".join(
    b"a" if re.match(r"\w", chr(b)) else b" " if re.match(r"\s", chr(b)) else b"." for b in range(256)
)

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_INFLIGHT = 8  # concurrent requests per HttpClient
TEMPERATURE = 0.0  # every chat call is greedy, so a replay asks what the recording asked


class TransportError(RuntimeError):
    """Transient transport failure that survived all retries."""


class ApiError(RuntimeError):
    """Non-retryable HTTP error (4xx other than 429, or a malformed 200
    body); carries the body."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class TranscriptError(ValueError):
    """A transcript file line that is not an entry; names the path and line."""


class TranscriptMissError(KeyError):
    def __init__(self, fingerprint: str):
        super().__init__(fingerprint)
        self.fingerprint = fingerprint

    def __str__(self) -> str:
        return f"no transcript entry for request fingerprint {self.fingerprint}"


# what a model call raises when it gets no usable answer; run and distill record it per query
BACKEND_ERRORS = (TransportError, ApiError, TranscriptMissError)


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def to_dict(self) -> dict:
        return {"prompt_tokens": self.prompt_tokens, "completion_tokens": self.completion_tokens}

    @classmethod
    def from_dict(cls, record: dict) -> "Usage":
        return cls(typed(record, "prompt_tokens", int), typed(record, "completion_tokens", int))


ZERO_USAGE = Usage(0, 0)


def merge_usage(a: Usage, b: Usage) -> Usage:
    return Usage(a.prompt_tokens + b.prompt_tokens, a.completion_tokens + b.completion_tokens)


def estimate_tokens(text: str) -> int:
    """Deterministic token estimate: words plus standalone marks, by ``re``'s Unicode
    classes. ASCII text is counted in one bytes pass, with the same result."""
    if text.isascii():
        classes = text.encode("ascii").translate(_BYTE_CLASSES)
        return classes.count(b".") + len(classes.replace(b".", b" ").split())
    return len(_TOKEN_RE.findall(text))


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[dict, ...]
    max_tokens: int | None = None

    def __post_init__(self):
        if not self.model:
            raise ValueError("model name must be non-empty")
        if not self.messages:
            raise ValueError("message list must be non-empty")
        for m in self.messages:
            if "role" not in m or "content" not in m:
                raise ValueError("every message needs 'role' and 'content'")


def user_request(model: str, content: str, max_tokens: int | None = None) -> ChatRequest:
    return ChatRequest(
        model=model,
        messages=({"role": "user", "content": content},),
        max_tokens=max_tokens,
    )


def request_fingerprint(model: str, messages: Sequence[dict]) -> str:
    """Stable hash of the model name and concatenated message contents."""
    digest = hashlib.sha256()
    digest.update(model.encode("utf-8"))
    for m in messages:
        digest.update(b"\x00")
        digest.update(m["content"].encode("utf-8"))
    return digest.hexdigest()


def text_fingerprint(model: str, text: str) -> str:
    return request_fingerprint(model, [{"role": "user", "content": text}])


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Hands a 3xx reply back as an HTTPError instead of following it."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class HttpClient:
    """JSON-over-HTTP client for an OpenAI-compatible endpoint.

    Credentials come from the named environment variable, never from the
    request itself; a semaphore bounds in-flight requests. The proxy
    variables are read when the client is built (``no_proxy`` again at each
    proxied request), a 3xx reply is not followed, and HTTPS checks
    certificates against the system trust store.
    """

    def __init__(
        self,
        endpoint: str,
        api_key_env: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._semaphore = threading.Semaphore(MAX_INFLIGHT)
        handlers = [_NoRedirect]
        if self.endpoint.startswith("https:"):  # one TLS context per client, not one per connection
            handlers.append(urllib.request.HTTPSHandler(context=ssl.create_default_context()))
        self._opener = urllib.request.build_opener(*handlers)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise ApiError(401, f"environment variable {self.api_key_env!r} is not set")
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def post(self, route: str, payload: dict, read):
        """POST ``payload`` to ``endpoint/route``; returns ``read(decoded body)``.
        A connection failure or a ``RETRYABLE_STATUS`` is retried with backoff, up to
        ``max_attempts`` attempts in all, then raises TransportError. Any other non-200
        status, a body that is not JSON, or one that ``read`` cannot take apart raises ApiError."""
        url = f"{self.endpoint}/{route}"
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = self._headers()
        last_error: Exception | None = None
        last_status: int | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                request = urllib.request.Request(url, data, headers)  # one per attempt: a proxy handler rewrites it
                with self._semaphore:
                    try:
                        with self._opener.open(request, timeout=self.timeout) as response:
                            status, body = response.status, response.read()
                    except urllib.error.HTTPError as exc:
                        with exc:
                            status, body = exc.code, exc.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status not in RETRYABLE_STATUS:
                break
            last_status = status
        else:
            if last_status is not None:
                raise TransportError(f"gave up after {self.max_attempts} attempts; last status {last_status}")
            raise TransportError(f"gave up after {self.max_attempts} attempts: {last_error}")
        if status != 200:
            raise ApiError(status, body.decode("utf-8", "replace"))
        try:
            # RFC 8259 section 8.1 lets a reader skip a byte order mark
            return read(decode(body.decode("utf-8-sig")))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            text = body.decode("utf-8", "replace")[:200]
            raise ApiError(200, f"malformed response body ({exc!r}): {text}") from None


class HttpChatBackend(HttpClient):
    """Chat completions; usage the provider leaves out is estimated locally
    and counted in ``estimated_calls``."""

    def __init__(self, endpoint: str, **settings):
        super().__init__(endpoint, **settings)
        self.estimated_calls = 0
        self._count_lock = threading.Lock()

    def describe(self) -> dict:
        return {"kind": "http", "endpoint": self.endpoint, "estimated_usage_calls": self.estimated_calls}

    def chat(self, request: ChatRequest) -> tuple[str, Usage]:
        payload: dict = {
            "model": request.model,
            "messages": list(request.messages),
            "temperature": TEMPERATURE,
        }
        if request.max_tokens is not None:
            payload["max_tokens"] = request.max_tokens

        def read(body):
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {type(text).__name__}, not a string")
            usage = body.get("usage")
            if usage and "prompt_tokens" in usage and "completion_tokens" in usage:
                return text, Usage.from_dict(usage)
            return text, None

        text, usage = self.post("chat/completions", payload, read)
        if usage is None:
            # Documented fallback: provider sent no usage, estimate locally.
            with self._count_lock:  # worker threads share the backend
                self.estimated_calls += 1
            prompt_est = sum(estimate_tokens(m["content"]) for m in request.messages)
            usage = Usage(prompt_est, estimate_tokens(text))
        return text, usage


class HttpEmbedBackend(HttpClient):
    def __init__(self, endpoint: str, model: str, **settings):
        super().__init__(endpoint, **settings)
        self.model = model

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            return []

        def read(body):
            data = body["data"]
            if not isinstance(data, list) or len(data) != len(texts):
                raise TypeError(f"'data' is not a list of {len(texts)} embeddings")
            if any("index" in row for row in data):  # OpenAI-style rows name the input they embed
                rows = {row.get("index"): row for row in data if type(row.get("index")) is int}
                if rows.keys() != set(range(len(texts))):
                    raise ValueError(f"'index' fields are not 0..{len(texts) - 1} once each")
                data = [rows[i] for i in range(len(texts))]
            vectors = [row["embedding"] for row in data]
            if not all(map(_is_number_list, vectors)):
                raise TypeError("an 'embedding' is not a non-empty list of numbers")
            dims = {len(v) for v in vectors}
            if len(dims) > 1:
                raise ValueError(f"embeddings of inconsistent dimensions {sorted(dims)}")
            _float_array(vectors, "an embedding")
            return vectors

        return self.post("embeddings", {"model": self.model, "input": list(texts)}, read)


def entry_fingerprint(record: dict) -> str:
    """A transcript-format entry's 'fingerprint'; ValueError unless it is a string."""
    if not isinstance(record.get("fingerprint"), str):
        raise ValueError("transcript entry without a fingerprint")
    return record["fingerprint"]


def _is_number_list(value) -> bool:
    # JSON numbers load as int or float; a bool is neither here. The set of
    # types is built in C: an embedding transcript checks every float it reads
    return isinstance(value, list) and bool(value) and set(map(type, value)) <= {int, float}


def check_embed_entry(record: dict) -> np.ndarray:
    """The entry's 'vector' as a float64 array; ValueError unless it is a
    non-empty list of finite numbers."""
    vector = record.get("vector")
    if not _is_number_list(vector):
        raise ValueError("embed entry without a non-empty list of numbers as 'vector'")
    return _float_array(vector, "embed entry 'vector'")


def _float_array(numbers: list, what: str) -> np.ndarray:
    """``numbers`` (a list of decoded JSON numbers, or of equal-length lists of them) as a
    float64 array; ValueError naming ``what`` unless every number is finite. ``files.decode``
    refuses NaN, Infinity and integers beyond float range, but reads 1e999 as inf."""
    array = np.array(numbers, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{what} holds NaN or Infinity")
    return array


class TranscriptStore:
    """Transcript entries keyed by request fingerprint.

    A lookup miss raises unless a live backend was attached for record
    mode, in which case the live responses are appended to the transcript
    and returned; a response the loader would reject raises ApiError and
    appends nothing. A fingerprint is fetched once: lookups that miss it while
    its fetch is in flight wait for that fetch's entry or exception.
    """

    def __init__(self, path: str | Path, record_from=None):
        self.path = Path(path)
        self.record_from = record_from
        self._inflight: dict[str, Future] = {}
        self._lock = threading.Lock()
        if record_from is not None:
            with appending(self.path):  # mends a torn last line before it is read
                pass
        elif not self.path.exists():
            raise FileNotFoundError(f"transcript file not found: {self.path}")
        self._entries = dict(entry for _, entry in iter_jsonl(self.path, TranscriptError, self._read_entry))

    def _read_entry(self, record: dict) -> tuple[str, dict]:
        fingerprint = entry_fingerprint(record)
        self._check_entry(record)
        return fingerprint, record

    def _check_entry(self, record: dict) -> None:
        """Raise ValueError unless ``record`` holds what a replay reads from it."""
        raise NotImplementedError

    def lookup(self, fingerprints: list[str], fetch) -> list[dict]:
        """The entry of each fingerprint, in order. In record mode the
        misses' positions go to ``fetch``, which asks ``record_from`` and
        returns one new entry body per position."""
        entries = [self._entries.get(fp) for fp in fingerprints]
        missing = [i for i, entry in enumerate(entries) if entry is None]
        if not missing:
            return entries
        if self.record_from is None:
            raise TranscriptMissError(fingerprints[missing[0]])
        mine, waits = [], []
        with self._lock:
            for i in missing:
                fp = fingerprints[i]
                if fp in self._entries:
                    entries[i] = self._entries[fp]
                    continue
                if fp not in self._inflight:
                    self._inflight[fp] = Future()
                    mine.append(i)
                waits.append((i, self._inflight[fp]))
        if mine:
            try:
                fresh = [{"fingerprint": fingerprints[i], **body} for i, body in zip(mine, fetch(mine), strict=True)]
                for entry in fresh:
                    try:
                        self._check_entry(entry)
                    except ValueError as exc:
                        raise ApiError(200, f"malformed response body ({exc!r})") from None
                with self._lock, appending(self.path) as append:
                    for i, entry in zip(mine, fresh):
                        self._entries[fingerprints[i]] = entry
                        append(entry)
                        self._inflight.pop(fingerprints[i]).set_result(entry)
            except BaseException as exc:
                with self._lock:
                    for i in mine:
                        future = self._inflight.pop(fingerprints[i], None)
                        if future is not None:
                            future.set_exception(exc)
                raise
        for i, future in waits:
            entries[i] = future.result()
        return entries


class TranscriptChatBackend(TranscriptStore):
    """Deterministic replay of recorded chat completions."""

    def describe(self) -> dict:
        info = {"kind": "transcript" if self.record_from is None else "record", "path": str(self.path)}
        if self.record_from is not None:
            info["record_from"] = self.record_from.describe()
        return info

    def _check_entry(self, record: dict) -> None:
        if not isinstance(record.get("response"), str):
            raise ValueError("chat entry without a string 'response'")
        try:
            Usage.from_dict(record)
        except (KeyError, TypeError, ValueError):
            raise ValueError("chat entry token counts are not non-negative integers") from None

    def chat(self, request: ChatRequest) -> tuple[str, Usage]:
        def fetch(_missing):
            text, usage = self.record_from.chat(request)
            return [{"response": text, **usage.to_dict()}]

        (entry,) = self.lookup([request_fingerprint(request.model, request.messages)], fetch)
        return entry["response"], Usage.from_dict(entry)


class TranscriptEmbedBackend(TranscriptStore):
    """Replay embeddings recorded per (model, text) fingerprint."""

    def __init__(self, path: str | Path, model: str, record_from: HttpEmbedBackend | None = None):
        super().__init__(path, record_from)
        self.model = model

    _check_entry = staticmethod(check_embed_entry)

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            return []

        def fetch(missing):
            return [{"vector": v} for v in self.record_from.embed([texts[i] for i in missing])]

        entries = self.lookup([text_fingerprint(self.model, t) for t in texts], fetch)
        return [entry["vector"] for entry in entries]
