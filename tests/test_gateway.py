import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import ragsel
from ragsel.files import write_jsonl
from ragsel.gateway import (
    ApiError,
    ChatRequest,
    HttpChatBackend,
    HttpEmbedBackend,
    TranscriptChatBackend,
    TranscriptEmbedBackend,
    TranscriptError,
    TranscriptMissError,
    TransportError,
    Usage,
    ZERO_USAGE,
    _TOKEN_RE,
    estimate_tokens,
    merge_usage,
    request_fingerprint,
    text_fingerprint,
    user_request,
)


def test_estimate_tokens_examples():
    assert estimate_tokens("") == 0
    assert estimate_tokens("a b c") == 3
    # Hand count: Final / Selection / : / [ / 2 / ] = 6
    assert estimate_tokens("Final Selection: [2]") == 6


def test_estimate_tokens_more_shapes():
    assert estimate_tokens("don't") == 3  # don / ' / t
    assert estimate_tokens("x.") == 2
    assert estimate_tokens("   ") == 0
    assert estimate_tokens("a\x1fb") == 2  # \x1f is \s to re but not whitespace to bytes.split
    assert estimate_tokens("caf\u00e9.") == 2
    assert estimate_tokens("\u6771\u4eac\u3002") == 2
    assert estimate_tokens("e\u0301") == 2  # a combining accent is neither \w nor \s
    assert estimate_tokens("\u0663\u0664 x") == 2


def _regex_count(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


def test_estimate_tokens_counts_every_ascii_pair_as_the_regex_does():
    for a in map(chr, range(128)):
        for b in map(chr, range(128)):
            for text in (a + b, f"x{a}{b}y", f"{a}xy{b}", f"{a} {b}"):
                assert estimate_tokens(text) == _regex_count(text), repr(text)


NON_ASCII = ["\u00a0", "\u2028", "\u3000", "\u00e9", "\u0301", "\u6771\u4eac", "\u3002", "\u0663\u0664"]


def test_estimate_tokens_of_mixed_text_equals_the_regex_count():
    rng = random.Random(24)
    alphabet = [chr(c) for c in range(128)] + NON_ASCII
    ascii_only = 0
    for _ in range(20_000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(25)))
        ascii_only += text.isascii()
        assert estimate_tokens(text) == _regex_count(text), repr(text)
    assert 2000 < ascii_only < 18_000  # both ways of counting were taken


def test_merge_usage_identity_and_sum():
    u = Usage(3, 5)
    assert merge_usage(u, ZERO_USAGE) == u
    assert merge_usage(ZERO_USAGE, u) == u
    assert merge_usage(Usage(1, 2), Usage(10, 20)) == Usage(11, 22)


def test_merge_usage_commutative_associative():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (Usage(rng.randrange(100), rng.randrange(100)) for _ in range(3))
        assert merge_usage(a, b) == merge_usage(b, a)
        assert merge_usage(merge_usage(a, b), c) == merge_usage(a, merge_usage(b, c))


def test_usage_rejects_negative():
    with pytest.raises(ValueError):
        Usage(-1, 0)


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(model="", messages=({"role": "user", "content": "x"},))
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=())
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=({"role": "user"},))


def test_fingerprint_stability_and_injectivity():
    messages = [{"role": "user", "content": "hello"}]
    assert request_fingerprint("m1", messages) == request_fingerprint("m1", messages)
    assert request_fingerprint("m1", messages) != request_fingerprint("m2", messages)
    assert request_fingerprint("m1", messages) != request_fingerprint(
        "m1", [{"role": "user", "content": "hello!"}]
    )
    seen = set()
    for i in range(200):
        fp = request_fingerprint("m", [{"role": "user", "content": f"prompt {i}"}])
        assert fp not in seen
        seen.add(fp)


def _entry(model, content, response, pt=11, ct=7):
    return {
        "fingerprint": request_fingerprint(model, [{"role": "user", "content": content}]),
        "response": response,
        "prompt_tokens": pt,
        "completion_tokens": ct,
    }


def test_transcript_replay_verbatim(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [_entry("m", "ping", "pong", pt=4, ct=2)])
    backend = TranscriptChatBackend(path)
    text, usage = backend.chat(user_request("m", "ping"))
    assert text == "pong"
    assert usage == Usage(4, 2)
    # identical request, identical response
    assert backend.chat(user_request("m", "ping")) == (text, usage)


def test_transcript_miss_names_fingerprint(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [_entry("m", "ping", "pong")])
    backend = TranscriptChatBackend(path)
    request = user_request("m", "unseen")
    with pytest.raises(TranscriptMissError) as err:
        backend.chat(request)
    assert request_fingerprint("m", request.messages) in str(err.value)


def test_transcript_missing_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        TranscriptChatBackend(tmp_path / "absent.jsonl")


@pytest.mark.parametrize(
    "damage,fragment",
    [
        (lambda e: e.pop("response"), "chat entry without a string 'response'"),
        (lambda e: e.update(response=["pong"]), "chat entry without a string 'response'"),
        (lambda e: e.pop("completion_tokens"), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(prompt_tokens="four"), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(prompt_tokens=None), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(completion_tokens=-1), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(prompt_tokens="7"), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(prompt_tokens=2.9), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(completion_tokens=2.0), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(completion_tokens=True), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(prompt_tokens=1e2), "chat entry token counts are not non-negative integers"),
        (lambda e: e.update(prompt_tokens=10**400), "invalid JSON: an integer beyond float range"),
    ],
    ids=["no-response", "list-response", "no-count", "word-count", "null-count", "negative-count",
         "digit-string-count", "fraction-count", "whole-float-count", "bool-count", "exponent-count", "huge-count"],
)
def test_chat_transcript_rejects_malformed_entries_on_load(tmp_path, damage, fragment):
    path = tmp_path / "t.jsonl"
    bad = _entry("m", "ping", "pong")
    damage(bad)
    write_jsonl(path, [_entry("m", "ok", "fine"), bad])
    with pytest.raises(TranscriptError, match=f"t.jsonl: line 2: {fragment}"):
        TranscriptChatBackend(path)


@pytest.mark.parametrize(
    "vector",
    [None, [], ["x", 1.0], [True, 0.0], [[1.0]], {"0": 1.0}, "1.0"],
    ids=["no-vector", "empty", "string-in-vector", "bool-in-vector", "nested", "dict", "string"],
)
def test_embed_transcript_rejects_malformed_entries_on_load(tmp_path, vector):
    path = tmp_path / "emb.jsonl"
    bad = {"fingerprint": text_fingerprint("emb", "b")}
    if vector is not None:
        bad["vector"] = vector
    write_jsonl(path, [{"fingerprint": text_fingerprint("emb", "a"), "vector": [1, 0.5]}, bad])
    with pytest.raises(TranscriptError, match="emb.jsonl: line 2: embed entry without a non-empty list of numbers"):
        TranscriptEmbedBackend(path, model="emb")


NOT_A_FLOAT = "1" + "0" * 400  # a JSON integer beyond float range


@pytest.mark.parametrize(
    "number,fragment",
    [("NaN", "invalid JSON: NaN is not a JSON number"), ("Infinity", "invalid JSON: Infinity is not a JSON number"),
     ("-Infinity", "invalid JSON: -Infinity is not a JSON number"),
     (NOT_A_FLOAT, "invalid JSON: an integer beyond float range"),
     ("1e999", "embed entry 'vector' holds NaN or Infinity"), ("-1e999", "embed entry 'vector' holds NaN or Infinity")],
    ids=["nan", "infinity", "minus-infinity", "huge-int", "float-overflow", "minus-float-overflow"],
)
def test_embed_transcript_rejects_numbers_that_are_not_finite_floats(tmp_path, number, fragment):
    # json.loads takes all six; none is a JSON number a vector can hold (RFC 8259 section 6). The decoder
    # refuses the literals and the integer on any line; only a vector must hold finite floats (1e999 reads as inf)
    path = tmp_path / "emb.jsonl"
    good = json.dumps({"fingerprint": text_fingerprint("emb", "a"), "vector": [1, 0.5]})
    bad = f'{{"fingerprint": "{text_fingerprint("emb", "b")}", "vector": [0.5, {number}]}}'
    path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(TranscriptError, match=f"emb.jsonl: line 2: {fragment}"):
        TranscriptEmbedBackend(path, model="emb")


class StubLiveChat:
    def __init__(self, response="live answer", usage=Usage(9, 3)):
        self.response = response
        self.usage = usage
        self.calls = 0

    def describe(self):
        return {"kind": "stub"}

    def chat(self, request):
        self.calls += 1
        return self.response, self.usage


def test_record_mode_writes_then_replays(tmp_path):
    path = tmp_path / "t.jsonl"
    live = StubLiveChat()
    backend = TranscriptChatBackend(path, record_from=live)
    text, usage = backend.chat(user_request("m", "fresh"))
    assert (text, usage) == ("live answer", Usage(9, 3))
    assert live.calls == 1
    # replay from memory, no second live call
    backend.chat(user_request("m", "fresh"))
    assert live.calls == 1
    # and a new backend replays from the recorded file
    replay = TranscriptChatBackend(path)
    assert replay.chat(user_request("m", "fresh")) == ("live answer", Usage(9, 3))
    assert json.loads(path.read_text(encoding="utf-8")) == _entry("m", "fresh", "live answer", pt=9, ct=3)


@pytest.mark.parametrize("tail", ["", '{"fingerprint": "ab'], ids=["whole-entry", "torn-entry"])
def test_record_mode_after_a_last_line_without_newline(tmp_path, tail):
    # a whole last entry that lost only its newline is kept on a line of its
    # own; a torn one is cut, so the next load does not fail on either
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(_entry("m", "old", "old answer")) + ("\n" + tail if tail else ""), encoding="utf-8")
    TranscriptChatBackend(path, record_from=StubLiveChat()).chat(user_request("m", "fresh"))
    replay = TranscriptChatBackend(path)
    assert replay.chat(user_request("m", "old"))[0] == "old answer"
    assert replay.chat(user_request("m", "fresh"))[0] == "live answer"


class SlowLive:
    """A live chat and embed backend slow enough that concurrent misses overlap."""

    def __init__(self, error=None):
        self.error = error
        self.calls = 0
        self.texts = []
        self._lock = threading.Lock()

    def _call(self, texts):
        with self._lock:
            self.calls += 1
            self.texts.extend(texts)
        time.sleep(0.2)
        if self.error is not None:
            raise self.error

    def chat(self, request):
        self._call([request.messages[0]["content"]])
        return "live answer", Usage(9, 3)

    def embed(self, texts):
        self._call(texts)
        return [[float(len(t)), 1.0] for t in texts]


def _in_threads(n, work):
    """``work(i)`` on n threads started together; each result or exception, in order."""
    start = threading.Barrier(n)

    def run(i):
        start.wait()
        try:
            return work(i)
        except Exception as exc:
            return exc

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(run, range(n)))


def test_record_mode_fetches_a_missed_fingerprint_once(tmp_path):
    path = tmp_path / "t.jsonl"
    live = SlowLive()
    backend = TranscriptChatBackend(path, record_from=live)
    results = _in_threads(8, lambda _: backend.chat(user_request("m", "fresh")))
    assert results == [("live answer", Usage(9, 3))] * 8
    assert live.calls == 1
    assert path.read_text(encoding="utf-8").splitlines() == [json.dumps(_entry("m", "fresh", "live answer", 9, 3))]


def test_record_mode_fetches_each_embed_text_once(tmp_path):
    path = tmp_path / "emb.jsonl"
    live = SlowLive()
    backend = TranscriptEmbedBackend(path, model="emb", record_from=live)
    results = _in_threads(4, lambda i: backend.embed(["shared", f"own {i}", "shared"]))
    assert results == [[[6.0, 1.0], [5.0, 1.0], [6.0, 1.0]]] * 4
    assert sorted(live.texts) == ["own 0", "own 1", "own 2", "own 3", "shared"]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 5


def test_record_mode_waiters_get_the_fetch_error(tmp_path):
    path = tmp_path / "t.jsonl"
    live = SlowLive(error=TransportError("gave up"))
    backend = TranscriptChatBackend(path, record_from=live)
    results = _in_threads(4, lambda _: backend.chat(user_request("m", "fresh")))
    assert all(isinstance(r, TransportError) for r in results)
    assert live.calls == 1
    # a failed fetch is not remembered: the next miss asks again
    live.error = None
    assert backend.chat(user_request("m", "fresh")) == ("live answer", Usage(9, 3))
    assert live.calls == 2


def test_usage_totals_are_additive(tmp_path):
    path = tmp_path / "t.jsonl"
    usages = []
    write_jsonl(path, [_entry("m", f"q{i}", f"a{i}", pt=i + 1, ct=2 * i) for i in range(5)])
    backend = TranscriptChatBackend(path)
    total = ZERO_USAGE
    for i in range(5):
        _, usage = backend.chat(user_request("m", f"q{i}"))
        usages.append(usage)
        total = merge_usage(total, usage)
    assert total == Usage(sum(u.prompt_tokens for u in usages), sum(u.completion_tokens for u in usages))


# --- live HTTP backends against a scripted local server -------------------


def _chat_body(text, usage=None):
    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        body["usage"] = usage
    return body


def test_http_chat_success(monkeypatch, scripted_server):
    monkeypatch.setenv("TEST_GW_KEY", "sekrit")
    script = [(200, _chat_body("hi there", {"prompt_tokens": 12, "completion_tokens": 4}))]
    with scripted_server(script) as (endpoint, log):
        backend = HttpChatBackend(endpoint, api_key_env="TEST_GW_KEY", backoff_base=0.0)
        text, usage = backend.chat(user_request("gpt-test", "hello", max_tokens=64))
    assert (text, usage) == ("hi there", Usage(12, 4))
    assert log[0]["path"] == "/chat/completions"
    assert log[0]["auth"] == "Bearer sekrit"
    assert log[0]["payload"]["model"] == "gpt-test"
    assert log[0]["payload"]["temperature"] == 0.0
    assert log[0]["payload"]["max_tokens"] == 64


def test_http_chat_retries_on_429_then_succeeds(scripted_server):
    script = [(429, {"error": "slow down"}), (200, _chat_body("ok", {"prompt_tokens": 1, "completion_tokens": 1}))]
    with scripted_server(script) as (endpoint, log):
        backend = HttpChatBackend(endpoint, backoff_base=0.001)
        text, _ = backend.chat(user_request("m", "q"))
    assert text == "ok"
    assert len(log) == 2


def test_http_chat_exhausts_retries_on_5xx(scripted_server):
    script = [(503, {}), (503, {}), (503, {})]
    with scripted_server(script) as (endpoint, log):
        backend = HttpChatBackend(endpoint, backoff_base=0.001, max_attempts=3)
        with pytest.raises(TransportError, match="3 attempts"):
            backend.chat(user_request("m", "q"))
    assert len(log) == 3


def test_http_chat_4xx_not_retried(scripted_server):
    script = [(400, {"error": "bad request body"})]
    with scripted_server(script) as (endpoint, log):
        backend = HttpChatBackend(endpoint, backoff_base=0.001)
        with pytest.raises(ApiError, match="bad request body"):
            backend.chat(user_request("m", "q"))
    assert len(log) == 1


@pytest.mark.parametrize(
    "body",
    [{}, {"choices": []}, {"choices": [{"message": {"content": None}}]}, [1, 2], b"<html>oops</html>",
     _chat_body("ok", {"prompt_tokens": 2.9, "completion_tokens": True}),
     _chat_body("ok", {"prompt_tokens": "7", "completion_tokens": 1e2})],
    ids=["empty", "no-choice", "null-content", "list", "not-json", "fraction-bool-usage", "string-float-usage"],
)
def test_http_chat_malformed_200_is_api_error(scripted_server, body):
    with scripted_server([(200, body)]) as (endpoint, log):
        backend = HttpChatBackend(endpoint, backoff_base=0.001)
        with pytest.raises(ApiError, match="malformed response body") as excinfo:
            backend.chat(user_request("m", "q"))
    assert excinfo.value.status == 200
    assert len(log) == 1  # a malformed reply is not retried


@pytest.mark.parametrize(
    "body",
    [{"data": {"embedding": [1.0]}}, {"data": "x"}, {"data": [{"embedding": [1.0]}]}, {}, b"not json"],
    ids=["dict-data", "str-data", "too-few", "no-data", "not-json"],
)
def test_http_embed_malformed_200_is_api_error(scripted_server, body):
    with scripted_server([(200, body)]) as (endpoint, _):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        with pytest.raises(ApiError, match="malformed response body"):
            backend.embed(["a", "b"])


@pytest.mark.parametrize("vector", [[True, 0.5], "ab", [[1.0]], []], ids=["bool", "string", "nested", "empty"])
def test_http_embed_row_that_is_not_a_list_of_numbers_is_api_error(scripted_server, vector):
    # the first row is as long as the second, so the dimension check cannot tell
    body = {"data": [{"embedding": [0.5] * len(vector)}, {"embedding": vector}]}
    with scripted_server([(200, body)]) as (endpoint, log):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        with pytest.raises(ApiError, match="malformed response body .*not a non-empty list of numbers") as err:
            backend.embed(["a", "b"])
    assert err.value.status == 200
    assert len(log) == 1


@pytest.mark.parametrize("vector", [[True, 0.5], "ab", [[1.0], [2.0]]], ids=["bool", "string", "nested"])
def test_record_mode_appends_no_entry_its_loader_rejects(scripted_server, tmp_path, vector):
    path = tmp_path / "emb.jsonl"
    body = {"data": [{"embedding": [1.0, 0.5]}, {"embedding": vector}]}
    with scripted_server([(200, body)]) as (endpoint, _):
        live = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        backend = TranscriptEmbedBackend(path, model="emb", record_from=live)
        with pytest.raises(ApiError, match="malformed response body") as excinfo:
            backend.embed(["a", "b"])
    assert excinfo.value.status == 200
    assert path.read_bytes() == b""  # so the transcript still loads


def test_record_mode_appends_no_reply_holding_an_unpaired_surrogate(scripted_server, tmp_path):
    # json.loads takes the escape, but no UTF-8 writer can write the string back
    path = tmp_path / "t.jsonl"
    body = b'{"choices": [{"message": {"role": "assistant", "content": "alpha \\ud800"}}]}'
    with scripted_server([(200, body)]) as (endpoint, log):
        backend = TranscriptChatBackend(path, record_from=HttpChatBackend(endpoint, backoff_base=0.001))
        with pytest.raises(ApiError, match="malformed response body .*unpaired surrogate") as excinfo:
            backend.chat(user_request("m", "hello"))
    assert excinfo.value.status == 200
    assert len(log) == 1
    assert path.read_bytes() == b""


def test_http_chat_reads_a_reply_behind_a_utf8_byte_order_mark(scripted_server):
    # RFC 8259 section 8.1 lets a reader skip the mark
    body = b"\xef\xbb\xbf" + json.dumps(_chat_body("hi", {"prompt_tokens": 2, "completion_tokens": 1})).encode()
    with scripted_server([(200, body)]) as (endpoint, _):
        backend = HttpChatBackend(endpoint, backoff_base=0.001)
        assert backend.chat(user_request("m", "hello")) == ("hi", Usage(2, 1))


def test_http_chat_estimates_when_usage_missing(scripted_server, tmp_path):
    script = [(200, _chat_body("a b c"))]
    with scripted_server(script) as (endpoint, _):
        live = HttpChatBackend(endpoint, backoff_base=0.001)
        backend = TranscriptChatBackend(tmp_path / "t.jsonl", record_from=live)
        text, usage = backend.chat(user_request("m", "hello world"))
    assert text == "a b c"
    assert usage == Usage(estimate_tokens("hello world"), 3)
    # the count reaches the run manifest through describe(), which names the config's backend kind
    assert backend.describe()["kind"] == "record"
    assert backend.describe()["record_from"] == {"kind": "http", "endpoint": endpoint, "estimated_usage_calls": 1}


class _SwitchingCount:
    """An attribute whose read lets other threads run before the caller
    writes it back. CPython 3.11 switches threads only at calls and loop
    edges, so ``self.n += 1`` alone rarely shows a lost update; a lock must
    cover the read and the write all the same."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__.get("_count", 0)
        time.sleep(0)
        return value

    def __set__(self, obj, value):
        obj.__dict__["_count"] = value


class _NoUsageChat(HttpChatBackend):
    estimated_calls = _SwitchingCount()

    def post(self, route, payload, read):
        return read(_chat_body("a b"))


def test_http_chat_counts_estimated_calls_exactly_across_threads():
    backend = _NoUsageChat("http://127.0.0.1:1")
    start = threading.Barrier(16)

    def work():
        start.wait()
        for _ in range(200):
            backend.chat(user_request("m", "q"))

    threads = [threading.Thread(target=work) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert backend.estimated_calls == 16 * 200
    assert backend.describe()["estimated_usage_calls"] == 16 * 200


def test_http_chat_transport_error_on_refused_port():
    backend = HttpChatBackend("http://127.0.0.1:1", backoff_base=0.0, max_attempts=2)
    with pytest.raises(TransportError):
        backend.chat(user_request("m", "q"))


def test_http_chat_missing_credential_env():
    backend = HttpChatBackend("http://127.0.0.1:1", api_key_env="RAGSEL_NO_SUCH_KEY_VAR")
    with pytest.raises(ApiError, match="RAGSEL_NO_SUCH_KEY_VAR"):
        backend.chat(user_request("m", "q"))


def test_http_embed_success_and_uniform_dims(scripted_server):
    script = [(200, {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]})]
    with scripted_server(script) as (endpoint, log):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        vectors = backend.embed(["a", "b"])
    assert vectors == [[1.0, 0.0], [0.0, 1.0]]
    assert log[0]["path"] == "/embeddings"
    assert log[0]["payload"] == {"model": "emb", "input": ["a", "b"]}


def test_http_embed_places_rows_by_their_index(scripted_server):
    rows = [{"index": 2, "embedding": [2.0]}, {"index": 1, "embedding": [1.0]}, {"index": 0, "embedding": [0.0]}]
    with scripted_server([(200, {"data": rows})]) as (endpoint, _):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        assert backend.embed(["a", "b", "c"]) == [[0.0], [1.0], [2.0]]


@pytest.mark.parametrize(
    "indices",
    [[0, 0, 2], [1, 2, 3], [0, 2], [0, True, 2], [0, "1", 2]],
    ids=["duplicate", "one-based", "one-without", "bool", "string"],
)
def test_http_embed_bad_row_indices_are_api_errors(scripted_server, indices):
    rows = [{"embedding": [float(n)]} for n in range(3)]
    for row, index in zip(rows, indices):  # a shorter list leaves the last row without one
        row["index"] = index
    with scripted_server([(200, {"data": rows})]) as (endpoint, _):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        with pytest.raises(ApiError, match=r"malformed response body .*'index' fields are not 0\.\.2 once each") as err:
            backend.embed(["a", "b", "c"])
    assert err.value.status == 200


def test_http_embed_inconsistent_dims_error(scripted_server):
    script = [(200, {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0]}]})]
    with scripted_server(script) as (endpoint, _):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        with pytest.raises(ApiError, match=r"malformed response body .*inconsistent dimensions \[1, 2\]") as excinfo:
            backend.embed(["a", "b"])
    assert excinfo.value.status == 200


INFINITE = "an embedding holds NaN or Infinity"  # the embedding transcript and cache's rule


@pytest.mark.parametrize(
    "number, reason",
    [
        ("NaN", "NaN is not a JSON number"),
        ("Infinity", "Infinity is not a JSON number"),
        ("-Infinity", "-Infinity is not a JSON number"),
        (NOT_A_FLOAT, "an integer beyond float range"),
        ("1e999", INFINITE),
        ("-1e999", INFINITE),
        (NOT_A_FLOAT + ".0", INFINITE),
    ],
    ids=["nan", "infinity", "minus-infinity", "huge-int", "overflow", "minus-overflow", "long-float"],
)
def test_http_embed_number_that_is_not_a_finite_float_is_api_error(scripted_server, number, reason):
    body = f'{{"data": [{{"embedding": [0.5, 1.0]}}, {{"embedding": [0.5, {number}]}}]}}'.encode()
    with scripted_server([(200, body)]) as (endpoint, log):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        with pytest.raises(ApiError, match=re.escape(f"malformed response body (ValueError({reason!r})")) as err:
            backend.embed(["a", "b"])
    assert err.value.status == 200
    assert len(log) == 1


def test_http_embed_empty_input_no_call():
    backend = HttpEmbedBackend("http://127.0.0.1:1", model="emb")
    assert backend.embed([]) == []


class StubLiveEmbed:
    model = "emb"

    def __init__(self):
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return [[float(len(t)), 1.0] for t in texts]


def test_transcript_embed_record_and_replay(tmp_path):
    path = tmp_path / "emb.jsonl"
    live = StubLiveEmbed()
    backend = TranscriptEmbedBackend(path, model="emb", record_from=live)
    assert backend.embed(["abc", "de"]) == [[3.0, 1.0], [2.0, 1.0]]
    assert live.calls == 1
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert lines == [
        {"fingerprint": text_fingerprint("emb", "abc"), "vector": [3.0, 1.0]},
        {"fingerprint": text_fingerprint("emb", "de"), "vector": [2.0, 1.0]},
    ]
    replay = TranscriptEmbedBackend(path, model="emb")
    assert replay.embed(["abc"]) == [[3.0, 1.0]]
    with pytest.raises(TranscriptMissError):
        replay.embed(["unseen text"])
    assert text_fingerprint("emb", "abc") != text_fingerprint("emb", "de")


def test_concurrent_transcript_replay_is_safe(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [_entry("m", f"q{i}", f"a{i}") for i in range(20)])
    backend = TranscriptChatBackend(path)
    results = {}

    def worker(i):
        results[i] = backend.chat(user_request("m", f"q{i}"))[0]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(20)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: f"a{i}" for i in range(20)}


# --- transport edges ----------------------------------------------------------


def test_http_error_body_that_is_not_utf8(scripted_server):
    with scripted_server([(400, b"bad \xff\xfe body")]) as (endpoint, _):
        backend = HttpChatBackend(endpoint, backoff_base=0.0)
        with pytest.raises(ApiError) as err:
            backend.chat(user_request("m", "q"))
    assert (err.value.status, err.value.body) == (400, "bad \ufffd\ufffd body")


@pytest.mark.parametrize("status", [302, 307])
def test_http_redirect_is_an_api_error_and_not_followed(scripted_server, status):
    script = [
        (status, {"moved": "elsewhere"}, {"Location": "/elsewhere"}),
        (200, _chat_body("followed", {"prompt_tokens": 1, "completion_tokens": 1})),
    ]
    with scripted_server(script) as (endpoint, log):
        backend = HttpChatBackend(endpoint, backoff_base=0.0)
        with pytest.raises(ApiError, match=f"HTTP {status}: .*elsewhere") as err:
            backend.chat(user_request("m", "q"))
    assert err.value.status == status
    assert [entry["path"] for entry in log] == ["/chat/completions"]


def _cut_short(handler):
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices": [')  # then the server closes the connection


def test_http_connection_closed_mid_body_is_retried_then_transport_error(scripted_server):
    with scripted_server([_cut_short, _cut_short, _cut_short]) as (endpoint, log):
        backend = HttpChatBackend(endpoint, backoff_base=0.0, max_attempts=3)
        with pytest.raises(TransportError, match="gave up after 3 attempts: .*IncompleteRead"):
            backend.chat(user_request("m", "q"))
    assert len(log) == 3


def _stall(handler):
    time.sleep(0.2)  # longer than the client waits; then the connection closes with no reply


def test_http_read_timeout_is_transport_error_after_max_attempts(scripted_server):
    # the one-thread server is still stalled on the first request when the second times out
    with scripted_server([_stall, _stall]) as (endpoint, _):
        backend = HttpChatBackend(endpoint, timeout=0.05, backoff_base=0.0, max_attempts=2)
        with pytest.raises(TransportError, match="gave up after 2 attempts: .*timed out"):
            backend.chat(user_request("m", "q"))


def test_http_no_proxy_bypasses_a_dead_proxy(monkeypatch, scripted_server):
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:1")  # nothing listens there
    script = [(200, _chat_body("direct", {"prompt_tokens": 1, "completion_tokens": 1}))]
    with scripted_server(script) as (endpoint, log):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert HttpChatBackend(endpoint, backoff_base=0.0).chat(user_request("m", "q"))[0] == "direct"
        monkeypatch.delenv("no_proxy")
        with pytest.raises(TransportError, match="Connection refused"):
            HttpChatBackend(endpoint, backoff_base=0.0, max_attempts=2).chat(user_request("m", "q"))
    assert len(log) == 1


def test_importing_ragsel_does_not_import_requests():
    code = "import sys, ragsel; print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(ragsel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"
