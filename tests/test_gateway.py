import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ragsel.files import write_jsonl
from ragsel.gateway import (
    ApiError,
    ChatRequest,
    HttpChatBackend,
    HttpEmbedBackend,
    TranscriptChatBackend,
    TranscriptEmbedBackend,
    TranscriptMissError,
    TransportError,
    Usage,
    ZERO_USAGE,
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
    [{}, {"choices": []}, {"choices": [{"message": {"content": None}}]}, [1, 2], b"<html>oops</html>"],
    ids=["empty", "no-choice", "null-content", "list", "not-json"],
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


def test_http_chat_estimates_when_usage_missing(scripted_server, tmp_path):
    script = [(200, _chat_body("a b c"))]
    with scripted_server(script) as (endpoint, _):
        live = HttpChatBackend(endpoint, backoff_base=0.001)
        backend = TranscriptChatBackend(tmp_path / "t.jsonl", record_from=live)
        text, usage = backend.chat(user_request("m", "hello world"))
    assert text == "a b c"
    assert usage == Usage(estimate_tokens("hello world"), 3)
    # the count reaches the run manifest through describe()
    assert backend.describe()["record_from"] == {"kind": "http", "endpoint": endpoint, "estimated_usage_calls": 1}


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


def test_http_embed_inconsistent_dims_error(scripted_server):
    script = [(200, {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0]}]})]
    with scripted_server(script) as (endpoint, _):
        backend = HttpEmbedBackend(endpoint, model="emb", backoff_base=0.001)
        with pytest.raises(ApiError, match=r"malformed response body .*inconsistent dimensions \[1, 2\]") as excinfo:
            backend.embed(["a", "b"])
    assert excinfo.value.status == 200


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
