"""Scripted model: deterministic chat completions and embeddings.

Every output is a function of the request alone, so the in-process backend,
the HTTP stub and the generated teacher transcripts all agree. The benchmark
plants its signals in the generated text:

- ``t<5 digits>``: a question's topic token; planted passages carry it.
- ``q<5 digits>``: the question number; ``number % 5`` picks the selection
  class (A-E, the same classes as the repository fixtures).
- ``ev<topic>a`` / ``ev<topic>b``: evidence in the two gold passages;
  ``ev<topic>c``: evidence in one non-gold passage.
- ``ans<topic>``: the gold answer, planted in the first gold passage.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
import zlib

from ragsel.gateway import Usage, estimate_tokens

SELECTION_MARKER = "### Final Selection:"
EMBED_DIM = 256

# selection classes, keyed by question number % 5
CLASSES = "ABCDE"

_CANDIDATE_RE = re.compile(r"^\[(\d+)\] (.*)$", re.M)
_TOPIC_RE = re.compile(r"\bt(\d{5})\b")
_QNUM_RE = re.compile(r"\bq(\d{5})\b")
_WORD_RE = re.compile(r"\w+")


def request_key(model: str, contents) -> str:
    """Fingerprint of one request: model plus every message or input text."""
    digest = hashlib.sha256(model.encode("utf-8"))
    for text in contents:
        digest.update(b"\x00")
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def key_fraction(key: str, salt: str = "") -> float:
    """A number in [0, 1) derived from a request key."""
    return int(hashlib.sha256((salt + key).encode("ascii")).hexdigest()[:12], 16) / 16**12


def selection_completion(cls: str, gold: list[int], other: list[int], topic: str, steps: int) -> str:
    """Teacher/selector text for one planted class.

    A: clean gold pick; B: off-gold pick; C: no marker (fallback);
    D: duplicates and an out-of-range index around the gold pick;
    E: a single pick; O: every index out of range (teacher-only class).
    """
    picks = gold or [1]
    reasoning = [f"Step 1. The query about {topic} needs {steps} facts."]
    reasoning += [f"Step {i + 2}. Requirement {i + 1} is met by passage [{picks[i % len(picks)]}]." for i in range(steps)]
    if cls == "A":
        return "\n".join(reasoning + [SELECTION_MARKER + " " + " ".join(f"[{i}]" for i in picks)])
    if cls == "B":
        off = other[:2] or [1]
        return "\n".join(reasoning[:1] + [SELECTION_MARKER + " " + " ".join(f"[{i}]" for i in off)])
    if cls == "C":
        return "I cannot determine a selection for this query."
    if cls == "D":
        tail = " ".join(f"[{i}]" for i in picks[1:])
        return f"{SELECTION_MARKER} [{picks[0]}] [{picks[0]}] [99] {tail}".rstrip()
    if cls == "E":
        return f"Considering coverage.\n{SELECTION_MARKER} [{picks[0]}]"
    if cls == "O":
        return f"Step 1. Nothing fits.\n{SELECTION_MARKER} [91] [97]"
    raise ValueError(f"unknown selection class {cls!r}")


def _last(pattern: re.Pattern, text: str) -> str | None:
    found = pattern.findall(text)
    return found[-1] if found else None


def complete(prompt: str, key: str) -> str:
    """Completion for a selection or an answer prompt.

    The question is the last thing in both prompt kinds that carries a
    topic token, so the last ``t<digits>`` / ``q<digits>`` tokens are the
    question's own.
    """
    topic = _last(_TOPIC_RE, prompt)
    if SELECTION_MARKER in prompt:
        qnum = _last(_QNUM_RE, prompt)
        cls = CLASSES[int(qnum) % 5] if qnum else "C"
        gold, other = [], []
        for num, text in _CANDIDATE_RE.findall(prompt):
            is_gold = topic is not None and (f"ev{topic}a" in text or f"ev{topic}b" in text)
            (gold if is_gold else other).append(int(num))
        steps = 1 + int(key_fraction(key, "steps") * 3)
        return selection_completion(cls, gold, other, f"t{topic}", steps)
    if topic is not None and f"ans{topic}" in prompt:
        return f"A: ans{topic}"
    return "A: unknown"


def usage_for(prompt_texts, completion: str) -> Usage:
    return Usage(sum(estimate_tokens(t) for t in prompt_texts), estimate_tokens(completion))


def embed_text(text: str) -> list[float]:
    """Bag-of-words feature hashing; integer counts keep cosine exact."""
    vec = [0.0] * EMBED_DIM
    for token in _WORD_RE.findall(text.lower()):
        vec[zlib.crc32(token.encode("utf-8")) % EMBED_DIM] += 1.0
    return vec


# chat latency per model: base seconds plus up to as much again
_CHAT_LATENCY = {"selector": 0.008, "generator": 0.004}


def service_seconds(model: str, key: str, n_inputs: int = 1) -> float:
    """Simulated model latency, fixed by the request fingerprint."""
    if model == "embed":
        return 0.001 + 0.00005 * n_inputs
    return _CHAT_LATENCY[model] * (1.0 + key_fraction(key, "latency"))


class ScriptedChatBackend:
    """In-process chat backend with no simulated latency.

    ``last_service_s`` holds, per thread, how long the last call spent in
    the model itself, so callers can separate gateway overhead from it.
    """

    def __init__(self):
        self._local = threading.local()

    def describe(self) -> dict:
        return {"kind": "scripted"}

    @property
    def last_service_s(self) -> float:
        return getattr(self._local, "service_s", 0.0)

    def chat(self, request):
        start = time.perf_counter()
        contents = [m["content"] for m in request.messages]
        key = request_key(request.model, contents)
        text = complete(contents[-1], key)
        usage = usage_for(contents, text)
        self._local.service_s = time.perf_counter() - start
        return text, usage
