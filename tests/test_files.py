"""Tests for the file layer: atomic whole-file writes, mended appends, and the
one reader rule every JSONL input is read by."""

import itertools
import json
import os
import random
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ragsel.corpus import CorpusError, QuestionRecord, load_corpus, load_questions
from ragsel.distill import DistillError, load_label_queries, run_labeling
from ragsel.files import BLOCK, appending, cut_lines, decode, iter_jsonl, replace_atomically, write_json, write_jsonl
from ragsel.gateway import TranscriptChatBackend, TranscriptEmbedBackend, TranscriptError
from ragsel.pipeline import PipelineError, QueryTrace, read_traces
from ragsel.retrieval import CandidateList

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _failing_records():
    yield {"n": 2}
    yield {"n": 3}
    raise RuntimeError("writer died")


def _failing_binary(path):
    with replace_atomically(path, "wb") as fh:
        np.save(fh, np.arange(1000))
        raise RuntimeError("writer died")


@pytest.mark.parametrize(
    "write",
    [lambda path: write_jsonl(path, _failing_records()), _failing_binary],
    ids=["jsonl", "binary"],
)
def test_failed_write_leaves_the_old_file(tmp_path, write):
    path = tmp_path / "artifact"
    write_jsonl(path, [{"n": 1}])
    old = path.read_bytes()
    with pytest.raises(RuntimeError, match="writer died"):
        write(path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize(
    "write",
    [lambda path: write_jsonl(path, [{"n": 2}, {"x": float("nan")}]), lambda path: write_json(path, [float("nan")])],
    ids=["jsonl", "json"],
)
def test_writers_refuse_nan_and_leave_the_old_file(tmp_path, write):
    path = tmp_path / "artifact"
    write_jsonl(path, [{"n": 1}])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write(path)
    assert path.read_bytes() == b'{"n": 1}\n'
    assert os.listdir(tmp_path) == ["artifact"]


def test_appending_refuses_nan_and_appends_nothing(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 0}\n')
    with appending(path) as append:
        with pytest.raises(ValueError, match="not JSON compliant"):
            append({"n": 1}, {"x": float("nan")})
    assert path.read_bytes() == b'{"n": 0}\n'


def test_replaced_file_gets_the_mode_open_gives(tmp_path):
    with open(tmp_path / "plain.json", "w", encoding="utf-8"):
        pass
    write_json(tmp_path / "new.json", {"a": 1})
    want = stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode)
    assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == want
    assert (tmp_path / "new.json").read_text(encoding="utf-8") == '{\n  "a": 1\n}\n'


def test_writers_create_the_parent_directory(tmp_path):
    write_jsonl(tmp_path / "a" / "b" / "t.jsonl", [{"é": "ü"}])
    assert (tmp_path / "a" / "b" / "t.jsonl").read_text(encoding="utf-8") == '{"é": "ü"}\n'


@pytest.mark.parametrize(
    "before,after,cut",
    [
        (None, b'{"n": 1}\nq1\n', 0),
        (b"", b'{"n": 1}\nq1\n', 0),
        (b'{"n": 0}\n{"n": 0', b'{"n": 0}\n{"n": 1}\nq1\n', 7),
        (b'{"n": 0', b'{"n": 1}\nq1\n', 7),
        (b'{"n": 0}\n[0]', b'{"n": 0}\n{"n": 1}\nq1\n', 3),
        (b'{"n": 0}\nq', b'{"n": 0}\n{"n": 1}\nq1\n', 1),
        (b'{"n": 0}\n{"t": "\xc3', b'{"n": 0}\n{"n": 1}\nq1\n', 8),
        (b'{"n": 0}\n{"n": 0}', b'{"n": 0}\n{"n": 0}\n{"n": 1}\nq1\n', 0),
    ],
    ids=["missing", "empty", "torn", "torn-only-line", "not-an-object", "torn-id", "torn-utf8", "whole-object"],
)
def test_appending_mends_a_last_line_without_newline(tmp_path, caplog, before, after, cut):
    path = tmp_path / "log.jsonl"
    if before is not None:
        path.write_bytes(before)
    with appending(path) as append:
        append({"n": 1}, "q1")
        # flushed per call: another reader sees the lines before the log is closed
        assert path.read_bytes() == after
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == ([f"{path}: cut a torn last line of {cut} bytes"] if cut else [])


@pytest.mark.parametrize("last", [b'{"n": NaN}', b'{"t": "\\ud800"}'], ids=["nan", "lone-surrogate"])
def test_appending_cuts_a_last_line_the_reader_would_refuse(tmp_path, last):
    # json.loads takes both as whole objects; kept with a newline, the next read would fail on them
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 0}\n' + last)
    with appending(path) as append:
        append({"n": 1})
    assert [record for _, record in iter_jsonl(path, ValueError)] == [{"n": 0}, {"n": 1}]


LONG_LINE = b'{"t": "' + b"x" * (2 * BLOCK)


@pytest.mark.parametrize(
    "last,kept",
    [(b'{"n": 0', b""), (LONG_LINE, b""), (LONG_LINE + b'"}', LONG_LINE + b'"}\n')],
    ids=["torn", "torn-longer-than-a-block", "whole-longer-than-a-block"],
)
def test_appending_mends_a_50mb_log_reading_only_its_end(tmp_path, last, kept):
    path = tmp_path / "log.jsonl"
    chunk = b'{"n": 0}\n' * (1 << 17)
    with open(path, "wb") as fh:
        for _ in range(50_000_000 // len(chunk) + 1):
            fh.write(chunk)
        head = fh.tell()
        fh.write(last)
    tracemalloc.start()
    try:
        with appending(path) as append:
            append({"n": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert os.path.getsize(path) == head + len(kept) + len(b'{"n": 1}\n')
    with open(path, "rb") as fh:
        fh.seek(head - len(chunk))
        assert fh.read() == chunk + kept + b'{"n": 1}\n'


def test_appending_mends_every_cut_of_a_transcript(tmp_path):
    """Seeded cuts of the fixture chat transcript, one in three at a line's end, with a byte of the
    torn tail flipped every other trial (never to a newline). The log becomes its whole lines, then
    the tail and a newline if the tail decodes to an object, then the appended line."""
    rng = random.Random(29)
    blob = (FIXTURES / "chat_transcript.jsonl").read_bytes()
    line_ends = [m.start() for m in re.finditer(b"\n", blob)]
    path = tmp_path / "log.jsonl"
    for trial in range(300):
        cut = rng.choice(line_ends) if trial % 3 == 0 else rng.randrange(len(blob) + 1)
        data, start = bytearray(blob[:cut]), blob.rfind(b"\n", 0, cut) + 1
        if trial % 2 and start < cut:
            at = rng.randrange(start, cut)
            data[at] = rng.choice([byte for byte in range(256) if byte not in (data[at], ord("\n"))])
        path.write_bytes(data)
        tail = bytes(data[start:])
        try:
            whole = isinstance(decode(tail.decode("utf-8")), dict)
        except ValueError:
            whole = False
        with appending(path) as append:
            append({"trial": trial})
        kept = blob[:start] + (tail + b"\n" if whole else b"")
        assert path.read_bytes() == kept + b'{"trial": %d}\n' % trial, trial
        assert [n for n, _ in iter_jsonl(path, ValueError)] == list(range(1, kept.count(b"\n") + 2)), trial


def test_iter_jsonl_reads_crlf_line_ends(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"n": 1}\r\n\r\n{"t": "\xc3\xa9"}\r\n')
    assert list(iter_jsonl(path, ValueError)) == [(1, {"n": 1}), (3, {"t": "é"})]


def test_cut_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"a\nbb\nccc\n")
    cut_lines(path, 2)
    assert path.read_bytes() == b"a\nbb\n"
    cut_lines(path, 0)
    assert path.read_bytes() == b""


def test_decode_refuses_what_rfc_8259_does_not_decode_to_characters_and_numbers():
    assert decode('{"t": "\\ud83d\\ude00", "e": "\\\\ud800", "n": 1e3}') == {"t": "\U0001F600", "e": "\\ud800", "n": 1000.0}
    for text, reason in [
        ('{"t": "alpha \\ud800"}', "unpaired surrogate '\\ud800' is not a character"),
        ('{"t": "\\ude00\\ud83d"}', "unpaired surrogate '\\ude00' is not a character"),
        ('{"\\uDBFF": 1}', "unpaired surrogate '\\udbff' is not a character"),
        ("[1, NaN]", "NaN is not a JSON number"),
        ('{"x": -Infinity}', "-Infinity is not a JSON number"),
    ]:
        with pytest.raises(ValueError, match=re.escape(reason)):
            decode(text)


def test_decode_finds_every_unpaired_surrogate_that_json_decodes():
    # every string of up to four of these pieces, against the UTF-8 encoder as the oracle; the
    # escaped backslashes decide which escapes are real, so a pair-blind filter would miss some
    pieces = ["a", "\\\\", "\\ud83d", "\\uDE00", "\\udbff", "\\"]
    for n in range(1, 5):
        for parts in itertools.product(pieces, repeat=n):
            text = '"' + "".join(parts) + '"'
            try:
                json.loads(text).encode("utf-8")
                whole = True
            except UnicodeEncodeError:
                whole = False
            except ValueError:
                continue  # a lone backslash before the closing quote: not JSON
            if whole:
                assert decode(text) == json.loads(text), text
            else:
                with pytest.raises(ValueError, match="unpaired surrogate"):
                    decode(text)


def _labeling_resume(path):
    """The resume scan of ``run_labeling`` over ``path`` as its records file."""
    input_path = path.with_name("input.jsonl")
    input_path.write_text(json.dumps({"id": "q1", "question": "a?", "candidates": [{"text": "a"}]}) + "\n", encoding="utf-8")
    return run_labeling(input_path, None, "m", path, path.with_name("rejects.jsonl"))


_TRACE = QueryTrace(QuestionRecord("q1", "a?", ("a",)), CandidateList("q1", "bm25", ["p1"], [1.5]))
_VECTOR = {"fingerprint": "f1", "vector": [1.0, 0.5]}

# each JSONL reader, the error its module raises, and a line it accepts
READERS = {
    "load_corpus": (load_corpus, CorpusError, {"id": "p1", "doc_id": "d1", "text": "alpha"}),
    "load_questions": (load_questions, CorpusError, {"id": "q1", "question": "a?", "answers": ["a"]}),
    "load_label_queries": (load_label_queries, DistillError, {"id": "q1", "question": "a?", "candidates": [{"text": "a"}]}),
    "resume_scan": (_labeling_resume, DistillError, {"query_id": "q0", "strategy": "requirement_cot"}),
    "read_traces": (read_traces, PipelineError, _TRACE.to_dict()),
    "chat_transcript": (
        TranscriptChatBackend, TranscriptError,
        {"fingerprint": "f1", "response": "r", "prompt_tokens": 1, "completion_tokens": 1},
    ),
    "embed_transcript": (lambda path: TranscriptEmbedBackend(path, "m"), TranscriptError, _VECTOR),
}

# each fault, as what it makes of an accepted line's JSON text
FAULTS = {
    "not-utf8": (lambda good: good[:-1] + b', "x": "caf\xe9"}', "not UTF-8"),
    "invalid-json": (lambda good: good[:-1], "invalid JSON: "),
    "not-an-object": (lambda good: b"[" + good + b"]", "expected an object"),
    "lone-surrogate": (lambda good: good[:-1] + b', "x": "alpha \\ud800"}', "invalid JSON: unpaired surrogate"),
    "nan": (lambda good: good[:-1] + b', "x": NaN}', "invalid JSON: NaN is not a JSON number"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader", READERS)
def test_every_jsonl_reader_rejects_a_faulty_line_naming_the_path_and_line(tmp_path, reader, fault):
    read, error, record = READERS[reader]
    damage, reason = FAULTS[fault]
    good = json.dumps(record).encode()
    path = tmp_path / "in.jsonl"
    path.write_bytes(good + b"\n" + damage(good) + b"\n")
    with pytest.raises(error) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: line 2: {reason}")


# a mutation: one byte changed, dropped or added, or one of these spliced in
TOKENS = [b"\\ud800", b"\\udc00", b"\\ud83d\\ude00", b"\\", b'"', b"NaN", b"-Infinity", b"1e999", b"\n", b"\x00", b"\xff", b"{}", b"[", b"null"]


def _mutate(rng: random.Random, blob: bytes) -> bytes:
    at = rng.randrange(len(blob))
    kind = rng.randrange(4)
    if kind == 0:
        return blob[:at] + bytes([rng.randrange(256)]) + blob[at + 1 :]
    if kind == 1:
        return blob[:at] + blob[at + 1 :]
    if kind == 2:
        return blob[:at] + bytes([rng.randrange(256)]) + blob[at:]
    return blob[:at] + rng.choice(TOKENS) + blob[at:]


def _plain(obj):
    return getattr(obj, "__dict__", None) or str(obj)


def _digested_corpus(path):
    store = load_corpus(path)
    return store.digest(), store


def _written_back(loaded) -> bytes:
    """What a reader returned, as the JSON a writer would make of it; raises unless that can be made."""
    return json.dumps(loaded, ensure_ascii=False, allow_nan=False, default=_plain).encode("utf-8")


def _replay_vectors(path):
    """The vectors an embed transcript replays, as lists; each must be a read-only, finite float64 1-D array."""
    vectors = list(TranscriptEmbedBackend(path, "m")._entries.values())
    for v in vectors:
        assert v.dtype == np.float64 and v.ndim == 1 and not v.flags.writeable and np.isfinite(v).all()
    return [v.tolist() for v in vectors]


_GAUSS = random.Random(28).gauss
# no fixture holds an embed transcript, so one of 40 entries of 8 components is made here
GENERATED = {
    "embed_transcript.jsonl": b"".join(
        json.dumps({"fingerprint": f"{i:064x}", "vector": [_GAUSS(0, 1) for _ in range(8)]}).encode() + b"\n"
        for i in range(40)
    )
}


@pytest.mark.parametrize(
    "name,read,error",
    [
        ("corpus.jsonl", _digested_corpus, CorpusError),
        ("questions.jsonl", load_questions, CorpusError),
        ("chat_transcript.jsonl", TranscriptChatBackend, TranscriptError),
        ("distill_input.jsonl", load_label_queries, DistillError),
        ("distill_transcript.jsonl", TranscriptChatBackend, TranscriptError),
        ("embed_transcript.jsonl", _replay_vectors, TranscriptError),
    ],
)
def test_mutated_fixtures_are_rejected_by_the_module_error_or_written_back_whole(tmp_path, name, read, error):
    rng = random.Random(f"{name}:22")
    blob = GENERATED[name] if name in GENERATED else (FIXTURES / name).read_bytes()
    path = tmp_path / name
    for _ in range(300):
        path.write_bytes(_mutate(rng, blob))
        try:
            loaded = read(path)
        except (error, OSError):
            continue
        _written_back(loaded)
