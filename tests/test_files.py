"""Tests for the file layer: atomic whole-file writes and mended appends."""

import os
import stat
import tracemalloc

import numpy as np
import pytest

from ragsel.files import BLOCK, appending, cut_lines, iter_jsonl, replace_atomically, write_json, write_jsonl


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
