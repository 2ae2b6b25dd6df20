"""The one JSON decoder, the one JSONL reader and every way an artifact reaches disk:
a whole file is renamed into place from a sibling temp file, a log grows by flushed appends."""

from __future__ import annotations

import json
import logging
import os
import re
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

BLOCK = 1 << 16  # a log's last newline is looked for backwards, this many bytes at a time


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _int_in_float_range(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError("an integer beyond float range")
    return value


# json takes NaN, Infinity and integers of any size; RFC 8259 section 6 has none of them
_DECODER = json.JSONDecoder(parse_constant=_not_a_number, parse_int=_int_in_float_range)
# a \u escape of a surrogate outside a high-low pair, or any surrogate escape after a backslash,
# whose pairing shows only once the run of backslashes is decoded; decode checks a match in full
_LONE_SURROGATE_ESCAPE_RE = re.compile(
    r"\\(?:\\u[dD][89a-fA-F]|u[dD][89abAB][0-9a-fA-F]{2}(?!\\u[dD][c-fC-F])"
    r"|u[dD][c-fC-F](?<!\\u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F]))"  # each alternative starts with \ for speed
)


def decode(text: str):
    """``text``, as strict UTF-8 decoding leaves it, as one JSON value. ValueError for the
    ``NaN`` and ``Infinity`` that json takes but RFC 8259 section 6 has not, for an integer
    beyond float range, and for an escaped unpaired surrogate (section 8.2), which would
    make a string no UTF-8 writer can write back or hash. A float literal that overflows
    (``1e999``) reads as infinity; a reader that needs a finite float checks for it."""
    value = _DECODER.decode(text)
    # a surrogate gets into a str only by a \u escape: strict UTF-8 decoding refuses encoded ones
    if "\\" in text and _LONE_SURROGATE_ESCAPE_RE.search(text):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"unpaired surrogate {exc.object[exc.start]!r} is not a character") from None
    return value


def iter_jsonl(path: str | Path, error: type[Exception], read: Callable[[dict], object] | None = None) -> Iterator:
    """(line number, object) for each non-blank line, or (line number, ``read(object)``).
    A line that is not UTF-8, not a JSON object, or that ``read`` rejects with
    ValueError raises ``error`` naming the path, the line and the reason."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise ValueError("not UTF-8") from None
                if not line.strip():
                    continue
                try:
                    record = decode(line)
                except ValueError as exc:
                    raise ValueError(f"invalid JSON: {exc}") from None
                if not isinstance(record, dict):
                    raise ValueError("expected an object")
                item = record if read is None else read(record)
            except ValueError as exc:
                raise error(f"{path}: line {lineno}: {exc}") from None
            yield lineno, item


def _line(item: dict | str) -> str:
    return (item if isinstance(item, str) else json.dumps(item, ensure_ascii=False, allow_nan=False)) + "\n"


@contextmanager
def replace_atomically(path: str | Path, mode: str = "w") -> Iterator:
    """A handle on a temp file that replaces ``path`` when the block ends;
    on an error the temp file is removed and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # in the target's directory, so os.replace is one rename(2) on one file system
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with replace_atomically(path) as fh:
        fh.writelines(map(_line, records))


def write_json(path: str | Path, obj) -> None:
    with replace_atomically(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2, allow_nan=False) + "\n")


@contextmanager
def appending(path: str | Path) -> Iterator:
    """``append(*items)``: one line per object (or string), flushed per call. A last
    line left without its newline is first terminated if a whole JSON object, else cut."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab+") as fh:
        end = fh.tell()
        fh.seek(max(end - 1, 0))
        if fh.read(1) not in (b"", b"\n"):
            for block in range((end - 1) // BLOCK * BLOCK, -1, -BLOCK):
                fh.seek(block)
                if (newline := fh.read(BLOCK).rfind(b"\n")) >= 0:
                    break
            start = block + newline + 1
            fh.seek(start)
            try:
                whole = isinstance(decode(fh.read().decode("utf-8")), dict)
            except ValueError:
                whole = False
            if whole:
                fh.write(b"\n")
                fh.flush()
            else:
                fh.truncate(start)
                logging.getLogger(__name__).warning("%s: cut a torn last line of %d bytes", path, end - start)

        def append(*items: dict | str) -> None:
            fh.write("".join(map(_line, items)).encode("utf-8"))
            fh.flush()

        yield append


def cut_lines(path: str | Path, keep: int) -> None:
    """Cut ``path`` after its first ``keep`` lines."""
    with open(path, "rb+") as fh:
        fh.truncate(sum(len(fh.readline()) for _ in range(keep)))
