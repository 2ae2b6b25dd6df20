"""The one JSONL reader and every way an artifact reaches disk: a whole file is
renamed into place from a sibling temp file, a log grows by flushed appends."""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

BLOCK = 1 << 16  # a log's last newline is looked for backwards, this many bytes at a time


def iter_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line; a line that is not
    UTF-8 or not a JSON object raises ``error`` naming the path and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise error(f"{path}: line {lineno}: not UTF-8") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise error(f"{path}: line {lineno}: expected an object")
            yield lineno, record


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
                whole = isinstance(json.loads(fh.read()), dict)
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
