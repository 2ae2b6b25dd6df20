"""Corpus and question file ingestion.

Line-delimited JSON in, normalized in-memory records out. All text fields go
through :func:`fix_text`; passage bodies (and labeling candidates, which
``distill`` cleans by the same rule) additionally get bracketed numeric ids
rewritten so that prompt-side ``[i]`` markers stay unambiguous.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .files import iter_jsonl

# Controls except newline/tab; both are handled by the whitespace collapse.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f]")
_BRACKET_NUM_RE = re.compile(r"\[(\d+)\]")
# Sentence boundary: terminal punctuation followed by whitespace.
_SENT_RE = re.compile(r"(?<=[.!?])\s+")

DEFAULT_CHUNK_LIMIT = 300
INSUFFICIENT_MARKER = "Insufficient Information"


class CorpusError(ValueError):
    """Raised for malformed corpus or question files."""


def fix_text(raw: str) -> str:
    """Normalize raw text: NFC, no control characters, single spaces, trimmed.

    Idempotent and total; never raises on str input.
    """
    text = unicodedata.normalize("NFC", raw)
    if text.isprintable() and "  " not in text and text[:1] != " " and text[-1:] != " ":
        return text  # U+0020 is the only whitespace that is printable: already clean
    # split() with no separator splits on every Unicode whitespace run and drops the ends
    text = " ".join(text.split())
    # every code point _CONTROL_RE matches is non-printable; the spaces it puts in only add split points
    return text if text.isprintable() else " ".join(_CONTROL_RE.sub(" ", text).split())


def rewrite_bracket_ids(text: str) -> str:
    """Rewrite every maximal ``[digits]`` token to ``(digits)``.

    Non-numeric bracket contents are left alone. Idempotent.
    """
    return _BRACKET_NUM_RE.sub(r"(\1)", text) if "[" in text else text


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENT_RE.split(text) if s]


def word_count(text: str) -> int:
    return len(text.split())


def chunk_text(text: str, limit: int) -> list[str]:
    """Split text on sentence boundaries into chunks of at most ``limit`` words.

    A single sentence longer than the limit stays whole (its chunk may exceed
    the limit); chunks otherwise never do.
    """
    if word_count(text) <= limit:
        return [text]
    chunks: list[str] = []
    current: list[str] = []
    current_wc = 0
    for sentence in split_sentences(text):
        wc = word_count(sentence)
        if current and current_wc + wc > limit:
            chunks.append(" ".join(current))
            current = []
            current_wc = 0
        current.append(sentence)
        current_wc += wc
    if current:
        chunks.append(" ".join(current))
    return chunks


@dataclass(frozen=True)
class Passage:
    id: str
    doc_id: str
    text: str
    title: str | None = None


def is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def typed(record: dict, key: str, kind, item=str):
    """``record[key]`` if its type is exactly ``kind`` (so JSON ``true`` is no integer) and,
    for a ``list``, each item's is ``item``; else KeyError or TypeError."""
    value = record[key]
    if type(value) is not kind or (kind is list and any(type(v) is not item for v in value)):
        raise TypeError(f"field {key!r} has the wrong type")
    return value


@dataclass(frozen=True)
class QuestionRecord:
    id: str
    question: str
    gold_answers: tuple[str, ...] = ()
    evidence: tuple[str, ...] = ()
    gold_passage_ids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "question": self.question,
            "answers": list(self.gold_answers),
            "evidence": list(self.evidence),
            "gold_passage_ids": list(self.gold_passage_ids),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "QuestionRecord":
        return cls(
            id=typed(record, "id", str),
            question=typed(record, "question", str),
            gold_answers=tuple(typed(record, "answers", list)),
            evidence=tuple(typed(record, "evidence", list)),
            gold_passage_ids=tuple(typed(record, "gold_passage_ids", list)),
        )


class PassageStore:
    """Ordered passage collection with id lookup."""

    def __init__(self, passages: Iterable[Passage]):
        self._passages: list[Passage] = list(passages)
        self._by_id: dict[str, Passage] = {}
        for p in self._passages:
            if p.id in self._by_id:
                raise CorpusError(f"duplicate passage id: {p.id!r}")
            self._by_id[p.id] = p

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._passages)

    @property
    def ids(self) -> list[str]:
        return [p.id for p in self._passages]

    def digest(self) -> str:
        """sha256 over every id and cleaned text, in store order. The fields are
        NUL-separated; fix_text leaves no control character in a text."""
        digest = hashlib.sha256()
        for p in self._passages:
            digest.update(f"{p.id}\x00{p.text}\x00".encode("utf-8"))
        return digest.hexdigest()

    def get(self, passage_id: str) -> Passage:
        try:
            return self._by_id[passage_id]
        except KeyError:
            raise CorpusError(f"unknown passage id: {passage_id!r}") from None


def _require_str(record: dict, key: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"missing or empty field {key!r}")
    return value


def load_corpus(path: str | Path, chunk_limit: int | None = DEFAULT_CHUNK_LIMIT) -> PassageStore:
    """Load a line-delimited JSON corpus into a PassageStore.

    Text is normalized (fix_text, bracket-id rewrite) and passages longer
    than ``chunk_limit`` words are split on sentence boundaries into
    ``{id}#0``, ``{id}#1``, ... chunks. ``chunk_limit=None`` disables
    splitting.
    """

    def read(record: dict) -> tuple[str, str, str | None, list[str]]:
        pid = _require_str(record, "id")
        doc_id = _require_str(record, "doc_id")
        text = rewrite_bracket_ids(fix_text(_require_str(record, "text")))
        if not text:
            raise ValueError(f"passage {pid!r} is empty after normalization")
        title = record.get("title")
        if title is not None:
            if not isinstance(title, str):
                raise ValueError("field 'title' must be a string")
            title = fix_text(title) or None
        # fix_text leaves one space between words, so n characters hold at most (n - 1) / 2
        # spaces: counting them, and only on long text, spares a second split
        if chunk_limit is None or len(text) < 2 * chunk_limit or text.count(" ") < chunk_limit:
            return pid, doc_id, title, [text]
        return pid, doc_id, title, chunk_text(text, chunk_limit)

    passages: list[Passage] = []
    seen: dict[str, int] = {}
    for lineno, (pid, doc_id, title, pieces) in iter_jsonl(path, CorpusError, read):
        for n, piece in enumerate(pieces):
            piece_id = pid if len(pieces) == 1 else f"{pid}#{n}"
            if piece_id in seen:
                raise CorpusError(
                    f"{path}: line {lineno}: duplicate passage id: {piece_id!r}"
                    f" (first seen on line {seen[piece_id]})"
                )
            seen[piece_id] = lineno
            passages.append(Passage(id=piece_id, doc_id=doc_id, text=piece, title=title))
    return PassageStore(passages)


def _clean_str_list(record: dict, key: str) -> tuple[str, ...]:
    value = record.get(key, [])
    if not is_string_list(value):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(value)


def load_questions(path: str | Path) -> list[QuestionRecord]:
    """Load a line-delimited JSON question file.

    Every record needs at least one of: non-empty answers, non-empty
    evidence, non-empty gold_passage_ids. Question text and evidence spans
    are fix_text-normalized (no bracket rewrite).
    """
    seen: set[str] = set()

    def read(record: dict) -> QuestionRecord:
        qid = _require_str(record, "id")
        if qid in seen:
            raise ValueError(f"duplicate question id: {qid!r}")
        seen.add(qid)
        question = fix_text(_require_str(record, "question"))
        if not question:
            raise ValueError(f"question {qid!r} is empty after normalization")
        answers = tuple(fix_text(a) for a in _clean_str_list(record, "answers"))
        if any(not a for a in answers):
            raise ValueError(f"question {qid!r} has an empty answer")
        evidence = tuple(fix_text(e) for e in _clean_str_list(record, "evidence"))
        if any(not e for e in evidence):
            raise ValueError(f"question {qid!r} has an empty evidence span")
        gold_ids = _clean_str_list(record, "gold_passage_ids")
        if not (answers or evidence or gold_ids):
            raise ValueError(f"question {qid!r} has no answers, evidence, or gold_passage_ids")
        return QuestionRecord(
            id=qid,
            question=question,
            gold_answers=answers,
            evidence=evidence,
            gold_passage_ids=gold_ids,
        )

    return [question for _, question in iter_jsonl(path, CorpusError, read)]
