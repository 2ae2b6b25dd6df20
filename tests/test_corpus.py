import json
import random
import re
import string
import unicodedata

import pytest

from ragsel import corpus
from ragsel.corpus import (
    CorpusError,
    Passage,
    PassageStore,
    chunk_text,
    fix_text,
    load_corpus,
    load_questions,
    rewrite_bracket_ids,
    split_sentences,
    word_count,
)


def test_fix_text_composes_nfc():
    assert fix_text("café") == "café"


def test_fix_text_replaces_control_chars():
    assert fix_text("a\u0000b") == "a b"
    assert fix_text("a\rb\x1fc") == "a b c"


def test_fix_text_collapses_and_trims_whitespace():
    assert fix_text("  two   spaces \n") == "two spaces"
    assert fix_text("a\t b\n\nc") == "a b c"


def test_fix_text_total_on_plain_strings():
    assert fix_text("") == ""
    assert fix_text(" \n\t ") == ""


def test_space_is_the_only_printable_whitespace():
    # fix_text returns printable text as it is unless it holds a U+0020 run or end
    assert [c for c in map(chr, range(0x110000)) if c.isspace() and c.isprintable()] == [" "]


@pytest.mark.parametrize("clean", ["two words", "w1 w2. w3 (4) [x]", "世界 你好 café"])
def test_fix_text_returns_clean_text_itself(clean):
    assert fix_text(clean) is clean


def test_fix_text_idempotent_on_random_unicode():
    rng = random.Random(7)
    pool = string.printable + "́é世界\x00\x7f "
    for _ in range(500):
        raw = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 40)))
        once = fix_text(raw)
        assert fix_text(once) == once
        assert once == once.strip()
        assert "\x00" not in once and "\x7f" not in once


_REF_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f]")
_REF_WS_RE = re.compile(r"\s+")
_REF_BRACKET_NUM_RE = re.compile(r"\[(\d+)\]")


def _reference_fix_text(raw):
    """The regex form of the cleaning rule: NFC, controls to spaces, each
    whitespace run to one space, trimmed."""
    text = _REF_CONTROL_RE.sub(" ", unicodedata.normalize("NFC", raw))
    return _REF_WS_RE.sub(" ", text).strip()


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def sub(self, *args):
        self.calls += 1
        return self.pattern.sub(*args)


def test_fix_text_equals_the_regex_reference(monkeypatch):
    whitespace = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
    whitespace += "\u2028\u2029\u202f\u205f\u3000 "
    look_alikes = "\u200b\ufeff\u180e"  # not whitespace to either rule
    controls = "\x00\x07\x08\x1b\x7f\x80\x9f"
    marks = "\u0301\u0327\u0308\u20dd"  # combining: NFC composes e + U+0301
    pool = whitespace + look_alikes + controls + marks + "[]()0123456789aeéAZ世"
    # each regex may be skipped only on text without its trigger; the results say whether the skip was sound
    control_re = _CountingPattern(corpus._CONTROL_RE)
    bracket_re = _CountingPattern(corpus._BRACKET_NUM_RE)
    monkeypatch.setattr(corpus, "_CONTROL_RE", control_re)
    monkeypatch.setattr(corpus, "_BRACKET_NUM_RE", bracket_re)
    # words joined by single spaces: printable ones are returned without a split
    word_pool = look_alikes + marks + "[]()0123456789aeéAZ世"
    skipped = triggered = clean = 0
    rng = random.Random(2507)
    for n in range(100_000):
        if n % 10:
            raw = "".join(rng.choices(pool, k=rng.randrange(0, 24)))
        else:
            raw = " ".join("".join(rng.choices(word_pool, k=rng.randrange(1, 5))) for _ in range(rng.randrange(1, 6)))
        calls = control_re.calls, bracket_re.calls
        assert fix_text(raw) == _reference_fix_text(raw), repr(raw)
        assert rewrite_bracket_ids(raw) == _REF_BRACKET_NUM_RE.sub(r"(\1)", raw), repr(raw)
        nfc = unicodedata.normalize("NFC", raw)
        printable = nfc.isprintable()
        clean += printable and "  " not in nfc and nfc[:1] != " " != nfc[-1:]
        if printable:
            assert control_re.calls == calls[0], repr(raw)
        if "[" not in raw:
            assert bracket_re.calls == calls[1], repr(raw)
        skipped += printable and "[" not in raw
        triggered += bool(_REF_CONTROL_RE.search(raw) or _REF_BRACKET_NUM_RE.search(raw))
    assert skipped >= 1000 and triggered >= 1000 and clean >= 1000


@pytest.mark.parametrize(
    "raw,calls",
    [("\tleading tab\nand a newline", 0), ("a\r\n b\x0b\x1cc\x85", 0), ("x\u2028y\u3000 z", 0), ("a\tb\x00c", 1)],
    ids=["tab-newline", "whitespace-controls", "unicode-spaces", "nul"],
)
def test_fix_text_runs_the_control_regex_only_on_controls_split_keeps(monkeypatch, raw, calls):
    control_re = _CountingPattern(corpus._CONTROL_RE)
    monkeypatch.setattr(corpus, "_CONTROL_RE", control_re)
    assert fix_text(raw) == _reference_fix_text(raw)
    assert control_re.calls == calls


def test_rewrite_bracket_ids_examples():
    assert rewrite_bracket_ids("see [12] and [3]") == "see (12) and (3)"
    assert rewrite_bracket_ids("ranges [12a] stay") == "ranges [12a] stay"
    assert rewrite_bracket_ids("[1][2]") == "(1)(2)"


def test_rewrite_bracket_ids_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        parts = []
        for _ in range(rng.randrange(0, 8)):
            parts.append(rng.choice(["[3]", "[12]", "[x]", "word", "(4)", "[", "]", "[1a]"]))
        raw = " ".join(parts)
        once = rewrite_bracket_ids(raw)
        assert rewrite_bracket_ids(once) == once
        assert "[3]" not in once and "[12]" not in once


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def test_load_corpus_normalizes_and_keeps_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "p1", "doc_id": "d1", "text": "plain  text", "title": "T1"},
            {"id": "p2", "doc_id": "d1", "text": "cites [4] here"},
            {"id": "p3", "doc_id": "d2", "text": "a\u0000b"},
        ],
    )
    store = load_corpus(path)
    assert store.ids == ["p1", "p2", "p3"]
    assert store.get("p1").text == "plain text"
    assert store.get("p1").title == "T1"
    assert store.get("p2").text == "cites (4) here"
    assert store.get("p3").text == "a b"


def test_load_corpus_duplicate_id_names_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "p1", "doc_id": "d1", "text": "one"},
            {"id": "p1", "doc_id": "d2", "text": "two"},
        ],
    )
    with pytest.raises(CorpusError, match="'p1'"):
        load_corpus(path)


def test_load_corpus_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "p1", "doc_id": "d1", "text": "ok"}) + "\n")
        fh.write("{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_corpus_missing_field_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "p1", "text": "no doc id"}])
    with pytest.raises(CorpusError, match="line 1.*doc_id"):
        load_corpus(path)


def _sentence(i, words_per_sentence=10):
    body = " ".join(f"w{i}x{j}" for j in range(words_per_sentence - 1))
    return f"{body} end{i}."


def test_chunking_700_words_limit_300_gives_three_chunks(tmp_path):
    # 70 sentences x 10 words = 700 words; greedy packing at 300 words per
    # chunk gives 30 + 30 + 10 sentences, i.e. word counts 300/300/100.
    text = " ".join(_sentence(i) for i in range(70))
    assert word_count(text) == 700
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "x", "doc_id": "d", "text": text}])
    store = load_corpus(path, chunk_limit=300)
    assert store.ids == ["x#0", "x#1", "x#2"]
    assert [word_count(store.get(pid).text) for pid in store.ids] == [300, 300, 100]
    assert " ".join(p.text for p in store) == text
    assert all(p.doc_id == "d" for p in store)


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("boundary", [False, True])
def test_load_corpus_chunks_at_the_limit_as_chunk_text_does(tmp_path, extra, boundary):
    # limit + extra words around tabs, space runs, a control character and
    # bracketed ids: load_corpus counts the spaces of the cleaned text
    limit = 12
    words = [f"[{j}]" if j % 4 == 0 else f"w{j}" for j in range(limit + extra)]
    if boundary:
        words[5] += "."
    seps = ["  ", "\t", " \x00 ", " \u3000"]
    raw = "\t " + "".join(word + seps[j % 4] for j, word in enumerate(words)) + "\n"
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "x", "doc_id": "d", "text": raw}])
    want = chunk_text(rewrite_bracket_ids(fix_text(raw)), limit)
    assert [p.text for p in load_corpus(path, chunk_limit=limit)] == want
    assert len(want) == (2 if extra and boundary else 1)
    assert word_count(" ".join(want)) == limit + extra


@pytest.mark.parametrize("extra", [0, 1])
def test_load_corpus_counts_spaces_only_where_they_can_reach_the_limit(tmp_path, extra):
    # one-character words: limit of them make 2 * limit - 1 characters, too short to
    # hold limit spaces; one more word must chunk as chunk_text does
    limit = 12
    text = " ".join("." if j % 5 == 4 else "abcdefghijklm"[j] for j in range(limit + extra))
    assert len(text) == 2 * (limit + extra) - 1
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "x", "doc_id": "d", "text": text}])
    pieces = [p.text for p in load_corpus(path, chunk_limit=limit)]
    assert pieces == chunk_text(text, limit)
    assert len(pieces) == 1 + extra


def test_chunking_disabled_with_none(tmp_path):
    text = " ".join(_sentence(i) for i in range(70))
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "x", "doc_id": "d", "text": text}])
    store = load_corpus(path, chunk_limit=None)
    assert store.ids == ["x"]
    assert word_count(store.get("x").text) == 700


def test_chunk_text_never_splits_single_oversize_sentence():
    long_sentence = " ".join(f"t{j}" for j in range(50)) + "."
    assert chunk_text(long_sentence, 10) == [long_sentence]
    mixed = long_sentence + " short one." + " another tail."
    chunks = chunk_text(mixed, 10)
    assert chunks[0] == long_sentence
    assert " ".join(chunks) == mixed


def test_chunk_roundtrip_is_stable(tmp_path):
    # Reloading a chunked corpus must not re-chunk or rename anything.
    text = " ".join(_sentence(i) for i in range(70))
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "x", "doc_id": "d", "text": text}])
    store = load_corpus(path, chunk_limit=300)
    saved = tmp_path / "saved.jsonl"
    _write_jsonl(saved, [{"id": p.id, "doc_id": p.doc_id, "text": p.text} for p in store])
    again = load_corpus(saved, chunk_limit=300)
    assert again.ids == store.ids
    assert [p.text for p in again] == [p.text for p in store]


def test_split_sentences_boundaries():
    assert split_sentences("One. Two! Three? Done") == ["One.", "Two!", "Three?", "Done"]
    assert split_sentences("No terminal") == ["No terminal"]


def test_store_roundtrip_field_identical(tmp_path):
    records = [
        {"id": "a", "doc_id": "d1", "text": "alpha beta", "title": "A"},
        {"id": "b", "doc_id": "d2", "text": "gamma (1)"},
    ]
    path = tmp_path / "out.jsonl"
    _write_jsonl(path, records)
    again = load_corpus(path)
    assert list(again) == [Passage(**r) for r in records]


def test_store_stats_consistent():
    store = PassageStore(
        [
            Passage(id="a", doc_id="d", text="one two three"),
            Passage(id="b", doc_id="d", text="four"),
        ]
    )
    assert len(store) == 2
    assert list(store) == [store.get("a"), store.get("b")]
    assert word_count(store.get("a").text) == 3
    assert word_count(store.get("b").text) == 1


def test_store_unknown_id_errors():
    store = PassageStore([Passage(id="a", doc_id="d", text="x")])
    with pytest.raises(CorpusError, match="'zzz'"):
        store.get("zzz")


def test_load_questions_well_formed(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "q1", "question": "What  is X?", "answers": ["X", "the x"]},
            {
                "id": "q2",
                "question": "Multi hop?",
                "answers": ["yes"],
                "evidence": ["span one", "span two", "span three", "span four"],
                "gold_passage_ids": ["p1", "p2"],
            },
        ],
    )
    qs = load_questions(path)
    assert [q.id for q in qs] == ["q1", "q2"]
    assert qs[0].question == "What is X?"
    assert qs[0].gold_answers == ("X", "the x")
    assert len(qs[1].evidence) == 4
    assert qs[1].gold_passage_ids == ("p1", "p2")


def test_load_questions_requires_some_gold(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(path, [{"id": "q1", "question": "No gold?"}])
    with pytest.raises(CorpusError, match="q1"):
        load_questions(path)


def test_load_questions_rejects_empty_evidence_span(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(path, [{"id": "q1", "question": "Q?", "evidence": ["ok", "  "]}])
    with pytest.raises(CorpusError, match="empty evidence"):
        load_questions(path)


def test_load_questions_duplicate_id(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "q1", "question": "One?", "answers": ["a"]},
            {"id": "q1", "question": "Two?", "answers": ["b"]},
        ],
    )
    with pytest.raises(CorpusError, match="duplicate question id"):
        load_questions(path)


def test_question_roundtrip_dict():
    from ragsel.corpus import QuestionRecord

    q = QuestionRecord(id="q", question="Q?", gold_answers=("a",), evidence=("e",))
    assert QuestionRecord.from_dict(q.to_dict()) == q
