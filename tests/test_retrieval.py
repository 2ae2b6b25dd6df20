import io
import itertools
import json
import math
import random
import re
import sys
import threading
import time
import tracemalloc
import zipfile
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ragsel import retrieval
from ragsel.corpus import Passage, PassageStore, load_corpus
from ragsel.files import write_jsonl
from ragsel.gateway import MAX_INFLIGHT, text_fingerprint
from ragsel.retrieval import (
    AnalyzerConfig,
    CandidateList,
    DenseRetriever,
    EmbeddingCache,
    RetrievalError,
    analyze,
    build_index,
    load_index,
    precompute_embeddings,
    save_index,
    search,
)

# Hand-evaluated oracle values for the fixed formula on the three-passage
# fixture {d1: "a b", d2: "a a b", d3: "c"}:
#   N = 3, lengths 2/3/1, avglen = 2
#   idf(a) = ln(1 + (3-2+0.5)/(2+0.5)) = ln(1.6)
#   idf(c) = ln(1 + (3-1+0.5)/(1+0.5)) = ln(8/3)
#   score(d2, a) = ln(1.6) * (2*2.2) / (2 + 1.2*(0.25 + 0.75*3/2))
#               = ln(1.6) * 4.4 / 3.65
#   score(d1, a) = ln(1.6) * 2.2 / (1 + 1.2*(0.25 + 0.75*2/2)) = ln(1.6)
#   score(d3, c) = ln(8/3) * 2.2 / (1 + 1.2*(0.25 + 0.75*1/2)) = ln(8/3)*2.2/1.75
SCORE_D2_A = math.log(1.6) * 4.4 / 3.65
SCORE_D1_A = math.log(1.6)
SCORE_D3_C = math.log(8.0 / 3.0) * 2.2 / 1.75


def three_doc_store():
    return PassageStore(
        [
            Passage(id="d1", doc_id="d1", text="a b"),
            Passage(id="d2", doc_id="d2", text="a a b"),
            Passage(id="d3", doc_id="d3", text="c"),
        ]
    )


def test_analyzer_lowercases_and_segments():
    assert analyze("A a a.") == ["a", "a", "a"]
    assert analyze("Hello, world-wide web!") == ["hello", "world", "wide", "web"]


def test_analyzer_config_knobs():
    assert analyze("The Cat", AnalyzerConfig(lowercase=False)) == ["The", "Cat"]
    cfg = AnalyzerConfig(stopwords=frozenset({"the"}))
    assert analyze("The cat", cfg) == ["cat"]


def test_build_index_counts():
    store = PassageStore(
        [
            Passage(id="p1", doc_id="d", text="apple pie"),
            Passage(id="p2", doc_id="d", text="apple tart"),
            Passage(id="p3", doc_id="d", text="plum cake"),
        ]
    )
    index = build_index(store)
    assert index.ids == ["p1", "p2", "p3"]
    assert len(index.terms) == 5
    assert index.rows[index.terms["apple"]].tolist() == [0, 1]
    assert index.rows[index.terms["cake"]].tolist() == [2]
    assert len(index.rows) == len(index.impacts) == 6


def test_build_index_tf_lowercased():
    # one passage "a a a": tf = length = avglen = 3, idf = ln(1 + 0.5/1.5)
    store = PassageStore([Passage(id="p", doc_id="d", text="A a a.")])
    index = build_index(store)
    expected = math.log(4.0 / 3.0) * 3 * 2.2 / (3 + 1.2)
    for query in ("a", "A"):
        hit = search(index, query, k=1)
        assert hit.ids == ["p"]
        assert hit.scores == [pytest.approx(expected, abs=1e-9)]


def test_build_index_empty_store_errors():
    with pytest.raises(RetrievalError, match="empty"):
        build_index(PassageStore([]))


def test_build_index_validates_parameters():
    store = three_doc_store()
    for k1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(RetrievalError, match="k1"):
            build_index(store, k1=k1)
    with pytest.raises(RetrievalError, match="b must"):
        build_index(store, b=1.5)


def counter_build(store, analyzer=AnalyzerConfig(), k1=1.2, b=0.75):
    """The build before block counting: one Counter per passage, Python posting
    lists. The reference for build_index's terms order, rows and impacts."""
    vocab = defaultdict(itertools.count().__next__)
    ids, lengths, distinct, term_ids, tfs = [], [], [], [], []
    for passage in store:
        counts = Counter(analyze(passage.text, analyzer))
        ids.append(passage.id)
        lengths.append(counts.total())
        distinct.append(len(counts))
        term_ids.extend(map(vocab.__getitem__, counts))
        tfs.extend(counts.values())
    order = np.argsort(term_ids, kind="stable")
    rows = np.repeat(np.arange(len(ids), dtype=np.int32), distinct)[order]
    tf = np.array(tfs, dtype=np.float64)[order]
    df = np.bincount(term_ids, minlength=len(vocab))
    idf = np.array([math.log(1.0 + (len(ids) - d + 0.5) / (d + 0.5)) for d in df.tolist()])
    norm = 1.0 - b + b * np.array(lengths, dtype=np.float64)[rows] / (sum(lengths) / len(lengths))
    impacts = np.repeat(idf, df) * tf * (k1 + 1.0) / (tf + k1 * norm)
    return list(vocab), np.cumsum(df).tolist(), rows, impacts


def assert_builds_alike(store, analyzer, k1=1.2, b=0.75):
    index = build_index(store, analyzer, k1, b)
    terms, ends, rows, impacts = counter_build(store, analyzer, k1, b)
    assert list(index.terms) == terms
    assert [span.stop for span in index.terms.values()] == ends
    assert index.rows.dtype == rows.dtype and index.rows.tobytes() == rows.tobytes()
    assert index.impacts.dtype == np.float64 and index.impacts.tobytes() == impacts.tobytes()


def test_whitespace_never_joins_a_term_or_a_case_rule():
    # build_index analyzes each whitespace piece alone; these facts make that exact
    whitespace = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(whitespace) == 29
    assert not any(re.match(r"\w", c) for c in whitespace)
    for ws in whitespace:
        assert f"a{ws}b".split() == ["a", "b"]
        # final sigma looks past case-ignorable characters only; whitespace is not one
        assert f"AΣ{ws}A".lower() == f"aς{ws}a"
        assert f"A{ws}Σ".lower() == f"a{ws}σ"


ANALYZERS = [
    AnalyzerConfig(),
    AnalyzerConfig(lowercase=False),
    AnalyzerConfig(stopwords=frozenset({"the", "a", "don", "t", "οδος"})),
    AnalyzerConfig(lowercase=False, stopwords=frozenset({"The", "v1", "ΟΔΟΣ"})),
]
PIECES = [
    "v1,v2", "don't", "Don't", "DON'T", "ΟΔΟΣ.", "οδοσ", "ΟΔΟΣ", "Straße", "naïve", "café",
    "東京", "١٢٣", "İstanbul", "ǅemal", "_x_", "the", "The", "a", "—", "...", "!!", "(3)", "w1", "W1",
]
SEPARATORS = [" ", "  ", "\t", "\u3000", " \u00a0 ", "\n", "\u2028"]


@pytest.mark.parametrize("block", [1, 2, 3, 256])
def test_build_index_equals_the_counter_reference(monkeypatch, block):
    monkeypatch.setattr(retrieval, "_BLOCK", block)
    rng = random.Random(block)
    fixed = [
        "v1,v2 don't Don't DON'T v1",
        "ΟΔΟΣ. οδοσ ΟΔΟΣ",
        "tab\tthen  two spaces\u3000ideographic",
        "the a the",  # every term a stopword under one analyzer
        "— ... !!",  # no term at all
    ]
    for trial in range(12):
        texts = fixed + [
            rng.choice(SEPARATORS).join(rng.choice(PIECES) for _ in range(rng.randrange(1, 12)))
            for _ in range(rng.randrange(1, 10))
        ]
        rng.shuffle(texts)
        store = PassageStore(Passage(id=f"p{i}", doc_id="d", text=t) for i, t in enumerate(texts))
        k1, b = rng.choice([(1.2, 0.75), (0.9, 0.4), (2.0, 1.0), (1.2, 0.0)])
        for analyzer in ANALYZERS:
            assert_builds_alike(store, analyzer, k1, b)
    no_terms = PassageStore([Passage("p", "d", "— !!"), Passage("q", "d", "the")])
    assert_builds_alike(no_terms, ANALYZERS[2])  # "the" is a stopword: an index without terms


def test_build_index_transient_memory_stays_near_the_index_size():
    rng = np.random.default_rng(11)
    ranks = rng.zipf(1.2, size=8000 * 60) % 30_000
    store = PassageStore(
        Passage(id=f"p{i}", doc_id="d", text=" ".join(f"w{r}" for r in ranks[i * 60 : (i + 1) * 60]))
        for i in range(8000)
    )
    # the build's transient peak, beyond what the returned index keeps, is bounded by the index arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_index(store)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak - retained <= 2 * (index.rows.nbytes + index.impacts.nbytes)


def scores_of(index, query):
    result = search(index, query, k=len(index.ids))
    return dict(zip(result.ids, result.scores))


def test_score_matches_hand_evaluated_values():
    index = build_index(three_doc_store())
    assert scores_of(index, "a")["d2"] == pytest.approx(SCORE_D2_A, abs=1e-9)
    assert scores_of(index, "a")["d1"] == pytest.approx(SCORE_D1_A, abs=1e-9)
    assert scores_of(index, "c")["d3"] == pytest.approx(SCORE_D3_C, abs=1e-9)


def test_score_zero_for_absent_term():
    # zero-score passages are left out of the candidates
    index = build_index(three_doc_store())
    assert set(scores_of(index, "c")) == {"d3"}
    assert scores_of(index, "zzz") == {}
    assert scores_of(index, "zzz a") == scores_of(index, "a")


def test_search_ranking_and_scores():
    index = build_index(three_doc_store())
    result = search(index, "a", k=2, query_id="q")
    assert result.ids == ["d2", "d1"]
    assert result.scores == pytest.approx([SCORE_D2_A, SCORE_D1_A], abs=1e-9)
    assert result.retriever == "bm25"
    assert result.query_id == "q"


def test_search_excludes_zero_scores():
    index = build_index(three_doc_store())
    result = search(index, "c", k=10)
    assert result.ids == ["d3"]


def test_search_shorter_than_k():
    index = build_index(three_doc_store())
    assert len(search(index, "zzz nothing", k=5)) == 0


def test_search_tie_breaks_by_ascending_id():
    store = PassageStore(
        [
            Passage(id="pz", doc_id="d", text="same words here"),
            Passage(id="pa", doc_id="d", text="same words here"),
        ]
    )
    index = build_index(store)
    assert search(index, "same", k=2).ids == ["pa", "pz"]


def test_search_rejects_bad_k():
    index = build_index(three_doc_store())
    with pytest.raises(RetrievalError, match="k must"):
        search(index, "a", k=0)


def test_score_single_term_monotone_in_tf():
    # Same passage length, higher tf => strictly higher score.
    rng = random.Random(3)
    for _ in range(50):
        low = rng.randrange(1, 5)
        high = rng.randrange(low + 1, low + 6)
        length = high + rng.randrange(1, 5)
        def make(tf, pid):
            text = " ".join(["hit"] * tf + [f"pad{pid}{j}" for j in range(length - tf)])
            return Passage(id=pid, doc_id="d", text=text)
        store = PassageStore([make(low, "plow"), make(high, "phigh")])
        scores = scores_of(build_index(store), "hit")
        assert scores["phigh"] > scores["plow"]


def _random_store(rng, n_passages, vocab):
    passages = []
    for i in range(n_passages):
        words = [rng.choice(vocab) for _ in range(rng.randrange(1, 12))]
        passages.append(Passage(id=f"p{i:03d}", doc_id=f"d{i}", text=" ".join(words)))
    return PassageStore(passages)


def test_search_prefix_property_random():
    rng = random.Random(17)
    vocab = [f"v{i}" for i in range(12)]
    for _ in range(60):
        store = _random_store(rng, rng.randrange(2, 15), vocab)
        index = build_index(store)
        query = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 4)))
        small = rng.randrange(1, 6)
        big = small + rng.randrange(1, 6)
        assert search(index, query, big).ids[:len(search(index, query, small))] == search(index, query, small).ids


def test_idf_positive_for_indexed_terms_random():
    rng = random.Random(23)
    vocab = [f"v{i}" for i in range(8)]
    for _ in range(40):
        store = _random_store(rng, rng.randrange(1, 10), vocab)
        index = build_index(store)
        # impacts are idf times a positive tf factor, so idf > 0 shows as impacts > 0
        assert all(span.stop > span.start for span in index.terms.values())
        assert (index.impacts > 0.0).all()


def test_adding_irrelevant_passage_keeps_candidate_set():
    rng = random.Random(29)
    vocab = [f"v{i}" for i in range(10)]
    for _ in range(40):
        store = _random_store(rng, rng.randrange(2, 10), vocab)
        index = build_index(store)
        query = " ".join(rng.choice(vocab) for _ in range(2))
        before = set(search(index, query, k=100).ids)
        extra = Passage(id="zzz_extra", doc_id="x", text="unrelated filler tokens only")
        bigger = PassageStore(list(store) + [extra])
        after = set(search(build_index(bigger), query, k=100).ids)
        assert before <= after
        assert "zzz_extra" not in after


def test_index_save_load_roundtrip(tmp_path):
    store = three_doc_store()
    index = build_index(store, AnalyzerConfig(stopwords=frozenset({"b"})), k1=1.5, b=0.5)
    path = tmp_path / "index.npz"
    save_index(index, path)
    again = load_index(path)
    assert again.ids == index.ids
    assert again.terms == index.terms
    assert (again.k1, again.b, again.analyzer) == (index.k1, index.b, index.analyzer)
    assert again.digest == index.digest == store.digest()
    assert again.rows.tolist() == index.rows.tolist()
    assert again.impacts.tolist() == index.impacts.tolist()
    for query in ("a", "b", "c", "a b c"):
        got = search(again, query, k=3)
        want = search(index, query, k=3)
        assert (got.ids, got.scores) == (want.ids, want.scores)


def test_index_header_is_utf8_and_an_escaped_header_still_loads(tmp_path):
    store = PassageStore([Passage("café", "d", "crème brûlée"), Passage("b", "d", "plain text")])
    path = tmp_path / "index.npz"
    save_index(build_index(store), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    assert "café".encode("utf-8") in arrays["header"].tobytes()
    # earlier versions wrote the header with \u escapes
    _write_with(np.savez, path, **{**arrays, "header": _header(**json.loads(arrays["header"].tobytes()))})
    again = load_index(path)
    assert again.ids == ["café", "b"] and "crème" in again.terms


def test_index_save_writes_the_given_path(tmp_path):
    index = build_index(three_doc_store())
    for name in ("index.json", "index"):
        save_index(index, tmp_path / name)
        save_index(index, str(tmp_path / name))
        assert load_index(tmp_path / name).ids == index.ids
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index", "index.json"]


def test_index_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "index.json"
    path.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(RetrievalError, match="not a BM25 index"):
        load_index(path)


V1_JSON_INDEX = (
    '{"format": "ragsel-bm25-index", "version": 1, "k1": 1.2, "b": 0.75,'
    ' "analyzer": {"lowercase": true, "stopwords": []},'
    ' "lengths": {"d1": 1}, "postings": {"a": [["d1", 1]]}}'
)


def _write_with(save, path, *args, **kwargs):
    with open(path, "wb") as fh:
        save(fh, *args, **kwargs)


def _header(**fields):
    return np.frombuffer(json.dumps(fields).encode("utf-8"), dtype=np.uint8)


def _saved_with(path, **fields):
    """A save_index file whose header has ``fields`` written over it."""
    save_index(build_index(three_doc_store()), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    header = json.loads(arrays["header"].tobytes())
    _write_with(np.savez, path, **{**arrays, "header": _header(**{**header, **fields})})


@pytest.mark.parametrize(
    "write",
    [
        lambda path: path.write_text(V1_JSON_INDEX, encoding="utf-8"),
        lambda path: path.write_bytes(b""),
        lambda path: path.write_bytes(b"PK\x03\x04 not really a zip"),
        lambda path: _write_with(np.save, path, np.arange(3)),
        lambda path: _write_with(np.savez, path, rows=np.arange(3)),
        lambda path: _write_with(np.savez, path, header=np.arange(3, dtype=np.uint8)),
        lambda path: _write_with(np.savez, path, header=_header(format="ragsel-bm25-index", version=1)),
        lambda path: _write_with(np.savez, path, header=np.array([{"format": "x"}], dtype=object)),
        lambda path: _saved_with(path, k1=float("nan")),
    ],
    ids=["v1-json", "empty", "zip-magic", "npy", "no-header", "bad-header", "v1-header", "pickled", "nan-k1"],
)
def test_index_load_rejects_foreign_files(tmp_path, write):
    path = tmp_path / "index.npz"
    write(path)
    with pytest.raises(RetrievalError, match="not a BM25 index"):
        load_index(path)


def test_index_load_rejects_a_version_2_file(tmp_path):
    path = tmp_path / "index.npz"
    save_index(build_index(three_doc_store()), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    header = json.loads(arrays["header"].tobytes())
    del header["digest"]
    _write_with(np.savez, path, **{**arrays, "header": _header(**{**header, "version": 2})})
    with pytest.raises(RetrievalError, match="not a BM25 index"):
        load_index(path)


def test_store_digest_covers_ids_texts_and_order():
    store = three_doc_store()
    passages = list(store)
    edited = [Passage(p.id, p.doc_id, p.text + " x" if p.id == "d2" else p.text) for p in passages]
    renamed = [Passage("d9" if p.id == "d2" else p.id, p.doc_id, p.text) for p in passages]
    digests = {PassageStore(ps).digest() for ps in (passages, edited, renamed, passages[::-1])}
    assert len(digests) == 4
    assert PassageStore(passages).digest() == store.digest()


def test_index_load_rejects_truncated_file(tmp_path):
    store = _random_store(random.Random(5), 40, [f"v{i}" for i in range(30)])
    path = tmp_path / "index.npz"
    save_index(build_index(store), path)
    data = path.read_bytes()
    for size in sorted({1, 4, 30, 100, len(data) // 3, len(data) // 2, len(data) - 22, len(data) - 1}):
        path.write_bytes(data[:size])
        with pytest.raises(RetrievalError, match="not a BM25 index"):
            load_index(path)


def test_index_load_rejects_inconsistent_arrays(tmp_path):
    index = build_index(three_doc_store())
    path = tmp_path / "index.npz"
    save_index(index, path)
    with np.load(path) as npz:
        good = dict(npz)
    for name, bad in [
        ("rows", good["rows"][:-1]),
        ("rows", good["rows"] + 3),
        ("impacts", good["impacts"].astype(np.float32)),
        ("offsets", good["offsets"][::-1]),
    ]:
        _write_with(np.savez, path, **{**good, name: bad})
        with pytest.raises(RetrievalError, match="not a BM25 index"):
            load_index(path)


FIXTURE_CORPUS = Path(__file__).resolve().parent.parent / "fixtures" / "corpus.jsonl"


def _with_npy_header_length(path, member, length):
    """Set a saved member's 2-byte .npy header length, 8 bytes into the member's data, which follows
    its 30-byte local header, name and extra field. numpy then reads a cut header and, failing to
    parse it, retries through its Python 2 header filter, which raises tokenize.TokenError."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        start = archive.getinfo(member).header_offset
    at = start + 30 + sum(int.from_bytes(data[i : i + 2], "little") for i in (start + 26, start + 28)) + 8
    data[at : at + 2] = length.to_bytes(2, "little")
    path.write_bytes(data)


def _damaged_copies(blob, seed, trials):
    """Seeded truncations (every third trial) and one-byte flips of a saved .npz. Every other position
    lies within 128 bytes after a zip record's signature: a member's local header and .npy header, or
    the directory. In a large file most other bytes are array data, which the member's CRC check guards."""
    rng = random.Random(seed)
    records = [m.start() for m in re.finditer(rb"PK(\x03\x04|\x01\x02|\x05\x06)", blob)]
    for trial in range(trials):
        at = rng.randrange(len(blob)) if trial % 2 else min(rng.choice(records) + rng.randrange(128), len(blob) - 1)
        flipped = blob[:at] + bytes([blob[at] ^ rng.randrange(1, 256)]) + blob[at + 1 :]
        yield trial, at, blob[:at] if trial % 3 == 0 else flipped


@pytest.mark.parametrize("member", ["header.npy", "rows.npy", "impacts.npy", "offsets.npy"])
def test_index_load_rejects_a_damaged_member_header(tmp_path, member):
    path = tmp_path / "index.npz"
    save_index(build_index(load_corpus(FIXTURE_CORPUS)), path)
    _with_npy_header_length(path, member, 14)
    with pytest.raises(RetrievalError, match=f"^{re.escape(str(path))}: not a BM25 index file$"):
        load_index(path)


def _index_content(index):
    arrays = index.rows.tolist(), index.impacts.tolist()
    return index.ids, index.terms, *arrays, index.k1, index.b, index.analyzer, index.digest


def test_damaged_index_files_are_rejected_or_load_whole(tmp_path):
    """Truncations and byte flips of the fixture corpus's index: each raises RetrievalError naming the
    file, or loads the original content (a flip in a zip field that nothing reads)."""
    path = tmp_path / "index.npz"
    save_index(build_index(load_corpus(FIXTURE_CORPUS)), path)
    blob, original = path.read_bytes(), _index_content(load_index(path))
    outcomes = Counter()
    for trial, at, damaged in _damaged_copies(blob, 2601, 800):
        path.write_bytes(damaged)
        try:
            loaded = load_index(path)
        except RetrievalError as exc:
            assert str(exc) == f"{path}: not a BM25 index file", (trial, at)
            outcomes["rejected"] += 1
        else:
            assert _index_content(loaded) == original, (trial, at)
            outcomes["loaded"] += 1
    assert outcomes["rejected"] >= 600, outcomes


# --- exactness against the term-at-a-time loop ----------------------------


class LoopBm25:
    """The dict-of-postings, term-at-a-time BM25 that search replaced.

    Kept as the reference: the array search must return the same ids and
    the same float scores, because it adds the same impacts in the same
    query-term order.
    """

    def __init__(self, store, analyzer=AnalyzerConfig(), k1=1.2, b=0.75):
        self.analyzer, self.k1, self.b = analyzer, k1, b
        self.postings: dict[str, list[tuple[str, int]]] = {}
        self.lengths: dict[str, int] = {}
        for passage in store:
            terms = analyze(passage.text, analyzer)
            self.lengths[passage.id] = len(terms)
            for term, tf in Counter(terms).items():
                self.postings.setdefault(term, []).append((passage.id, tf))
        self.avg_length = sum(self.lengths.values()) / len(self.lengths)

    def idf(self, term):
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        n = len(self.lengths)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def weight(self, idf, tf, length):
        norm = 1.0 - self.b + self.b * length / self.avg_length
        return idf * tf * (self.k1 + 1.0) / (tf + self.k1 * norm)

    def search(self, query, k):
        scores: dict[str, float] = {}
        for term in dict.fromkeys(analyze(query, self.analyzer)):
            idf = self.idf(term)
            if idf == 0.0:
                continue
            for pid, tf in self.postings[term]:
                scores[pid] = scores.get(pid, 0.0) + self.weight(idf, tf, self.lengths[pid])
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]


def test_search_equals_loop_reference_random(tmp_path):
    rng = random.Random(41)
    ties_at_k = beyond_hits = 0
    for trial in range(150):
        vocab = [f"v{i}" for i in range(rng.randrange(3, 25))]
        passages = []
        for i, pid in enumerate(rng.sample(range(10_000), rng.randrange(1, 40))):
            if passages and rng.random() < 0.3:
                text = rng.choice(passages).text  # duplicate text: tied scores
            else:
                text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 15)))
            passages.append(Passage(id=f"p{pid}", doc_id=f"d{i}", text=text))
        store = PassageStore(passages)
        k1, b = rng.choice([(1.2, 0.75), (0.9, 0.4), (2.0, 1.0), (1.2, 0.0)])
        index = build_index(store, k1=k1, b=b)
        if trial % 10 == 0:
            path = tmp_path / f"index{trial}"
            save_index(index, path)
            index = load_index(path)
        reference = LoopBm25(store, k1=k1, b=b)
        for _ in range(8):
            words = [rng.choice(vocab + ["unknown", "V1"]) for _ in range(rng.randrange(1, 6))]
            query = " ".join(words + rng.sample(words, rng.randrange(0, len(words) + 1)))
            k = rng.randrange(1, len(passages) + 4)
            want = reference.search(query, k)
            got = search(index, query, k)
            assert list(zip(got.ids, got.scores)) == want, (query, k)
            every = reference.search(query, len(passages))
            beyond_hits += k > len(every)
            ties_at_k += k < len(every) and every[k - 1][1] == every[k][1]
    assert ties_at_k >= 20 and beyond_hits >= 20


def test_candidate_list_roundtrip():
    clist = CandidateList("q1", "bm25", ["p1", "p2"], [1.5, 0.5])
    record = clist.to_dict()
    assert json.dumps(record) == (
        '{"query_id": "q1", "retriever": "bm25", "items": [{"id": "p1", "score": 1.5}, {"id": "p2", "score": 0.5}]}'
    )
    assert CandidateList.from_dict(record) == clist
    for item in ({"id": 1, "score": 1.5}, {"id": "p1", "score": 1}, {"id": "p1", "score": True}, {"id": "p1"}):
        with pytest.raises((TypeError, KeyError)):
            CandidateList.from_dict({**record, "items": [item]})


def test_items_pair_each_id_with_its_score(tmp_path):
    """``items`` is what bench/reference.py compares with its brute-force search: (passage_id, score) pairs."""
    store, backend = _dense_fixture()
    bm25 = search(build_index(three_doc_store()), "a b c", k=3)
    dense = DenseRetriever(backend, store, tmp_path / "emb.npz").retrieve("query", k=3)
    for result in (bm25, dense):
        assert len(result.ids) == 3
        assert [(c.passage_id, c.score) for c in result.items] == list(zip(result.ids, result.scores))


# --- dense ---------------------------------------------------------------


class FakeEmbedBackend:
    def __init__(self, model, table, dim=4):
        self.model = model
        self.table = table
        self.dim = dim
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return [list(self.table[t]) for t in texts]


def _dense_fixture():
    store = PassageStore(
        [
            Passage(id="p1", doc_id="d", text="alpha"),
            Passage(id="p2", doc_id="d", text="beta"),
            Passage(id="p3", doc_id="d", text="gamma"),
        ]
    )
    table = {
        "alpha": [1.0, 0.0, 0.0, 0.0],
        "beta": [0.0, 1.0, 0.0, 0.0],
        "gamma": [1.0, 1.0, 0.0, 0.0],
        "query": [1.0, 0.0, 0.0, 0.0],
    }
    return store, FakeEmbedBackend("emb-1", table)


def test_dense_search_hand_computed_order(tmp_path):
    store, backend = _dense_fixture()
    result = DenseRetriever(backend, store, tmp_path / "emb.jsonl").retrieve("query", k=3, query_id="q")
    # cos(p1)=1, cos(p3)=1/sqrt(2), cos(p2)=0 by hand.
    assert result.ids == ["p1", "p3", "p2"]
    assert result.scores == pytest.approx([1.0, 1.0 / math.sqrt(2.0), 0.0], abs=1e-12)
    assert result.retriever == "dense"


def test_dense_search_tie_breaks_by_id(tmp_path):
    store = PassageStore(
        [
            Passage(id="pz", doc_id="d", text="alpha"),
            Passage(id="pa", doc_id="d", text="alpha2"),
        ]
    )
    table = {"alpha": [1.0, 0.0], "alpha2": [1.0, 0.0], "query": [1.0, 0.0]}
    backend = FakeEmbedBackend("emb-1", table, dim=2)
    assert DenseRetriever(backend, store, tmp_path / "emb.jsonl").retrieve("query", k=2).ids == ["pa", "pz"]


def test_dense_zero_norm_vector_scores_zero(tmp_path):
    store = PassageStore(
        [
            Passage(id="p1", doc_id="d", text="zero"),
            Passage(id="p2", doc_id="d", text="unit"),
        ]
    )
    table = {"zero": [0.0, 0.0], "unit": [1.0, 0.0], "query": [1.0, 0.0], "null": [0.0, 0.0]}
    retriever = DenseRetriever(FakeEmbedBackend("emb-1", table, dim=2), store, tmp_path / "emb.jsonl")
    for query, ids, scores in [("query", ["p2", "p1"], [1.0, 0.0]), ("null", ["p1", "p2"], [0.0, 0.0])]:
        result = retriever.retrieve(query, k=2)
        assert (result.ids, result.scores) == (ids, scores)


def test_dense_empty_store_errors(tmp_path):
    with pytest.raises(RetrievalError, match="empty corpus"):
        DenseRetriever(FakeEmbedBackend("emb-1", {}), PassageStore([]), tmp_path / "emb.jsonl")


def loop_dense(vectors, query, k):
    """Per-passage cosine in the retriever's operation order, then a full sort.

    The reference for DenseRetriever: same ids and the same float scores.
    Vectors hold small integers, so every dot product and squared norm is
    exact whatever order the terms are summed in.
    """
    qnorm = math.sqrt(sum(x * x for x in query))
    scores = {}
    for pid, vec in vectors.items():
        norm = math.sqrt(sum(x * x for x in vec))
        dot = sum(x * y for x, y in zip(vec, query))
        scores[pid] = 0.0 if norm == 0.0 or qnorm == 0.0 else dot / (norm * qnorm)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def test_dense_equals_loop_reference(tmp_path):
    rng = random.Random(43)
    ties_at_k = zero_vectors = 0
    for trial in range(60):
        dim = rng.randrange(1, 6)
        vectors = {}
        for pid in rng.sample(range(10_000), rng.randrange(1, 40)):  # store order unlike id order
            if vectors and rng.random() < 0.3:
                vec = rng.choice(list(vectors.values()))  # duplicate vector: tied scores
            else:
                vec = [float(rng.randrange(-2, 3)) for _ in range(dim)]
            zero_vectors += not any(vec)
            vectors[f"p{pid}"] = vec
        store = PassageStore([Passage(id=pid, doc_id="d", text=pid) for pid in vectors])
        table = dict(vectors)
        queries = [[float(rng.randrange(-2, 3)) for _ in range(dim)] for _ in range(6)] + [[0.0] * dim]
        table.update((f"query{n}", q) for n, q in enumerate(queries))
        retriever = DenseRetriever(FakeEmbedBackend("emb-1", table, dim), store, tmp_path / f"emb{trial}.jsonl")
        n = len(vectors)
        for q, query in enumerate(queries):
            every = loop_dense(vectors, query, n)
            for k in (1, max(1, n // 2), n + 3):
                want = [(pid, score.hex()) for pid, score in every[:k]]
                got = retriever.retrieve(f"query{q}", k)
                assert list(zip(got.ids, map(float.hex, got.scores))) == want, (trial, q, k)
                ties_at_k += k < n and every[k - 1][1] == every[k][1]
    assert ties_at_k >= 50 and zero_vectors >= 20


def _wide_dense(tmp_path, rows):
    """A retriever over ``rows`` (2000 x 256: large enough that OpenBLAS threads a gemv), one query per row."""
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=f"passage {i}") for i in range(len(rows))])
    table = {p.text: row for p, row in zip(store, rows.tolist())}
    table.update((f"query {i}", row) for i, row in enumerate(rows.tolist()))
    return DenseRetriever(FakeEmbedBackend("emb-1", table, rows.shape[1]), store, tmp_path / "emb.jsonl"), table


def test_dense_queries_leave_no_cpu_busy_between_them(tmp_path):
    """Scoring runs on the calling thread: no BLAS worker spins on while the caller waits.

    With a threaded gemv, an idle worker spin-waits after each query, and this
    process used about one CPU second per wall second. On one CPU, or with a
    single-threaded BLAS, there is no worker and the check cannot tell.
    """
    retriever, _ = _wide_dense(tmp_path, np.random.default_rng(5).integers(-3, 4, (2000, 256)).astype(np.float64))
    retriever.retrieve("query 0", k=20)
    cpu, wall = time.process_time(), time.perf_counter()
    for n in range(1, 31):
        retriever.retrieve(f"query {n}", k=20)
        time.sleep(0.005)
    assert (time.process_time() - cpu) / (time.perf_counter() - wall) < 0.5


def test_dense_non_integer_scores_match_an_exact_cosine(tmp_path):
    rows = np.random.default_rng(6).standard_normal((2000, 256))
    retriever, table = _wide_dense(tmp_path, rows)
    vectors = rows.tolist()
    for n in range(5):
        query = table[f"query {n}"]
        qnorm = math.sqrt(math.fsum(x * x for x in query))
        exact = {
            f"p{i}": math.fsum(x * y for x, y in zip(vec, query)) / (math.sqrt(math.fsum(x * x for x in vec)) * qnorm)
            for i, vec in enumerate(vectors)
        }
        got = retriever.retrieve(f"query {n}", k=20)
        assert got.ids == sorted(exact, key=lambda pid: -exact[pid])[:20]
        assert all(math.isclose(score, exact[pid], rel_tol=1e-12) for pid, score in zip(got.ids, got.scores))


def _cached_fingerprints(path):
    return EmbeddingCache.load(path).fingerprints


def test_embedding_cache_roundtrip(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    matrix = precompute_embeddings(backend, store, path)
    assert backend.calls >= 1
    assert matrix.dtype == np.float64
    assert matrix.tolist() == [backend.table[p.text] for p in store]
    reloaded = EmbeddingCache.load(path)
    assert reloaded.model == "emb-1"
    assert reloaded.fingerprints == [text_fingerprint("emb-1", p.text) for p in store]
    assert reloaded.matrix.dtype == np.float64
    assert reloaded.matrix.tolist() == [backend.table[p.text] for p in store]


def test_precompute_reuses_fresh_cache(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    calls_before = backend.calls
    # a rewrite renames a new file into place: the same inode shows no rewrite happened
    before = path.stat().st_ino
    precompute_embeddings(backend, store, path)
    assert backend.calls == calls_before
    assert path.stat().st_ino == before
    # the same texts in another order, one of them twice: nothing to embed or prune, so no rewrite
    shuffled = PassageStore([Passage(f"q{i}", "d", p.text) for i, p in enumerate([*reversed(list(store)), list(store)[0]])])
    matrix = precompute_embeddings(backend, shuffled, path)
    assert matrix.tolist() == [backend.table[p.text] for p in shuffled]
    assert backend.calls == calls_before
    assert path.stat().st_ino == before
    # one passage fewer: its entry is pruned, so the file is rewritten
    precompute_embeddings(backend, PassageStore(list(store)[:2]), path)
    assert backend.calls == calls_before
    assert path.stat().st_ino != before
    assert _cached_fingerprints(path) == [text_fingerprint("emb-1", p.text) for p in list(store)[:2]]


def test_precompute_invalidates_on_model_change(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    other = RecordingEmbedBackend("emb-2")
    matrix = precompute_embeddings(other, store, path)
    assert other.texts == Counter(p.text for p in store)
    assert matrix.tolist() == [[float(len(p.text)), 1.0] for p in store]
    assert _cached_fingerprints(path) == [text_fingerprint("emb-2", p.text) for p in store]


def test_precompute_embeds_an_edited_passage_and_only_it(tmp_path):
    path = tmp_path / "emb.jsonl"
    texts = {"p1": "abc", "p2": "de", "p3": "fghi"}
    precompute_embeddings(RecordingEmbedBackend(), PassageStore(Passage(pid, "d", t) for pid, t in texts.items()), path)
    texts["p1"] = "a longer text now"
    backend = RecordingEmbedBackend()
    store = PassageStore(Passage(pid, "d", t) for pid, t in texts.items())
    matrix = precompute_embeddings(backend, store, path)
    assert backend.texts == Counter(["a longer text now"])
    assert matrix.tolist() == [[17.0, 1.0], [2.0, 1.0], [4.0, 1.0]]
    # the rewrite holds exactly the current texts: the old p1 entry is pruned
    assert _cached_fingerprints(path) == [text_fingerprint("emb-1", t) for t in texts.values()]


def test_precompute_embeds_identical_texts_once(tmp_path):
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=f"text {i % 3}") for i in range(9)])
    backend = RecordingEmbedBackend()
    matrix = precompute_embeddings(backend, store, tmp_path / "emb.jsonl")
    assert backend.texts == Counter(f"text {i}" for i in range(3))
    assert matrix.shape == (9, 2)


def test_cache_dimension_mismatch_errors(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    EmbeddingCache("emb-1", [text_fingerprint("emb-1", "alpha")], np.array([[1.0, 0.0]])).save(path)
    before = path.read_bytes()
    with pytest.raises(RetrievalError, match=r"differ in dimension \[2, 4\]"):
        precompute_embeddings(backend, store, path)
    assert path.read_bytes() == before  # checked before the cache is saved


class CountingEmbedBackend:
    """Records the number of live threads while each batch is embedded."""

    model = "emb-1"

    def __init__(self):
        self.peak = 0
        self.batches = 0
        self._lock = threading.Lock()

    def embed(self, texts):
        with self._lock:
            self.batches += 1
            self.peak = max(self.peak, threading.active_count())
        time.sleep(0.01)  # let the other workers start while this batch runs
        return [[float(len(t)), 1.0] for t in texts]


def test_precompute_threads_stay_within_parallelism(tmp_path, monkeypatch):
    parallelism = 2
    monkeypatch.setattr(retrieval, "EMBED_BATCH_SIZE", 1)
    monkeypatch.setattr(retrieval, "EMBED_PARALLELISM", parallelism)
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text="x" * (i + 1)) for i in range(12)])
    backend = CountingEmbedBackend()
    before = threading.active_count()
    matrix = precompute_embeddings(backend, store, tmp_path / "emb.jsonl")
    assert backend.batches == 12
    assert backend.peak - before <= parallelism
    assert matrix.tolist() == [[float(i + 1), 1.0] for i in range(12)]


class RecordingEmbedBackend:
    """Counts every text it embeds, each call's size and the most calls in
    flight at once; slow enough that concurrent callers overlap."""

    def __init__(self, model="emb-1"):
        self.model = model
        self.texts = Counter()
        self.sizes = []
        self.inflight = self.peak_inflight = 0
        self._lock = threading.Lock()

    def embed(self, texts):
        with self._lock:
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)
        time.sleep(0.01)
        with self._lock:
            self.inflight -= 1
            self.texts.update(texts)
            self.sizes.append(len(texts))
        return [[float(len(t)), 1.0] for t in texts]


@pytest.mark.parametrize("settings", [None, (3, 2)], ids=["defaults", "3-per-call-2-in-flight"])
def test_precompute_batches_the_distinct_missing_texts(tmp_path, monkeypatch, settings):
    if settings:
        monkeypatch.setattr(retrieval, "EMBED_BATCH_SIZE", settings[0])
        monkeypatch.setattr(retrieval, "EMBED_PARALLELISM", settings[1])
    batch, parallelism = retrieval.EMBED_BATCH_SIZE, retrieval.EMBED_PARALLELISM
    assert parallelism <= MAX_INFLIGHT
    distinct = 2 * batch + 1
    texts = [f"passage {i}" for i in range(distinct)] + ["passage 0"]
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=t) for i, t in enumerate(texts)])
    backend = RecordingEmbedBackend()
    precompute_embeddings(backend, store, tmp_path / "emb.jsonl")
    assert len(backend.sizes) == math.ceil(distinct / batch)
    assert max(backend.sizes) <= batch
    assert backend.peak_inflight <= parallelism
    assert backend.texts == Counter(texts[:distinct])


def test_precompute_output_does_not_depend_on_batching(tmp_path, monkeypatch):
    texts = [f"text {i % 150}" for i in range(200)]  # repeats among them
    table = {t: [float(n), 1.0] for n, t in enumerate(dict.fromkeys(texts))}
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=t) for i, t in enumerate(texts)])
    # a warm start: some store texts in another order, and one the store lacks
    warm_texts = [*texts[90:30:-7], "gone"]
    warm_vectors = np.array([table.get(t, [9.0, 9.0]) for t in warm_texts])
    warm = EmbeddingCache("emb-1", [text_fingerprint("emb-1", t) for t in warm_texts], warm_vectors)
    outputs = []
    for settings in [(1, 1), (retrieval.EMBED_BATCH_SIZE, retrieval.EMBED_PARALLELISM)]:
        monkeypatch.setattr(retrieval, "EMBED_BATCH_SIZE", settings[0])
        monkeypatch.setattr(retrieval, "EMBED_PARALLELISM", settings[1])
        path = tmp_path / f"emb-{settings[0]}-{settings[1]}.jsonl"
        warm.save(path)
        matrix = precompute_embeddings(FakeEmbedBackend("emb-1", table, dim=2), store, path)
        cache = EmbeddingCache.load(path)
        outputs.append((matrix.tolist(), cache.fingerprints, cache.matrix.tolist(), path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == [table[t] for t in texts]
    assert outputs[0][1] == [text_fingerprint("emb-1", t) for t in dict.fromkeys(texts)]
    assert outputs[0][2] == [table[t] for t in dict.fromkeys(texts)]


def test_dense_cold_cache_embeds_each_passage_once(tmp_path):
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=f"passage {i}") for i in range(64)])
    backend = RecordingEmbedBackend()
    path = tmp_path / "emb.jsonl"
    retriever = DenseRetriever(backend, store, path)
    start = threading.Barrier(4)

    def first_query(n):
        start.wait()
        return retriever.retrieve(f"query {n}", k=3)

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert all(len(c) == 3 for c in pool.map(first_query, range(4)))
    assert backend.texts == Counter([p.text for p in store] + [f"query {n}" for n in range(4)])
    assert _cached_fingerprints(path) == [text_fingerprint("emb-1", p.text) for p in store]


def test_dense_retriever_keeps_one_copy_of_the_vectors(tmp_path):
    rng = np.random.default_rng(3)
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=f"passage {i}") for i in range(1000)])
    backend = FakeEmbedBackend("emb-1", {p.text: rng.standard_normal(128).tolist() for p in store})
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        retriever = DenseRetriever(backend, store, path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retriever.matrix.shape == (1000, 128)
    assert retained < 1.5 * retriever.matrix.nbytes


REBUILD = "not an embedding cache; delete it and the next command rebuilds it"


def _raw_cache(header=None, fingerprints=None, matrix=None):
    """A damage that writes a cache file with its header fields, fingerprint
    array or matrix replaced; ``header`` may also return the header's bytes."""

    def damage(path, cache):
        fields = {"format": "ragsel-embeddings", "version": 1, "model": cache.model, "dim": cache.matrix.shape[1]}
        fields = fields if header is None else header(fields)
        digests = np.frombuffer(bytes.fromhex("".join(cache.fingerprints)), dtype=np.uint8).reshape(-1, 32)
        arrays = dict(
            header=np.frombuffer(fields if isinstance(fields, bytes) else json.dumps(fields).encode(), dtype=np.uint8),
            fingerprints=digests if fingerprints is None else fingerprints(digests),
            matrix=cache.matrix if matrix is None else matrix(cache.matrix),
        )
        with open(path, "wb") as fh:
            np.savez(fh, **{name: a for name, a in arrays.items() if a is not None})

    return damage


def _with_value(value):
    def matrix(m):
        m = m.copy()
        m[1, 2] = value
        return m

    return matrix


@pytest.mark.parametrize(
    "damage",
    [
        # a JSONL cache of earlier versions: one {"fingerprint", "vector"} line per text
        lambda path, cache: write_jsonl(
            path, ({"fingerprint": fp, "vector": v} for fp, v in zip(cache.fingerprints, cache.matrix.tolist()))
        ),
        lambda path, cache: path.write_bytes(b""),
        lambda path, cache: path.write_bytes(path.read_bytes()[:-30]),  # an interrupted copy cuts the zip directory
        _raw_cache(matrix=_with_value(float("nan"))),
        _raw_cache(matrix=_with_value(float("inf"))),
        _raw_cache(matrix=_with_value(float("-inf"))),
        _raw_cache(fingerprints=lambda d: np.concatenate([d, d[:1]])),  # more fingerprints than rows
        _raw_cache(fingerprints=lambda d: d[:, :31]),
        _raw_cache(fingerprints=lambda d: d.astype(np.int64)),
        _raw_cache(fingerprints=lambda d: None),
        _raw_cache(matrix=lambda m: m.astype(np.float32)),
        _raw_cache(matrix=lambda m: m.ravel()),
        _raw_cache(matrix=lambda m: None),
        _raw_cache(matrix=lambda m: m.astype(object)),  # np.savez pickles it
        _raw_cache(header=lambda h: {**h, "version": 2}),
        _raw_cache(header=lambda h: {**h, "format": "ragsel-bm25-index"}),
        _raw_cache(header=lambda h: {**h, "dim": 3}),
        _raw_cache(header=lambda h: {**h, "model": None}),
        _raw_cache(header=lambda h: b"\xff not JSON"),
        _raw_cache(header=lambda h: [h]),
        lambda path, cache: save_index(build_index(three_doc_store()), path),
    ],
    ids=[
        "earlier-jsonl", "empty", "truncated", "nan", "infinity", "minus-infinity", "more-fingerprints-than-rows",
        "short-digests", "int64-digests", "no-fingerprints", "float32-matrix", "flat-matrix", "no-matrix",
        "pickled-matrix", "header-version-2", "header-format", "header-dim", "header-model", "header-not-json",
        "header-not-an-object", "bm25-index",
    ],
)
def test_embedding_cache_rejects_malformed_files(tmp_path, damage):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    damage(path, EmbeddingCache.load(path))
    before = path.read_bytes()
    with pytest.raises(RetrievalError, match=f"^{re.escape(str(path))}: {REBUILD}$"):
        EmbeddingCache.load(path)
    with pytest.raises(RetrievalError, match=f"^{re.escape(str(path))}: {REBUILD}$"):
        DenseRetriever(backend, store, path)
    assert path.read_bytes() == before  # left for the user to delete


def _dense_2000x64():
    """2000 passages with 64-dimension vectors: cache members large enough that numpy parses a
    member's .npy header before zip's CRC check reads the member's end."""
    rng = np.random.default_rng(26)
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=f"passage {i}") for i in range(2000)])
    return store, FakeEmbedBackend("emb-1", {p.text: rng.standard_normal(64).tolist() for p in store}, dim=64)


@pytest.mark.parametrize("member", ["fingerprints.npy", "matrix.npy"])
def test_embedding_cache_rejects_a_damaged_member_header(tmp_path, member):
    store, backend = _dense_2000x64()
    path = tmp_path / "emb.npz"
    precompute_embeddings(backend, store, path)
    _with_npy_header_length(path, member, 14)
    before = path.read_bytes()
    with pytest.raises(RetrievalError, match=f"^{re.escape(str(path))}: {REBUILD}$"):
        EmbeddingCache.load(path)
    with pytest.raises(RetrievalError, match=f"^{re.escape(str(path))}: {REBUILD}$"):
        DenseRetriever(backend, store, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("dense_input,trials", [(_dense_fixture, 300), (_dense_2000x64, 150)], ids=["3x4", "2000x64"])
def test_damaged_cache_files_are_rejected_or_load_whole(tmp_path, dense_input, trials):
    """Truncations and byte flips of a real cache: each raises RetrievalError naming the file, or
    loads the original content (a flip in a zip field that nothing reads)."""
    store, backend = dense_input()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    blob, original, calls = path.read_bytes(), EmbeddingCache.load(path), backend.calls
    outcomes = Counter()
    for trial, at, damaged in _damaged_copies(blob, 2501, trials):
        for read in (EmbeddingCache.load, lambda p: DenseRetriever(backend, store, p)):
            path.write_bytes(damaged)
            try:
                loaded = read(path)
            except RetrievalError as exc:
                assert str(exc) == f"{path}: {REBUILD}", (trial, at)
                outcomes["rejected"] += 1
            else:  # an EmbeddingCache or a DenseRetriever: each holds the matrix
                assert loaded.matrix.tolist() == original.matrix.tolist(), (trial, at)
                assert getattr(loaded, "fingerprints", original.fingerprints) == original.fingerprints, (trial, at)
                outcomes["loaded"] += 1
    assert backend.calls == calls  # no damaged file was taken for a cache of other texts
    assert outcomes["rejected"] >= trials * 4 // 3, outcomes
