import json
import math
import random
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ragsel import retrieval
from ragsel.corpus import Passage, PassageStore
from ragsel.files import write_jsonl
from ragsel.gateway import MAX_INFLIGHT, TranscriptEmbedBackend, text_fingerprint
from ragsel.retrieval import (
    AnalyzerConfig,
    Candidate,
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
        [hit] = search(index, query, k=1).items
        assert hit.passage_id == "p"
        assert hit.score == pytest.approx(expected, abs=1e-9)


def test_build_index_empty_store_errors():
    with pytest.raises(RetrievalError, match="empty"):
        build_index(PassageStore([]))


def test_build_index_validates_parameters():
    store = three_doc_store()
    with pytest.raises(RetrievalError, match="k1"):
        build_index(store, k1=0.0)
    with pytest.raises(RetrievalError, match="b must"):
        build_index(store, b=1.5)


def scores_of(index, query):
    return {c.passage_id: c.score for c in search(index, query, k=len(index.ids)).items}


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
    assert result.items[0].score == pytest.approx(SCORE_D2_A, abs=1e-9)
    assert result.items[1].score == pytest.approx(SCORE_D1_A, abs=1e-9)
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
        assert got.ids == want.ids
        assert [c.score for c in got.items] == [c.score for c in want.items]


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
    ],
    ids=["v1-json", "empty", "zip-magic", "npy", "no-header", "bad-header", "v1-header", "pickled"],
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
            assert [(c.passage_id, c.score) for c in got.items] == want, (query, k)
            every = reference.search(query, len(passages))
            beyond_hits += k > len(every)
            ties_at_k += k < len(every) and every[k - 1][1] == every[k][1]
    assert ties_at_k >= 20 and beyond_hits >= 20


def test_candidate_list_roundtrip():
    clist = CandidateList(
        query_id="q1", retriever="bm25", items=[Candidate("p1", 1.5), Candidate("p2", 0.5)]
    )
    assert CandidateList.from_dict(clist.to_dict()).ids == ["p1", "p2"]


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
    assert result.items[0].score == pytest.approx(1.0, abs=1e-12)
    assert result.items[1].score == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert result.items[2].score == pytest.approx(0.0, abs=1e-12)
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
    assert [(c.passage_id, c.score) for c in retriever.retrieve("query", k=2).items] == [("p2", 1.0), ("p1", 0.0)]
    assert [(c.passage_id, c.score) for c in retriever.retrieve("null", k=2).items] == [("p1", 0.0), ("p2", 0.0)]


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
                got = retriever.retrieve(f"query{q}", k).items
                assert [(c.passage_id, c.score.hex()) for c in got] == want, (trial, q, k)
                ties_at_k += k < n and every[k - 1][1] == every[k][1]
    assert ties_at_k >= 50 and zero_vectors >= 20


def _cache_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_embedding_cache_roundtrip(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    matrix = precompute_embeddings(backend, store, path)
    assert backend.calls >= 1
    assert matrix.dtype == np.float64
    assert matrix.tolist() == [backend.table[p.text] for p in store]
    assert _cache_lines(path) == [
        {"fingerprint": text_fingerprint("emb-1", p.text), "vector": backend.table[p.text]} for p in store
    ]
    reloaded = EmbeddingCache.load(path)
    assert {fp: vec.tolist() for fp, vec in reloaded.vectors.items()} == {
        text_fingerprint("emb-1", p.text): backend.table[p.text] for p in store
    }


def test_precompute_reuses_fresh_cache(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    calls_before = backend.calls
    # spacing no rewrite produces, so an unchanged file shows no rewrite happened
    path.write_text(path.read_text(encoding="utf-8").replace(", ", ",  "), encoding="utf-8")
    before = path.read_bytes()
    precompute_embeddings(backend, store, path)
    assert backend.calls == calls_before
    assert path.read_bytes() == before
    # one passage fewer: its entry is pruned, so the file is rewritten
    precompute_embeddings(backend, PassageStore(list(store)[:2]), path)
    assert backend.calls == calls_before
    assert len(_cache_lines(path)) == 2


def test_precompute_invalidates_on_model_change(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    other = RecordingEmbedBackend("emb-2")
    matrix = precompute_embeddings(other, store, path)
    assert other.texts == Counter(p.text for p in store)
    assert matrix.tolist() == [[float(len(p.text)), 1.0] for p in store]
    assert [line["fingerprint"] for line in _cache_lines(path)] == [text_fingerprint("emb-2", p.text) for p in store]


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
    assert [line["fingerprint"] for line in _cache_lines(path)] == [text_fingerprint("emb-1", t) for t in texts.values()]


def test_precompute_embeds_identical_texts_once(tmp_path):
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text=f"text {i % 3}") for i in range(9)])
    backend = RecordingEmbedBackend()
    matrix = precompute_embeddings(backend, store, tmp_path / "emb.jsonl")
    assert backend.texts == Counter(f"text {i}" for i in range(3))
    assert matrix.shape == (9, 2)


def test_cached_vector_replays_through_the_embed_transcript(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    assert TranscriptEmbedBackend(path, "emb-1").embed(["gamma", "alpha"]) == [
        backend.table["gamma"],
        backend.table["alpha"],
    ]


def test_cache_dimension_mismatch_errors(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [{"fingerprint": text_fingerprint("emb-1", "alpha"), "vector": [1.0, 0.0]}])
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
    warm = [{"fingerprint": text_fingerprint("emb-1", t), "vector": table.get(t, [9.0, 9.0])}
            for t in [*texts[90:30:-7], "gone"]]
    outputs = []
    for settings in [(1, 1), (retrieval.EMBED_BATCH_SIZE, retrieval.EMBED_PARALLELISM)]:
        monkeypatch.setattr(retrieval, "EMBED_BATCH_SIZE", settings[0])
        monkeypatch.setattr(retrieval, "EMBED_PARALLELISM", settings[1])
        path = tmp_path / f"emb-{settings[0]}-{settings[1]}.jsonl"
        write_jsonl(path, warm)
        matrix = precompute_embeddings(FakeEmbedBackend("emb-1", table, dim=2), store, path)
        outputs.append((matrix.tolist(), path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == [table[t] for t in texts]


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
    assert list(EmbeddingCache.load(path).vectors) == [text_fingerprint("emb-1", p.text) for p in store]


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


BAD_ENTRY = "line 4: not an embedding cache line: expected a string 'fingerprint' and a list 'vector'"
FP = text_fingerprint("emb-1", "delta")


@pytest.mark.parametrize(
    "damage,fragment",
    [
        (lambda text: text[:-10], "line 3: invalid JSON"),  # an interrupted write cuts the last line
        (lambda text: text + json.dumps({"fingerprint": FP}) + "\n", BAD_ENTRY),
        (lambda text: text + '{"vector": [1, 0, 0, 0]}\n', BAD_ENTRY),
        (lambda text: text + json.dumps({"fingerprint": FP, "vector": None}) + "\n", BAD_ENTRY),
        (lambda text: text + '{"fingerprint": 4, "vector": [1, 0, 0, 0]}\n', BAD_ENTRY),
        (
            lambda text: text + json.dumps({"fingerprint": FP, "vector": ["x", 0, 0, 0]}) + "\n",
            "line 4: not an embedding cache line: could not convert string to float",
        ),
        (
            # the earlier format: a {"model", "dim"} header, then entries keyed by passage id
            lambda text: '{"model": "emb-1", "dim": 4}\n{"id": "p1", "vector": [1.0, 0.0, 0.0, 0.0]}\n',
            "line 1: not an embedding cache line",
        ),
    ],
    ids=["truncated-line", "no-vector", "no-id", "null-vector", "number-id", "string-vector", "old-header"],
)
def test_embedding_cache_rejects_malformed_files(tmp_path, damage, fragment):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(RetrievalError, match=f"emb.jsonl: {fragment}"):
        EmbeddingCache.load(path)
    with pytest.raises(RetrievalError, match=f"emb.jsonl: {fragment}"):
        DenseRetriever(backend, store, path)
