import json
import math
import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ragsel.corpus import Passage, PassageStore
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


def test_embedding_cache_roundtrip(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    cache = precompute_embeddings(backend, store, path)
    assert backend.calls >= 1
    reloaded = EmbeddingCache.load(path)
    assert reloaded.model == "emb-1"
    assert reloaded.dim == 4
    for pid in ("p1", "p2", "p3"):
        assert list(reloaded.vectors[pid]) == list(cache.vectors[pid])


def test_precompute_reuses_fresh_cache(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    calls_before = backend.calls
    precompute_embeddings(backend, store, path)
    assert backend.calls == calls_before


def test_precompute_invalidates_on_model_change(tmp_path):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    other = FakeEmbedBackend("emb-2", backend.table)
    cache = precompute_embeddings(other, store, path)
    assert cache.model == "emb-2"
    assert other.calls >= 1
    assert EmbeddingCache.load(path).model == "emb-2"


def test_cache_dimension_mismatch_errors():
    cache = EmbeddingCache(model="m", dim=4)
    with pytest.raises(RetrievalError, match="dimension"):
        cache.put("p1", [1.0, 2.0])


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


def test_precompute_threads_stay_within_parallelism(tmp_path):
    store = PassageStore([Passage(id=f"p{i}", doc_id="d", text="x" * (i + 1)) for i in range(12)])
    backend = CountingEmbedBackend()
    before = threading.active_count()
    cache = precompute_embeddings(backend, store, tmp_path / "emb.jsonl", batch_size=1, parallelism=2)
    assert backend.batches == 12
    assert backend.peak - before <= 2
    assert [list(cache.vectors[p.id]) for p in store] == [[float(i + 1), 1.0] for i in range(12)]


class RecordingEmbedBackend:
    """Counts every text it embeds; slow enough that concurrent callers overlap."""

    model = "emb-1"

    def __init__(self):
        self.texts = Counter()
        self._lock = threading.Lock()

    def embed(self, texts):
        time.sleep(0.01)
        with self._lock:
            self.texts.update(texts)
        return [[float(len(t)), 1.0] for t in texts]


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
    assert sorted(EmbeddingCache.load(path).vectors) == sorted(store.ids)


BAD_ENTRY = "line 5: not an embedding cache line: expected a string 'id' and a list 'vector'"


@pytest.mark.parametrize(
    "damage,fragment",
    [
        (lambda text: text[:-10], "line 4: invalid JSON"),  # an interrupted write cuts the last line
        (lambda text: text + '{"id": "p4"}\n', BAD_ENTRY),
        (lambda text: text + '{"vector": [1, 0, 0, 0]}\n', BAD_ENTRY),
        (lambda text: text + '{"id": "p4", "vector": null}\n', BAD_ENTRY),
        (lambda text: text + '{"id": 4, "vector": [1, 0, 0, 0]}\n', BAD_ENTRY),
        (lambda text: '{"model": "emb-1"}\n', "line 1: not an embedding cache line: 'dim'"),
        (lambda text: "", "empty embedding cache"),
    ],
    ids=["truncated-line", "no-vector", "no-id", "null-vector", "number-id", "header-without-dim", "empty"],
)
def test_embedding_cache_rejects_malformed_files(tmp_path, damage, fragment):
    store, backend = _dense_fixture()
    path = tmp_path / "emb.jsonl"
    precompute_embeddings(backend, store, path)
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(RetrievalError, match=f"emb.jsonl: {fragment}"):
        EmbeddingCache.load(path)
