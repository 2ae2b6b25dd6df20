"""First-stage retrieval: lexical BM25 and dense cosine search.

The BM25 variant is pinned:

    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))
    score   = sum over distinct query terms of
              idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avglen))

with k1=1.2, b=0.75 by default. idf is strictly positive for every indexed
term, so zero-score passages are exactly those sharing no term with the
query.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import threading
import zipfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import PassageStore

_WORD_RE = re.compile(r"\w+", re.UNICODE)


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class AnalyzerConfig:
    """Lowercase + Unicode word segmentation; optional stopwords/stemmer."""

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()
    stemmer: Callable[[str], str] | None = None

    def to_dict(self) -> dict:
        if self.stemmer is not None:
            raise RetrievalError("a custom stemmer cannot be serialized")
        return {"lowercase": self.lowercase, "stopwords": sorted(self.stopwords)}

    @classmethod
    def from_dict(cls, record: dict) -> "AnalyzerConfig":
        return cls(
            lowercase=record.get("lowercase", True),
            stopwords=frozenset(record.get("stopwords", ())),
        )


def analyze(text: str, config: AnalyzerConfig = AnalyzerConfig()) -> list[str]:
    if config.lowercase:
        text = text.lower()
    terms = _WORD_RE.findall(text)
    if config.stopwords:
        terms = [t for t in terms if t not in config.stopwords]
    if config.stemmer is not None:
        terms = [config.stemmer(t) for t in terms]
    return terms


@dataclass(frozen=True)
class Candidate:
    passage_id: str
    score: float


@dataclass
class CandidateList:
    """Ranked first-stage candidates for one query."""

    query_id: str
    retriever: str
    items: list[Candidate] = field(default_factory=list)

    @property
    def ids(self) -> list[str]:
        return [c.passage_id for c in self.items]

    def __len__(self) -> int:
        return len(self.items)

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "retriever": self.retriever,
            "items": [{"id": c.passage_id, "score": c.score} for c in self.items],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CandidateList":
        return cls(
            query_id=record["query_id"],
            retriever=record["retriever"],
            items=[Candidate(i["id"], i["score"]) for i in record["items"]],
        )


@dataclass(eq=False)
class Bm25Index:
    """BM25 postings in CSR layout with every term weight precomputed.

    Row r is passage ``ids[r]``; a term's postings are the ascending rows
    ``rows[terms[term]]``, and it adds ``impacts[terms[term]]`` to their scores.
    """

    ids: list[str]
    terms: dict[str, slice]
    rows: np.ndarray
    impacts: np.ndarray
    k1: float
    b: float
    analyzer: AnalyzerConfig

    def __post_init__(self):
        # argsort inverts the id-sorting permutation: each row's rank by id, for ties
        self.id_rank = np.argsort(sorted(range(len(self.ids)), key=self.ids.__getitem__))


def _csr_slices(terms: Sequence[str], offsets: np.ndarray) -> dict[str, slice]:
    return dict(zip(terms, map(slice, offsets[:-1].tolist(), offsets[1:].tolist())))


def build_index(
    store: PassageStore,
    analyzer: AnalyzerConfig = AnalyzerConfig(),
    k1: float = 1.2,
    b: float = 0.75,
) -> Bm25Index:
    if len(store) == 0:
        raise RetrievalError("cannot build an index over an empty corpus")
    if k1 <= 0:
        raise RetrievalError(f"k1 must be > 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise RetrievalError(f"b must be in [0, 1], got {b}")
    vocab: dict[str, int] = defaultdict(itertools.count().__next__)  # term -> id, first seen first
    ids, lengths, distinct, term_ids, tfs = [], [], [], [], []
    for passage in store:
        counts = Counter(analyze(passage.text, analyzer))
        ids.append(passage.id)
        lengths.append(counts.total())
        distinct.append(len(counts))
        term_ids.extend(map(vocab.__getitem__, counts))
        tfs.extend(counts.values())
    # group the postings by term; the stable sort keeps each term's rows ascending
    order = np.argsort(term_ids, kind="stable")
    rows = np.repeat(np.arange(len(ids), dtype=np.int32), distinct)[order]
    tf = np.array(tfs, dtype=np.float64)[order]
    df = np.bincount(term_ids, minlength=len(vocab))
    # math.log, not np.log, so each idf rounds as the scalar formula does
    idf = np.array([math.log(1.0 + (len(ids) - d + 0.5) / (d + 0.5)) for d in df.tolist()])
    # the scalar formula's operation order, elementwise, so impacts match it bit for bit
    norm = 1.0 - b + b * np.array(lengths, dtype=np.float64)[rows] / (sum(lengths) / len(lengths))
    impacts = np.repeat(idf, df) * tf * (k1 + 1.0) / (tf + k1 * norm)
    offsets = np.concatenate(([0], np.cumsum(df)))
    return Bm25Index(ids, _csr_slices(list(vocab), offsets), rows, impacts, k1, b, analyzer)


def search(index: Bm25Index, query: str, k: int, query_id: str = "") -> CandidateList:
    """Top-k candidates sorted by descending score, ties by ascending id.

    Zero-score passages are excluded, so fewer than k items may come back.
    """
    if k <= 0:
        raise RetrievalError(f"k must be positive, got {k}")
    scores = np.zeros(len(index.ids))
    touched = np.zeros(len(index.ids), dtype=bool)
    # a term lists each row once, so each sum adds its impacts in query-term order
    for term in dict.fromkeys(analyze(query, index.analyzer)):
        span = index.terms.get(term)
        if span is not None:
            rows = index.rows[span]
            scores[rows] += index.impacts[span]
            touched[rows] = True
    hits = np.flatnonzero(touched)
    if len(hits) > k:  # keep every passage tied at the k-th score
        hits = hits[scores[hits] >= np.partition(scores[hits], -k)[-k]]
    order = hits[np.lexsort((index.id_rank[hits], -scores[hits]))[:k]].tolist()
    items = [Candidate(index.ids[row], s) for row, s in zip(order, scores[order].tolist())]
    return CandidateList(query_id=query_id, retriever="bm25", items=items)


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Write one uncompressed .npz: the CSR arrays plus a JSON header."""
    header = dict(format="ragsel-bm25-index", version=2, k1=index.k1, b=index.b,
                  analyzer=index.analyzer.to_dict(), ids=index.ids, terms=list(index.terms))
    header_bytes = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    offsets = np.array([0] + [span.stop for span in index.terms.values()])
    # np.savez appends ".npz" to a path name; a file handle keeps the path as given
    with open(path, "wb") as fh:
        np.savez(fh, header=header_bytes, rows=index.rows, impacts=index.impacts, offsets=offsets)


def load_index(path: str | Path) -> Bm25Index:
    """Read a save_index file; any other file raises RetrievalError."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            header = json.loads(npz["header"].tobytes())
            rows, impacts, offsets = npz["rows"], npz["impacts"], npz["offsets"]
        ids, terms = header["ids"], header["terms"]
        if not (
            (header["format"], header["version"]) == ("ragsel-bm25-index", 2)
            and rows.dtype.kind == "i" and impacts.dtype == np.float64
            and offsets.shape == (len(terms) + 1,) and offsets[0] == 0
            and (np.diff(offsets) >= 0).all()
            and rows.shape == impacts.shape == (offsets[-1],)
            and (len(rows) == 0 or 0 <= rows.min() <= rows.max() < len(ids))
        ):
            raise ValueError("inconsistent index arrays")
        params = float(header["k1"]), float(header["b"]), AnalyzerConfig.from_dict(header["analyzer"])
        return Bm25Index(ids, _csr_slices(terms, offsets), rows, impacts, *params)
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise RetrievalError(f"{path}: not a BM25 index file") from exc


class Bm25Retriever:
    def __init__(self, index: Bm25Index, name: str = "bm25"):
        self.index = index
        self.name = name

    def retrieve(self, query: str, k: int, query_id: str = "") -> CandidateList:
        return search(self.index, query, k, query_id=query_id)


# --- dense retrieval ---------------------------------------------------


class EmbeddingCache:
    """On-disk passage embeddings keyed by (model name, passage id).

    File layout: a JSON header line {"model", "dim"} followed by one
    {"id", "vector"} line per passage. A model change invalidates the
    whole cache; a dimension clash is an error.
    """

    def __init__(self, model: str, dim: int, vectors: dict[str, np.ndarray] | None = None):
        self.model = model
        self.dim = dim
        self.vectors: dict[str, np.ndarray] = vectors or {}

    def put(self, passage_id: str, vector: Sequence[float]) -> None:
        arr = np.asarray(vector, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise RetrievalError(
                f"embedding dimension mismatch for {passage_id!r}:"
                f" cache holds {self.dim}, got {arr.shape[0]}"
            )
        self.vectors[passage_id] = arr

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"model": self.model, "dim": self.dim}) + "\n")
            for pid, vec in self.vectors.items():
                fh.write(json.dumps({"id": pid, "vector": vec.tolist()}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingCache":
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            cache = cls(model=header["model"], dim=int(header["dim"]))
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                cache.put(record["id"], record["vector"])
        return cache


def precompute_embeddings(
    backend,
    store: PassageStore,
    cache_path: str | Path,
    batch_size: int = 16,
    parallelism: int = 2,
) -> EmbeddingCache:
    """Embed every passage missing from the cache and persist the result.

    The cache is reused only when its model matches the backend's; batches
    run concurrently under the given parallelism bound.
    """
    cache_path = Path(cache_path)
    cache: EmbeddingCache | None = None
    if cache_path.exists():
        existing = EmbeddingCache.load(cache_path)
        if existing.model == backend.model:
            cache = existing
    missing = [p for p in store if cache is None or p.id not in cache.vectors]
    if not missing:
        assert cache is not None
        return cache
    batches = [missing[i : i + batch_size] for i in range(0, len(missing), batch_size)]
    results: list[list[list[float]] | None] = [None] * len(batches)
    lock = threading.Semaphore(max(1, parallelism))

    def run(i: int) -> None:
        with lock:
            results[i] = backend.embed([p.text for p in batches[i]])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, batch in enumerate(batches):
        vectors = results[i]
        assert vectors is not None
        for passage, vec in zip(batch, vectors):
            if cache is None:
                cache = EmbeddingCache(model=backend.model, dim=len(vec))
            cache.put(passage.id, vec)
    assert cache is not None
    cache.save(cache_path)
    return cache


def cosine_similarities(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity; zero-norm rows (or query) score 0.0."""
    norms = np.linalg.norm(matrix, axis=1)
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        return np.zeros(matrix.shape[0])
    sims = matrix @ query
    out = np.zeros(matrix.shape[0])
    nonzero = norms > 0.0
    out[nonzero] = sims[nonzero] / (norms[nonzero] * qnorm)
    return out


def dense_search(
    backend,
    store: PassageStore,
    query: str,
    k: int,
    cache: EmbeddingCache,
    query_id: str = "",
) -> CandidateList:
    """Rank all cached passages by cosine similarity to the embedded query."""
    if k <= 0:
        raise RetrievalError(f"k must be positive, got {k}")
    if cache.model != backend.model:
        raise RetrievalError(
            f"embedding cache was built with model {cache.model!r},"
            f" backend uses {backend.model!r}"
        )
    ids = [p.id for p in store]
    missing = [pid for pid in ids if pid not in cache.vectors]
    if missing:
        raise RetrievalError(f"embedding cache is missing {len(missing)} passages (e.g. {missing[0]!r})")
    matrix = np.stack([cache.vectors[pid] for pid in ids])
    query_vec = np.asarray(backend.embed([query])[0], dtype=np.float64)
    if query_vec.shape != (cache.dim,):
        raise RetrievalError(
            f"query embedding dimension {query_vec.shape[0]} does not match cache ({cache.dim})"
        )
    sims = cosine_similarities(matrix, query_vec)
    order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))
    items = [Candidate(ids[i], float(sims[i])) for i in order[:k]]
    return CandidateList(query_id=query_id, retriever="dense", items=items)


class DenseRetriever:
    def __init__(self, backend, store: PassageStore, cache_path: str | Path, name: str = "dense"):
        self.backend = backend
        self.store = store
        self.cache_path = Path(cache_path)
        self.name = name
        self._cache: EmbeddingCache | None = None

    def _ensure_cache(self) -> EmbeddingCache:
        if self._cache is None:
            self._cache = precompute_embeddings(self.backend, self.store, self.cache_path)
        return self._cache

    def retrieve(self, query: str, k: int, query_id: str = "") -> CandidateList:
        cache = self._ensure_cache()
        return dense_search(self.backend, self.store, query, k, cache, query_id=query_id)
