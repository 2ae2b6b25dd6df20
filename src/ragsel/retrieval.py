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
import zipfile
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PassageStore
from .files import iter_jsonl, replace_atomically, write_jsonl
from .gateway import text_fingerprint

_WORD_RE = re.compile(r"\w+", re.UNICODE)


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class AnalyzerConfig:
    """Lowercase + Unicode word segmentation; optional stopwords."""

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()

    def to_dict(self) -> dict:
        return {"lowercase": self.lowercase, "stopwords": sorted(self.stopwords)}

    @classmethod
    def from_dict(cls, record: dict) -> "AnalyzerConfig":
        return cls(lowercase=record["lowercase"], stopwords=frozenset(record["stopwords"]))


def analyze(text: str, config: AnalyzerConfig = AnalyzerConfig()) -> list[str]:
    if config.lowercase:
        text = text.lower()
    terms = _WORD_RE.findall(text)
    if config.stopwords:
        terms = [t for t in terms if t not in config.stopwords]
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
    ``digest`` is the indexed store's ``PassageStore.digest()``.
    """

    ids: list[str]
    terms: dict[str, slice]
    rows: np.ndarray
    impacts: np.ndarray
    k1: float
    b: float
    analyzer: AnalyzerConfig
    digest: str

    def __post_init__(self):
        self.id_rank = _id_ranks(self.ids)


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    # argsort inverts the id-sorting permutation: each row's rank by id, for ties
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


def _top_k(
    ids: Sequence[str], id_rank: np.ndarray, scores: np.ndarray, rows: np.ndarray, k: int
) -> list[Candidate]:
    """The k best ``rows`` by descending score, ties by ascending id."""
    if len(rows) > k:  # keep every row tied at the k-th score
        rows = rows[scores[rows] >= np.partition(scores[rows], -k)[-k]]
    order = rows[np.lexsort((id_rank[rows], -scores[rows]))[:k]].tolist()
    return [Candidate(ids[row], s) for row, s in zip(order, scores[order].tolist())]


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
    return Bm25Index(ids, _csr_slices(list(vocab), offsets), rows, impacts, k1, b, analyzer, store.digest())


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
    items = _top_k(index.ids, index.id_rank, scores, np.flatnonzero(touched), k)
    return CandidateList(query_id=query_id, retriever="bm25", items=items)


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Write one uncompressed .npz: the CSR arrays plus a JSON header."""
    header = dict(format="ragsel-bm25-index", version=3, k1=index.k1, b=index.b, analyzer=index.analyzer.to_dict(),
                  digest=index.digest, ids=index.ids, terms=list(index.terms))
    header_bytes = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    offsets = np.array([0] + [span.stop for span in index.terms.values()])
    # np.savez appends ".npz" to a path name; a file handle keeps the path as given
    with replace_atomically(path, "wb") as fh:
        np.savez(fh, header=header_bytes, rows=index.rows, impacts=index.impacts, offsets=offsets)


def load_index(path: str | Path) -> Bm25Index:
    """Read a save_index file; any other file raises RetrievalError."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            header = json.loads(npz["header"].tobytes())
            rows, impacts, offsets = npz["rows"], npz["impacts"], npz["offsets"]
        ids, terms = header["ids"], header["terms"]
        if not (
            (header["format"], header["version"]) == ("ragsel-bm25-index", 3)
            and isinstance(header["digest"], str)
            and rows.dtype.kind == "i" and impacts.dtype == np.float64
            and offsets.shape == (len(terms) + 1,) and offsets[0] == 0
            and (np.diff(offsets) >= 0).all()
            and rows.shape == impacts.shape == (offsets[-1],)
            and (len(rows) == 0 or 0 <= rows.min() <= rows.max() < len(ids))
        ):
            raise ValueError("inconsistent index arrays")
        params = float(header["k1"]), float(header["b"]), AnalyzerConfig.from_dict(header["analyzer"])
        return Bm25Index(ids, _csr_slices(terms, offsets), rows, impacts, *params, header["digest"])
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise RetrievalError(f"{path}: not a BM25 index file") from exc


class Bm25Retriever:
    name = "bm25"

    def __init__(self, index: Bm25Index):
        self.index = index

    def retrieve(self, query: str, k: int, query_id: str = "") -> CandidateList:
        return search(self.index, query, k, query_id=query_id)


# --- dense retrieval ---------------------------------------------------


class EmbeddingCache:
    """On-disk passage embeddings in the embed transcript's entry format.

    One {"fingerprint", "vector"} line per text, keyed by
    ``gateway.text_fingerprint(model, text)``: an edited text or another
    model is a miss, never a stale hit.
    """

    def __init__(self, vectors: dict[str, np.ndarray] | None = None):
        self.vectors: dict[str, np.ndarray] = vectors or {}

    def save(self, path: str | Path) -> None:
        write_jsonl(path, ({"fingerprint": fp, "vector": vec.tolist()} for fp, vec in self.vectors.items()))

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingCache":
        """Read a save file; a malformed line raises RetrievalError naming it."""
        vectors = {}
        for lineno, record in iter_jsonl(path, RetrievalError):
            fingerprint, vector = record.get("fingerprint"), record.get("vector")
            try:
                if not isinstance(fingerprint, str) or not isinstance(vector, list):
                    raise ValueError("expected a string 'fingerprint' and a list 'vector'")
                vectors[fingerprint] = np.array(vector, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise RetrievalError(f"{path}: line {lineno}: not an embedding cache line: {exc}") from None
        return cls(vectors)


# passages per embed call, and embed calls in flight at once (within gateway.MAX_INFLIGHT)
EMBED_BATCH_SIZE = 64
EMBED_PARALLELISM = 4


def precompute_embeddings(backend, store: PassageStore, cache_path: str | Path) -> np.ndarray:
    """The store's passage vectors as one float64 matrix, in store order.

    Each distinct text missing from the cache is embedded once: one call
    per ``EMBED_BATCH_SIZE`` of them, at most ``EMBED_PARALLELISM`` calls in
    flight. When anything was embedded or pruned, the cache is rewritten to
    hold exactly the store's fingerprints, in store order; so the file and
    the matrix do not depend on the batch size or the parallelism.
    """
    cache_path = Path(cache_path)
    cache = EmbeddingCache.load(cache_path) if cache_path.exists() else EmbeddingCache()
    keys = [text_fingerprint(backend.model, p.text) for p in store]
    texts = dict(zip(keys, (p.text for p in store)))
    missing = [fp for fp in texts if fp not in cache.vectors]
    batches = [missing[i : i + EMBED_BATCH_SIZE] for i in range(0, len(missing), EMBED_BATCH_SIZE)]
    with ThreadPoolExecutor(max_workers=EMBED_PARALLELISM) as pool:
        results = pool.map(lambda batch: backend.embed([texts[fp] for fp in batch]), batches)
        for batch, vectors in zip(batches, results):
            cache.vectors.update(zip(batch, (np.asarray(v, dtype=np.float64) for v in vectors)))
    try:
        matrix = np.stack([cache.vectors[fp] for fp in keys])
    except ValueError:
        dims = sorted({cache.vectors[fp].size for fp in texts})
        raise RetrievalError(f"passage embeddings differ in dimension {dims} (cache {cache_path})") from None
    if missing or len(cache.vectors) > len(texts):
        cache.vectors = {fp: cache.vectors[fp] for fp in texts}
        cache.save(cache_path)
    return matrix


class DenseRetriever:
    """Cosine search over the cached passage vectors, kept only as one matrix in store order.

    The constructor embeds every passage missing from the cache at
    ``cache_path``; a zero vector on either side scores 0.0.
    """

    name = "dense"

    def __init__(self, backend, store: PassageStore, cache_path: str | Path):
        if len(store) == 0:
            raise RetrievalError("cannot build a dense retriever over an empty corpus")
        self.backend = backend
        self.matrix = precompute_embeddings(backend, store, cache_path)
        self.ids = store.ids
        self.norms = np.linalg.norm(self.matrix, axis=1)
        self.id_rank = _id_ranks(self.ids)

    def _ensure_cache(self) -> np.ndarray:
        return self.matrix

    def retrieve(self, query: str, k: int, query_id: str = "") -> CandidateList:
        if k <= 0:
            raise RetrievalError(f"k must be positive, got {k}")
        query_vec = np.asarray(self.backend.embed([query])[0], dtype=np.float64)
        if query_vec.shape != (self.matrix.shape[1],):
            raise RetrievalError(
                f"query embedding dimension {query_vec.shape[0]} does not match cache ({self.matrix.shape[1]})"
            )
        qnorm = float(np.linalg.norm(query_vec))
        sims = np.zeros(len(self.ids))
        if qnorm != 0.0:
            np.divide(self.matrix @ query_vec, self.norms * qnorm, out=sims, where=self.norms > 0.0)
        items = _top_k(self.ids, self.id_rank, sims, np.arange(len(self.ids)), k)
        return CandidateList(query_id=query_id, retriever="dense", items=items)
