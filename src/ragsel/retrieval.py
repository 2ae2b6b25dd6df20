"""First-stage retrieval: lexical BM25 and dense cosine search.

The BM25 variant is pinned:

    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))
    score   = sum over distinct query terms of
              idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avglen))

with k1=1.2, b=0.75 by default. idf is strictly positive for every indexed
term, so zero-score passages are exactly those sharing no term with the
query.

How ``build_index`` counts: each passage is split once on whitespace, and
each distinct piece is analyzed once, when first seen, so term ids follow
first occurrence. That gives the text's own terms because no code point
is both a word character and whitespace, and lowercasing's one context
rule, final sigma, never looks across whitespace. Each piece's term ids
go to one flat table, so a piece with one term, several or none costs
one dict lookup, and numpy gathers the ids. Per block of passages,
``np.unique`` over (term id, row) keys yields each posting's tf, appended
to int32 columns; one stable sort by term then gives every term's rows in
ascending order. idf and the impacts are computed in the scalar formula's
operation order, so they equal it bit for bit.
"""

from __future__ import annotations

import array
import itertools
import json
import math
import re
import tokenize
import zipfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import PassageStore, typed
from .files import decode, replace_atomically
from .gateway import text_fingerprint

_WORD_RE = re.compile(r"\w+", re.UNICODE)
# passages counted per np.unique call: it bounds the Python lists of term ids held at once
_BLOCK = 256


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


class Candidate(NamedTuple):
    passage_id: str
    score: float


@dataclass
class CandidateList:
    """Ranked first-stage candidates for one query: ``ids[i]`` scored ``scores[i]``."""

    query_id: str
    retriever: str
    ids: list[str]
    scores: list[float]

    @property
    def items(self) -> list[Candidate]:  # bench/reference.py reads this; it goes with ROADMAP F's harness edit
        return list(map(Candidate, self.ids, self.scores))

    def __len__(self) -> int:
        return len(self.ids)

    def to_dict(self) -> dict:
        items = [{"id": pid, "score": score} for pid, score in zip(self.ids, self.scores)]
        return {"query_id": self.query_id, "retriever": self.retriever, "items": items}

    @classmethod
    def from_dict(cls, record: dict) -> "CandidateList":
        """Read a ``to_dict`` record by ``corpus.typed``'s rule: each item a string ``id`` and a float ``score``."""
        items = typed(record, "items", list, dict)
        ids, scores = [i["id"] for i in items], [i["score"] for i in items]
        if any(type(pid) is not str for pid in ids) or any(type(score) is not float for score in scores):
            raise TypeError("field 'items' has the wrong type")
        return cls(typed(record, "query_id", str), typed(record, "retriever", str), ids, scores)


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
) -> tuple[list[str], list[float]]:
    """The ids and scores of the k best ``rows`` by descending score, ties by ascending id."""
    if len(rows) > k:  # keep every row tied at the k-th score
        rows = rows[scores[rows] >= np.partition(scores[rows], -k)[-k]]
    order = rows[np.lexsort((id_rank[rows], -scores[rows]))[:k]]
    return [ids[row] for row in order.tolist()], scores[order].tolist()


def _csr_slices(terms: Sequence[str], offsets: np.ndarray) -> dict[str, slice]:
    return dict(zip(terms, map(slice, offsets[:-1].tolist(), offsets[1:].tolist())))


def _postings(
    store: PassageStore, analyzer: AnalyzerConfig, vocab: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The term id, row and tf of every posting as int32 arrays, ordered by
    block, then term, then row; and each passage's term count. ``vocab``
    gives each new term the next id."""
    memo: dict[str, int] = {}  # whitespace piece -> its number, in first-seen order
    # piece i's term ids are piece_terms[bounds[i] : bounds[i + 1]]
    bounds, piece_terms = array.array("q", [0]), array.array("q")
    passages = list(store)
    lengths = np.empty(len(passages), dtype=np.int64)
    # one buffer per column, grown in place: per-block arrays kept to the end
    # would be interleaved with each block's temporaries and fragment the heap
    columns = array.array("i"), array.array("i"), array.array("i")
    for start in range(0, len(passages), _BLOCK):
        pieces = [p.text.split() for p in passages[start : start + _BLOCK]]
        flat = list(itertools.chain.from_iterable(pieces))
        # the filter reads ``memo`` as it grows: each new piece is analyzed at
        # its first occurrence, so ids go to terms in first-seen order
        for piece in itertools.filterfalse(memo.__contains__, flat):
            memo[piece] = len(memo)
            piece_terms.extend([vocab[term] for term in analyze(piece, analyzer)])
            bounds.append(len(piece_terms))
        numbers = np.fromiter(map(memo.__getitem__, flat), np.int64, len(flat))
        # each view of a table is indexed at once and dropped: a live view stops the table growing
        first = np.frombuffer(bounds, np.int64)[numbers]
        sizes = np.frombuffer(bounds, np.int64)[numbers + 1] - first
        m = len(pieces)
        # each term's row in the block: its piece's passage, repeated per term of the piece
        block_rows = np.repeat(np.repeat(np.arange(m), list(map(len, pieces))), sizes)
        lengths[start : start + m] = np.bincount(block_rows, minlength=m)
        # each term's place in piece_terms: its piece's first place plus its rank in the piece
        at = np.repeat(first - np.cumsum(sizes) + sizes, sizes) + np.arange(len(block_rows))
        # one key per (term, row in block): sorting the keys groups each term's rows in order
        keys = np.frombuffer(piece_terms, np.int64)[at] * m
        keys += block_rows
        keys, tf = np.unique(keys, return_counts=True)
        terms, rows = np.divmod(keys, m)
        for column, values in zip(columns, (terms, rows + start, tf)):
            column.frombytes(values.astype(np.int32).tobytes())
    terms, rows, tf = (np.frombuffer(column, dtype=np.int32) for column in columns)
    return terms, rows, tf, lengths


def build_index(
    store: PassageStore,
    analyzer: AnalyzerConfig = AnalyzerConfig(),
    k1: float = 1.2,
    b: float = 0.75,
) -> Bm25Index:
    if len(store) == 0:
        raise RetrievalError("cannot build an index over an empty corpus")
    if not 0 < k1 < math.inf:
        raise RetrievalError(f"k1 must be finite and > 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise RetrievalError(f"b must be in [0, 1], got {b}")
    vocab: dict[str, int] = defaultdict(itertools.count().__next__)  # term -> id, first seen first
    # the piece memo is gone once _postings returns; each array below is freed when done with
    terms, rows, tf, lengths = _postings(store, analyzer, vocab)
    # group the postings by term; the stable sort keeps each term's rows ascending
    order = np.argsort(terms, kind="stable")
    df = np.bincount(terms, minlength=len(vocab))
    del terms
    rows = rows[order]
    tf = tf[order]
    del order
    n = len(lengths)
    # math.log, not np.log, so each idf rounds as the scalar formula does
    idf = np.array(list(map(math.log, (1.0 + (n - df + 0.5) / (df + 0.5)).tolist())))
    # the scalar formula's operation order, in place, so impacts match it bit for bit
    norm = lengths.astype(np.float64)[rows]
    norm *= b
    norm /= int(lengths.sum()) / n
    norm += 1.0 - b
    norm *= k1
    norm += tf
    impacts = np.repeat(idf, df)
    impacts *= tf
    impacts *= k1 + 1.0
    impacts /= norm
    del norm, tf
    offsets = np.concatenate(([0], np.cumsum(df)))
    return Bm25Index(store.ids, _csr_slices(list(vocab), offsets), rows, impacts, k1, b, analyzer, store.digest())


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
    return CandidateList(query_id, "bm25", *_top_k(index.ids, index.id_rank, scores, np.flatnonzero(touched), k))


# what np.load and the checks after it raise for a damaged or foreign .npz: a damaged zip directory also
# raises NotImplementedError, RuntimeError ("zip file version 9.9", "is encrypted") or OSError (a seek out
# of range); a damaged member .npy header length raises tokenize.TokenError from numpy's Python 2 filter
_NPZ_ERRORS = (ValueError, KeyError, TypeError, AttributeError, EOFError, RuntimeError, OSError, zipfile.BadZipFile,
               tokenize.TokenError)


def _header_bytes(header: dict) -> np.ndarray:
    # nothing files.decode refuses; unescaped non-ASCII also decodes faster than \u escapes
    return np.frombuffer(json.dumps(header, allow_nan=False, ensure_ascii=False).encode("utf-8"), dtype=np.uint8)


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Write one uncompressed .npz: the CSR arrays plus a JSON header."""
    header = dict(format="ragsel-bm25-index", version=3, k1=index.k1, b=index.b, analyzer=index.analyzer.to_dict(),
                  digest=index.digest, ids=index.ids, terms=list(index.terms))
    offsets = np.array([0] + [span.stop for span in index.terms.values()])
    # np.savez appends ".npz" to a path name; a file handle keeps the path as given
    with replace_atomically(path, "wb") as fh:
        np.savez(fh, header=_header_bytes(header), rows=index.rows, impacts=index.impacts, offsets=offsets)


def load_index(path: str | Path) -> Bm25Index:
    """Read a save_index file; any other file raises RetrievalError."""
    fh = open(path, "rb")  # a file that cannot be opened raises open's OSError, which names it
    try:
        with fh, np.load(fh, allow_pickle=False) as npz:
            header = decode(npz["header"].tobytes().decode("utf-8"))
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
    except _NPZ_ERRORS as exc:
        raise RetrievalError(f"{path}: not a BM25 index file") from exc


class Bm25Retriever:
    name = "bm25"

    def __init__(self, index: Bm25Index):
        self.index = index

    def retrieve(self, query: str, k: int, query_id: str = "") -> CandidateList:
        return search(self.index, query, k, query_id=query_id)


# --- dense retrieval ---------------------------------------------------


class EmbeddingCache:
    """Passage embeddings: row i of ``matrix`` is the vector of the text whose
    ``gateway.text_fingerprint(model, text)`` is ``fingerprints[i]``, so an edited
    text or another model is a miss, never a stale hit. On disk, one uncompressed
    .npz holds a JSON header, each fingerprint as its 32 digest bytes, and the matrix.
    """

    def __init__(self, model: str, fingerprints: list[str], matrix: np.ndarray):
        self.model, self.fingerprints, self.matrix = model, fingerprints, matrix

    def save(self, path: str | Path) -> None:
        header = dict(format="ragsel-embeddings", version=1, model=self.model, dim=self.matrix.shape[1])
        digests = np.frombuffer(bytes.fromhex("".join(self.fingerprints)), dtype=np.uint8).reshape(-1, 32)
        with replace_atomically(path, "wb") as fh:  # a handle, as in save_index: the name stays as given
            np.savez(fh, header=_header_bytes(header), fingerprints=digests, matrix=self.matrix)

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingCache":
        """Read a save file; any other file, a JSONL cache of earlier versions too, raises RetrievalError."""
        fh = open(path, "rb")  # as in load_index: a file that cannot be opened raises open's OSError
        try:
            with fh, np.load(fh, allow_pickle=False) as npz:
                header = decode(npz["header"].tobytes().decode("utf-8"))
                digests, matrix = npz["fingerprints"], npz["matrix"]
            if not (
                (header["format"], header["version"]) == ("ragsel-embeddings", 1)
                and isinstance(header["model"], str)
                and digests.dtype == np.uint8 and matrix.dtype == np.float64 and matrix.ndim == 2
                and digests.shape == (matrix.shape[0], 32) and matrix.shape[1] == header["dim"] >= 1
                and np.isfinite(matrix).all()
            ):
                raise ValueError("inconsistent embedding arrays")
        except _NPZ_ERRORS as exc:
            raise RetrievalError(f"{path}: not an embedding cache; delete it and the next command rebuilds it") from exc
        hexes = digests.tobytes().hex()
        return cls(header["model"], [hexes[i : i + 64] for i in range(0, len(hexes), 64)], matrix)


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
    cache = EmbeddingCache.load(cache_path) if cache_path.exists() else EmbeddingCache(backend.model, [], np.empty(0))
    keys = [text_fingerprint(backend.model, p.text) for p in store]
    if cache.fingerprints == keys:
        return cache.matrix  # as loaded: no copy
    texts = dict(zip(keys, (p.text for p in store)))
    vectors = dict(zip(cache.fingerprints, cache.matrix))
    missing = [fp for fp in texts if fp not in vectors]
    batches = [missing[i : i + EMBED_BATCH_SIZE] for i in range(0, len(missing), EMBED_BATCH_SIZE)]
    with ThreadPoolExecutor(max_workers=EMBED_PARALLELISM) as pool:
        results = pool.map(lambda batch: backend.embed([texts[fp] for fp in batch]), batches)
        for batch, embedded in zip(batches, results):
            vectors.update(zip(batch, (np.asarray(v, dtype=np.float64) for v in embedded)))
    try:
        matrix = np.stack([vectors[fp] for fp in keys])
    except ValueError:
        dims = sorted({vectors[fp].size for fp in texts})
        raise RetrievalError(f"passage embeddings differ in dimension {dims} (cache {cache_path})") from None
    if missing or len(vectors) > len(texts):
        rows = matrix if len(texts) == len(keys) else np.stack([vectors[fp] for fp in texts])
        EmbeddingCache(backend.model, list(texts), rows).save(cache_path)
    return matrix


class DenseRetriever:
    """Cosine search over the cached passage vectors, kept only as one matrix in store order.

    The constructor embeds every passage missing from the cache at ``cache_path``; a zero vector
    on either side scores 0.0. Queries are scored on the calling thread, never on BLAS's threads.
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
        if qnorm != 0.0:  # einsum sums on this thread; BLAS's threaded gemv leaves a worker spinning a CPU
            np.divide(np.einsum("ij,j", self.matrix, query_vec), self.norms * qnorm, out=sims, where=self.norms > 0.0)
        return CandidateList(query_id, "dense", *_top_k(self.ids, self.id_rank, sims, np.arange(len(self.ids)), k))
