"""Brute-force references the benchmark checks ragsel's retrieval against.

Both scan every passage and repeat ragsel's arithmetic in the same order,
so candidate ids must match exactly and scores to 1e-9.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import scripted

_WORD_RE = re.compile(r"\w+")
K1, B = 1.2, 0.75  # ragsel.build_index defaults


def _terms(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


class Bm25Reference:
    """BM25 over the passages, counting only the terms it is asked about."""

    def __init__(self, passages, queries):
        wanted = {t for q in queries for t in _terms(q)}
        self.ids: list[str] = []
        self.lengths: list[int] = []
        self.tf: dict[str, list[tuple[int, int]]] = {t: [] for t in wanted}
        for row, passage in enumerate(passages):
            terms = _terms(passage.text)
            self.ids.append(passage.id)
            self.lengths.append(len(terms))
            for term, n in Counter(t for t in terms if t in wanted).items():
                self.tf[term].append((row, n))
        self.avg_length = sum(self.lengths) / len(self.lengths)

    def postings(self, query: str) -> int:
        """Postings a term-at-a-time search must visit for this query."""
        return sum(len(self.tf[t]) for t in dict.fromkeys(_terms(query)))

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        n = len(self.ids)
        scores: dict[int, float] = {}
        for term in dict.fromkeys(_terms(query)):
            plist = self.tf[term]
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for row, tf in plist:
                norm = 1.0 - B + B * self.lengths[row] / self.avg_length
                scores[row] = scores.get(row, 0.0) + idf * tf * (K1 + 1.0) / (tf + K1 * norm)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], self.ids[item[0]]))
        return [(self.ids[row], s) for row, s in ranked[:k]]


class CosineReference:
    """Cosine similarity against the scripted embedding of every passage."""

    def __init__(self, passages):
        self.ids: list[str] = []
        self.vectors: list[dict[int, float]] = []
        self.norms: list[float] = []
        for passage in passages:
            vec = scripted.embed_text(passage.text)
            sparse = {i: v for i, v in enumerate(vec) if v}
            self.ids.append(passage.id)
            self.vectors.append(sparse)
            self.norms.append(math.sqrt(sum(v * v for v in sparse.values())))

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        q = {i: v for i, v in enumerate(scripted.embed_text(query)) if v}
        qnorm = math.sqrt(sum(v * v for v in q.values()))
        scores = []
        for pid, vec, norm in zip(self.ids, self.vectors, self.norms):
            if qnorm == 0.0 or norm == 0.0:
                score = 0.0
            else:
                score = sum(v * vec.get(i, 0.0) for i, v in q.items()) / (norm * qnorm)
            scores.append((pid, score))
        scores.sort(key=lambda item: (-item[1], item[0]))
        return scores[:k]


def compare(expected: list[tuple[str, float]], candidates) -> str | None:
    """None when ids match exactly and scores to 1e-9, else a description."""
    got = [(c.passage_id, c.score) for c in candidates.items]
    if [pid for pid, _ in got] != [pid for pid, _ in expected]:
        return f"ids differ: got {[p for p, _ in got][:5]}..., expected {[p for p, _ in expected][:5]}..."
    worst = max((abs(a - b) for (_, a), (_, b) in zip(got, expected)), default=0.0)
    if worst > 1e-9:
        return f"scores differ by up to {worst:.3g}"
    return None
