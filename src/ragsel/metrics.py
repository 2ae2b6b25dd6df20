"""Evaluation metrics over pipeline traces.

Rank and presence metrics score the *selected* passages in output order;
relevance judgments come from gold passage ids when present, otherwise
from evidence-span matching over the candidate pool. Queries without the
gold data a metric needs are excluded from that metric's aggregate and
counted separately, never silently zeroed.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import INSUFFICIENT_MARKER, CorpusError, Passage, PassageStore, QuestionRecord, typed
from .files import decode, replace_atomically, write_json
from .pipeline import QueryTrace

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT = frozenset(string.punctuation)

HIT_MODES = ("any", "all")
PRECISION_DENOMINATORS = ("k", "returned")


class MetricsError(ValueError):
    pass


# --- rank metrics ---------------------------------------------------------


def mrr_at_k(ranked_ids: Sequence[str], relevant: Iterable[str], k: int = 10) -> float | None:
    """Reciprocal rank of the first relevant id within the top k; None when
    the relevant set is empty (query excluded)."""
    relevant = set(relevant)
    if not relevant:
        return None
    for position, pid in enumerate(ranked_ids[:k], start=1):
        if pid in relevant:
            return 1.0 / position
    return 0.0


def ndcg_at_k(ranked_ids: Sequence[str], relevant: Iterable[str], k: int = 10) -> float | None:
    """Binary-gain NDCG with 1/log2(pos+1) discounts; the ideal ranking
    fills the first min(|relevant|, k) positions."""
    relevant = set(relevant)
    if not relevant:
        return None
    dcg = 0.0
    for position, pid in enumerate(ranked_ids[:k], start=1):
        if pid in relevant:
            dcg += 1.0 / math.log2(position + 1)
    ideal = sum(1.0 / math.log2(position + 1) for position in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


def precision_recall_at_k(
    returned_ids: Sequence[str],
    relevant: Iterable[str],
    k: int = 5,
    denominator: str = "k",
) -> tuple[float, float] | None:
    """Precision/recall over the top min(k, len(returned)) ids.

    The precision denominator is fixed at k by default so short selections
    are not rewarded; ``denominator="returned"`` divides by the actual
    count instead.
    """
    if denominator not in PRECISION_DENOMINATORS:
        raise MetricsError(f"unknown precision denominator mode: {denominator!r}")
    relevant = set(relevant)
    if not relevant:
        return None
    top = list(returned_ids[:k])
    hits = sum(1 for pid in top if pid in relevant)
    if denominator == "k":
        precision = hits / k
    else:
        precision = hits / len(top) if top else 0.0
    recall = hits / len(relevant)
    return precision, recall


# --- evidence presence metrics --------------------------------------------


def _squash(text: str) -> str:
    return " ".join(text.lower().split())


def evidence_ranks(passage_texts: Sequence[str], evidence: Sequence[str]) -> list[int | None]:
    """For each distinct gold evidence span, the 1-based rank of the first
    passage that contains it (case- and whitespace-insensitive), or None
    when no passage does."""
    spans = [_squash(span) for span in dict.fromkeys(evidence)]
    if not all(spans):
        raise MetricsError("evidence span must be non-empty")
    texts = [_squash(text) for text in passage_texts]
    return [next((rank for rank, text in enumerate(texts, start=1) if span in text), None) for span in spans]


def info_coverage_at_k(ranks: Sequence[int | None], k: int) -> float | None:
    """Fraction of distinct gold evidence spans matched anywhere in the top
    k passages; a span matched by several passages counts once."""
    if not ranks:
        return None
    return sum(rank is not None and rank <= k for rank in ranks) / len(ranks)


def hit_at_k(ranks: Sequence[int | None], k: int, mode: str = "any") -> int | None:
    """1 when gold evidence appears in the top k passages.

    mode="any": at least one span matched; mode="all": every span matched.
    """
    if mode not in HIT_MODES:
        raise MetricsError(f"unknown hit mode: {mode!r}")
    if not ranks:
        return None
    found = [rank is not None and rank <= k for rank in ranks]
    return int(any(found) if mode == "any" else all(found))


# --- answer metrics --------------------------------------------------------


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop English articles, collapse
    whitespace. Idempotent."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def token_f1(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def qa_scores(prediction: str, golds: Sequence[str]) -> tuple[int, float] | None:
    """(exact match, best token F1) against any gold answer; None when the
    gold list is empty."""
    if not golds:
        return None
    norm_pred = normalize_answer(prediction)
    em = int(any(norm_pred == normalize_answer(g) for g in golds))
    f1 = max(token_f1(prediction, g) for g in golds)
    return em, f1


def _contains_token_run(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    n = len(needle)
    return any(list(haystack[i : i + n]) == list(needle) for i in range(len(haystack) - n + 1))


def containment_accuracy(prediction: str, gold: str) -> int:
    """1 when the normalized gold occurs as a contiguous token run inside
    the normalized prediction, or both equal the insufficient marker."""
    norm_pred = normalize_answer(prediction)
    norm_gold = normalize_answer(gold)
    marker = normalize_answer(INSUFFICIENT_MARKER)
    if norm_pred == marker and norm_gold == marker:
        return 1
    if not norm_gold:
        return int(norm_pred == norm_gold)
    return int(_contains_token_run(norm_pred.split(), norm_gold.split()))


# --- relevance judgments ----------------------------------------------------


@dataclass(frozen=True)
class RelevanceJudgment:
    relevant_ids: frozenset[str]
    source: str  # "gold_ids" | "evidence" | "none"


def judge_relevance(question: QuestionRecord, candidates: Sequence[Passage]) -> RelevanceJudgment:
    """Relevant ids from gold_passage_ids when present, otherwise evidence
    matching over the candidate pool."""
    if question.gold_passage_ids:
        return RelevanceJudgment(frozenset(question.gold_passage_ids), "gold_ids")
    if question.evidence:
        relevant = frozenset(p.id for p in candidates if any(evidence_ranks([p.text], question.evidence)))
        return RelevanceJudgment(relevant, "evidence")
    return RelevanceJudgment(frozenset(), "none")


# --- trace evaluation --------------------------------------------------------


@dataclass(frozen=True)
class MetricsConfig:
    hit_mode: str = "any"
    precision_denominator: str = "k"
    rank_k: int = 10
    pr_k: int = 5
    max_k: int = 10

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricReport:
    config: dict
    counts: dict
    fallback_rate: float | None
    efficiency: dict
    aggregate: dict
    per_query: list[dict]

    def to_dict(self) -> dict:
        return {"schema_version": 1, **vars(self)}

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "MetricReport":
        """A saved report; MetricsError unless each field has the type ``evaluate_traces`` gives it."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                record = decode(fh.read())
                typed(record, "per_query", list, dict)
                for name in ("config", "counts", "efficiency", "aggregate"):
                    typed(record, name, dict)
                entries = record["aggregate"].values()
                means = [record["fallback_rate"], *record["efficiency"].values(), *(e["mean"] for e in entries)]
                if not all(m is None or type(m) in (int, float) and math.isfinite(m) for m in means):
                    raise ValueError("a mean or rate is not a finite number")
                if any(type(e["count"]) is not int for e in entries):
                    raise TypeError("a count is not an integer")
                return cls(**{f.name: record[f.name] for f in fields(cls)})
            except (ValueError, KeyError, TypeError) as exc:
                raise MetricsError(f"{path}: not a metrics report: {type(exc).__name__}: {exc}") from None


def metric_names(config: MetricsConfig) -> list[str]:
    names = [
        f"mrr@{config.rank_k}",
        f"ndcg@{config.rank_k}",
        f"precision@{config.pr_k}",
        f"recall@{config.pr_k}",
        "em",
        "f1",
        "accuracy",
    ]
    names += [f"hit@{k}" for k in range(1, config.max_k + 1)]
    names += [f"ic@{k}" for k in range(1, config.max_k + 1)]
    return names


def evaluate_trace(
    trace: QueryTrace, store: PassageStore, config: MetricsConfig = MetricsConfig()
) -> dict:
    """Metric row for a single trace; ineligible metrics are None."""
    row: dict = {"id": trace.question.id}
    if trace.error is not None:
        row["error"] = trace.error
        return row

    def passage(pid: str) -> Passage:
        try:
            return store.get(pid)
        except CorpusError:
            raise MetricsError(f"query {trace.question.id}: passage {pid!r} is not in the corpus") from None

    candidates = [passage(pid) for pid in trace.candidates.ids] if trace.candidates else []
    judgment = judge_relevance(trace.question, candidates)
    row["judgment_source"] = judgment.source
    ranked = trace.selected_ids
    ranks = evidence_ranks([passage(pid).text for pid in ranked], trace.question.evidence)
    relevant = judgment.relevant_ids
    row[f"mrr@{config.rank_k}"] = mrr_at_k(ranked, relevant, config.rank_k)
    row[f"ndcg@{config.rank_k}"] = ndcg_at_k(ranked, relevant, config.rank_k)
    pr = precision_recall_at_k(ranked, relevant, config.pr_k, config.precision_denominator)
    row[f"precision@{config.pr_k}"] = pr[0] if pr else None
    row[f"recall@{config.pr_k}"] = pr[1] if pr else None
    for k in range(1, config.max_k + 1):
        row[f"hit@{k}"] = hit_at_k(ranks, k, config.hit_mode)
        row[f"ic@{k}"] = info_coverage_at_k(ranks, k)
    qa = qa_scores(trace.answer, trace.question.gold_answers)
    row["em"] = qa[0] if qa else None
    row["f1"] = qa[1] if qa else None
    if trace.question.gold_answers:
        row["accuracy"] = max(containment_accuracy(trace.answer, g) for g in trace.question.gold_answers)
    else:
        row["accuracy"] = None
    row["fallback"] = trace.selection.fallback_applied if trace.selection else None
    row["selected_count"] = len(trace.selected_ids) if trace.selection else None
    row["selector_completion_tokens"] = (
        trace.selection.usage.completion_tokens if trace.selection else None
    )
    row["generator_prompt_tokens"] = (
        trace.generation_usage.prompt_tokens if trace.generation_usage else None
    )
    return row


def _mean_entry(rows: Sequence[dict], name: str) -> dict:
    """Mean and count of ``name`` over the rows where it is defined."""
    values = [row[name] for row in rows if row.get(name) is not None]
    return {"mean": sum(values) / len(values) if values else None, "count": len(values)}


def evaluate_traces(
    traces: Sequence[QueryTrace],
    store: PassageStore,
    config: MetricsConfig = MetricsConfig(),
) -> MetricReport:
    if not traces:
        raise MetricsError("no traces to evaluate")
    rows = [evaluate_trace(t, store, config) for t in traces]
    ok_rows = [r for r in rows if "error" not in r]
    counts = {
        "queries": len(traces),
        "errors": sum(1 for r in rows if "error" in r),
        "no_candidates": sum(1 for t in traces if t.no_candidates),
        "excluded_rank": sum(1 for r in ok_rows if r.get(f"mrr@{config.rank_k}") is None),
        "excluded_evidence": sum(1 for r in ok_rows if r.get("hit@1") is None),
        "excluded_answer": sum(1 for r in ok_rows if r.get("em") is None),
    }
    efficiency = {
        f"mean_{name}": _mean_entry(ok_rows, name)["mean"]
        for name in ("selector_completion_tokens", "generator_prompt_tokens", "selected_count")
    }
    return MetricReport(
        config=config.to_dict(),
        counts=counts,
        fallback_rate=_mean_entry(ok_rows, "fallback")["mean"],
        efficiency=efficiency,
        aggregate={name: _mean_entry(ok_rows, name) for name in metric_names(config)},
        per_query=rows,
    )


def write_plot_data(report: MetricReport, out_dir: str | Path) -> list[Path]:
    """Plain columnar exports: k vs hit@k and k vs ic@k."""
    written = []
    max_k = report.config.get("max_k", 10)
    for stem, prefix in (("hit_at_k", "hit@"), ("ic_at_k", "ic@")):
        path = Path(out_dir) / f"{stem}.tsv"
        with replace_atomically(path) as fh:
            fh.write(f"k\t{prefix}k\n")
            for k in range(1, max_k + 1):
                entry = report.aggregate.get(f"{prefix}{k}", {"mean": None})
                mean = entry["mean"]
                fh.write(f"{k}\t{'' if mean is None else repr(mean)}\n")
        written.append(path)
    return written
