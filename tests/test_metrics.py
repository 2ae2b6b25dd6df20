"""Tests for evaluation metrics.

Expected values are hand-derived and frozen as constants; randomized loops
cross-check rank metrics against brute-force re-implementations.
"""

import math
import random

import pytest

from ragsel.corpus import Passage, PassageStore, QuestionRecord
from ragsel.gateway import Usage
from ragsel.metrics import (
    MetricReport,
    MetricsConfig,
    MetricsError,
    containment_accuracy,
    evaluate_trace,
    evaluate_traces,
    evidence_ranks,
    hit_at_k,
    info_coverage_at_k,
    judge_relevance,
    mrr_at_k,
    ndcg_at_k,
    normalize_answer,
    precision_recall_at_k,
    qa_scores,
    token_f1,
    write_plot_data,
)
from ragsel.pipeline import QueryTrace
from ragsel.retrieval import CandidateList
from ragsel.selection import SelectionOutcome, Strategy

# Single relevant id ranked second: DCG = 1/log2(3), ideal = 1/log2(2) = 1.
NDCG_RELEVANT_AT_2 = 1.0 / math.log2(3)


def question(qid, text="q", golds=(), evidence=(), gold_ids=()):
    return QuestionRecord(
        id=qid,
        question=text,
        gold_answers=tuple(golds),
        evidence=tuple(evidence),
        gold_passage_ids=tuple(gold_ids),
    )


# --- rank metrics ------------------------------------------------------------


def test_mrr_positions():
    assert mrr_at_k(["a", "b", "c"], {"a"}) == 1.0
    assert mrr_at_k(["a", "b", "c"], {"c"}) == pytest.approx(1 / 3)
    assert mrr_at_k(["a", "b", "c"], {"z"}) == 0.0
    assert mrr_at_k([], {"a"}) == 0.0
    assert mrr_at_k(["a"], set()) is None


def test_mrr_respects_cutoff():
    ranked = [f"p{i}" for i in range(1, 15)]
    assert mrr_at_k(ranked, {"p11"}, k=10) == 0.0
    assert mrr_at_k(ranked, {"p11"}, k=11) == pytest.approx(1 / 11)


def test_ndcg_single_relevant_at_two():
    value = ndcg_at_k(["x", "rel", "y"], {"rel"})
    assert value == pytest.approx(NDCG_RELEVANT_AT_2, abs=1e-12)
    assert value == pytest.approx(0.6309297535714574, abs=1e-12)


def test_ndcg_perfect_and_empty():
    assert ndcg_at_k(["a", "b"], {"a", "b"}) == pytest.approx(1.0)
    assert ndcg_at_k([], {"a"}) == 0.0
    assert ndcg_at_k(["a"], set()) is None


def test_ndcg_ideal_caps_at_k():
    # ten relevant ids but k=2: ideal uses only the first two positions
    relevant = {f"r{i}" for i in range(10)}
    value = ndcg_at_k(["r0", "x"], relevant, k=2)
    ideal = 1 / math.log2(2) + 1 / math.log2(3)
    assert value == pytest.approx((1 / math.log2(2)) / ideal, abs=1e-12)


def test_precision_recall_fixed_denominator():
    pr = precision_recall_at_k(["a", "b", "c"], {"a", "c", "x", "y"}, k=5)
    assert pr == (pytest.approx(0.4), pytest.approx(0.5))


def test_precision_returned_denominator():
    pr = precision_recall_at_k(
        ["a", "b", "c"], {"a", "c", "x", "y"}, k=5, denominator="returned"
    )
    assert pr == (pytest.approx(2 / 3), pytest.approx(0.5))


def test_precision_recall_edges():
    assert precision_recall_at_k([], {"a"}, k=5) == (0.0, 0.0)
    assert precision_recall_at_k(["a"], set(), k=5) is None
    with pytest.raises(MetricsError):
        precision_recall_at_k(["a"], {"a"}, denominator="bogus")


def brute_mrr(ranked, relevant, k):
    for i in range(min(k, len(ranked))):
        if ranked[i] in relevant:
            return 1.0 / (i + 1)
    return 0.0


def brute_ndcg(ranked, relevant, k):
    dcg = sum(
        1.0 / math.log2(i + 2) for i in range(min(k, len(ranked))) if ranked[i] in relevant
    )
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(relevant), k)))
    return dcg / idcg


def test_rank_metrics_match_brute_force():
    rng = random.Random(20240211)
    for _ in range(400):
        ids = [f"p{i}" for i in range(rng.randint(1, 20))]
        rng.shuffle(ids)
        relevant = set(rng.sample(ids, rng.randint(1, min(8, len(ids)))))
        k = rng.randint(1, 12)
        assert mrr_at_k(ids, relevant, k) == pytest.approx(brute_mrr(ids, relevant, k), abs=1e-12)
        assert ndcg_at_k(ids, relevant, k) == pytest.approx(
            brute_ndcg(ids, relevant, k), abs=1e-12
        )


# --- evidence metrics ---------------------------------------------------------


def test_evidence_match_normalization():
    assert evidence_ranks(["The  Quick\nBrown Fox"], ["quick brown"]) == [1]
    assert evidence_ranks(["plain words"], ["PLAIN WORDS"]) == [1]
    assert evidence_ranks(["plain words"], ["missing"]) == [None]
    with pytest.raises(MetricsError):
        evidence_ranks(["text"], ["   "])


def test_evidence_ranks_first_match_per_distinct_span():
    texts = ["nothing", "beta here", "alpha and beta"]
    assert evidence_ranks(texts, ["alpha", "beta", "alpha", "gamma"]) == [3, 2, None]
    assert evidence_ranks([], ["alpha"]) == [None]
    assert evidence_ranks(texts, []) == []
    # an empty span is rejected even when there are no passages to match
    with pytest.raises(MetricsError):
        evidence_ranks([], ["alpha", " "])


def test_info_coverage_overlap_counts_once():
    texts = ["has alpha and beta", "has beta only", "has gamma"]
    spans = ["alpha", "beta", "gamma"]
    assert info_coverage_at_k(evidence_ranks(texts, spans), 1) == pytest.approx(2 / 3)
    assert info_coverage_at_k(evidence_ranks(texts, spans), 2) == pytest.approx(2 / 3)
    assert info_coverage_at_k(evidence_ranks(texts, spans), 3) == pytest.approx(1.0)
    assert info_coverage_at_k(evidence_ranks(texts, []), 3) is None


def test_info_coverage_partial_then_full():
    # one span in the top passage, a second appears at rank 2
    texts = ["alpha here", "beta here", "nothing"]
    spans = ["alpha", "beta", "gamma"]
    assert info_coverage_at_k(evidence_ranks(texts, spans), 1) == pytest.approx(1 / 3)
    assert info_coverage_at_k(evidence_ranks(texts, spans), 2) == pytest.approx(2 / 3)
    assert info_coverage_at_k(evidence_ranks(texts, spans), 9) == pytest.approx(2 / 3)


def test_info_coverage_duplicate_spans_deduped():
    texts = ["alpha"]
    assert info_coverage_at_k(evidence_ranks(texts, ["alpha", "alpha"]), 1) == pytest.approx(1.0)


def test_hit_modes():
    texts = ["alpha here", "beta here"]
    spans = ["alpha", "beta", "gamma"]
    assert hit_at_k(evidence_ranks(texts, spans), 1, "any") == 1
    assert hit_at_k(evidence_ranks(texts, spans), 2, "any") == 1
    assert hit_at_k(evidence_ranks(["nothing"], spans), 1, "any") == 0
    assert hit_at_k(evidence_ranks(texts, spans), 2, "all") == 0
    assert hit_at_k(evidence_ranks(texts, ["alpha", "beta"]), 2, "all") == 1
    assert hit_at_k(evidence_ranks(texts, []), 2) is None
    with pytest.raises(MetricsError):
        hit_at_k(evidence_ranks(texts, spans), 1, "most")


def test_hit_and_coverage_monotone_in_k():
    rng = random.Random(77)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(300):
        texts = [" ".join(rng.sample(vocab, 5)) for _ in range(rng.randint(1, 10))]
        spans = rng.sample(vocab, rng.randint(1, 4))
        prev_hit, prev_ic = 0, 0.0
        for k in range(1, len(texts) + 2):
            hit = hit_at_k(evidence_ranks(texts, spans), k)
            ic = info_coverage_at_k(evidence_ranks(texts, spans), k)
            assert hit >= prev_hit
            assert ic >= prev_ic - 1e-15
            prev_hit, prev_ic = hit, ic


# Reference definitions with no shared work: each k checks every distinct
# span against each of the top k passages. evaluate_trace must agree exactly.


def reference_match(passage_text, span):
    span_norm = " ".join(span.lower().split())
    if not span_norm:
        raise MetricsError("evidence span must be non-empty")
    return span_norm in " ".join(passage_text.lower().split())


def reference_matched(texts, spans):
    return {i for i, span in enumerate(spans) if any(reference_match(t, span) for t in texts)}


def reference_ic(texts, evidence, k):
    spans = list(dict.fromkeys(evidence))
    return len(reference_matched(texts[:k], spans)) / len(spans) if spans else None


def reference_hit(texts, evidence, k, mode):
    spans = list(dict.fromkeys(evidence))
    if not spans:
        return None
    matched = reference_matched(texts[:k], spans)
    return int(bool(matched)) if mode == "any" else int(len(matched) == len(spans))


def reference_relevant(evidence, candidates):
    return {p.id for p in candidates if any(reference_match(p.text, span) for span in evidence)}


def test_evidence_scores_equal_the_reference_definitions():
    rng = random.Random(8)
    words = ["alpha", "Beta", "gamma", "DELTA", "eps"]
    # spans that differ from each other only in case or whitespace
    variants = ["alpha beta", "Alpha  Beta", "ALPHA\tbeta", "gamma", "GAMMA", "delta eps", "zeta"]

    def text():
        return "".join(rng.choice(words) + rng.choice([" ", "  ", "\n"]) for _ in range(rng.randint(1, 9)))

    for trial in range(400):
        passages = [Passage(id=f"p{i}", doc_id="d", text=text()) for i in range(rng.randint(0, 8))]
        evidence = tuple(rng.choices(variants, k=rng.randint(0, 5)))  # duplicates included
        if trial % 5 == 0 and passages:  # one span matched by several passages
            evidence += (passages[0].text.split()[0],) * 2
            passages.append(Passage(id="px", doc_id="d", text=passages[0].text.upper()))
        store = PassageStore(passages)
        ids = [p.id for p in passages]
        selected = rng.sample(ids, rng.randint(0, len(ids)))
        texts = [store.get(pid).text for pid in selected]
        trace = QueryTrace(
            question=question("q", golds=("x",), evidence=evidence),
            candidates=CandidateList("q", "bm25", ids, [1.0] * len(ids)),
            selection=outcome(range(1, len(selected) + 1)),
            selected_ids=selected,
            answer="x",
        )
        for mode in ("any", "all"):
            cfg = MetricsConfig(hit_mode=mode, max_k=10)  # k runs past every selection
            row = evaluate_trace(trace, store, cfg)
            for k in range(1, 11):
                assert row[f"hit@{k}"] == reference_hit(texts, evidence, k, mode)
                assert row[f"ic@{k}"] == reference_ic(texts, evidence, k)
        judgment = judge_relevance(trace.question, passages)
        assert judgment.relevant_ids == (reference_relevant(evidence, passages) if evidence else set())


# --- answer metrics ------------------------------------------------------------


def test_normalize_answer_examples():
    assert normalize_answer("The Cat!") == "cat"
    assert normalize_answer("An  apple, a day.") == "apple day"
    assert normalize_answer("THE THE the") == ""
    assert normalize_answer("it's") == "its"


def test_normalize_answer_idempotent_on_random_text():
    rng = random.Random(99)
    alphabet = "abc THE an!,.?'é漢 \t\n"
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        once = normalize_answer(s)
        assert normalize_answer(once) == once


def test_token_f1_examples():
    assert token_f1("blue whale", "whale") == pytest.approx(2 / 3)
    assert token_f1("whale", "whale") == pytest.approx(1.0)
    assert token_f1("walrus", "whale") == 0.0
    assert token_f1("", "") == 1.0
    assert token_f1("the", "a") == 1.0  # both normalize to empty
    assert token_f1("something", "") == 0.0


def test_token_f1_symmetric():
    rng = random.Random(5)
    words = ["red", "blue", "green", "whale", "cat"]
    for _ in range(200):
        a = " ".join(rng.choices(words, k=rng.randint(0, 5)))
        b = " ".join(rng.choices(words, k=rng.randint(0, 5)))
        assert token_f1(a, b) == pytest.approx(token_f1(b, a), abs=1e-12)


def test_qa_scores_best_gold():
    em, f1 = qa_scores("the Blue Whale", ["whale", "blue whale"])
    assert em == 1 and f1 == pytest.approx(1.0)
    em, f1 = qa_scores("blue fish", ["whale", "blue whale"])
    assert em == 0 and f1 == pytest.approx(0.5)
    assert qa_scores("anything", []) is None


def test_em_one_implies_f1_one():
    rng = random.Random(13)
    words = ["alpha", "beta", "gamma", "the", "an"]
    for _ in range(300):
        gold = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        golds = [gold, " ".join(rng.choices(words, k=2))]
        pred = gold.upper() if rng.random() < 0.5 else gold + "."
        em, f1 = qa_scores(pred, golds)
        if em == 1:
            assert f1 == pytest.approx(1.0)


def test_containment_accuracy():
    assert containment_accuracy("The answer is Paris Hilton.", "paris hilton") == 1
    assert containment_accuracy("Parisian nights", "Paris") == 0
    assert containment_accuracy("paris", "Paris") == 1
    assert containment_accuracy("insufficient information", "Insufficient Information") == 1
    assert containment_accuracy("no idea", "Insufficient Information") == 0
    assert containment_accuracy("the", "an") == 1  # both normalize empty
    assert containment_accuracy("word", "the") == 0


# --- relevance judgments --------------------------------------------------------


def make_candidates(*texts):
    return [Passage(id=f"c{i}", doc_id="d", text=t) for i, t in enumerate(texts, start=1)]


def test_judge_relevance_prefers_gold_ids():
    q = question("q1", evidence=("alpha",), gold_ids=("p7", "p9"))
    judgment = judge_relevance(q, make_candidates("alpha body"))
    assert judgment.source == "gold_ids"
    assert judgment.relevant_ids == {"p7", "p9"}


def test_judge_relevance_from_evidence():
    q = question("q1", evidence=("alpha", "beta"))
    judgment = judge_relevance(q, make_candidates("has ALPHA here", "nothing", "beta text"))
    assert judgment.source == "evidence"
    assert judgment.relevant_ids == {"c1", "c3"}


def test_judge_relevance_none():
    q = question("q1", golds=("ans",))
    judgment = judge_relevance(q, make_candidates("x"))
    assert judgment.source == "none" and judgment.relevant_ids == frozenset()


# --- trace evaluation ------------------------------------------------------------


def outcome(indices, fallback=False, completion_tokens=10):
    return SelectionOutcome(
        strategy=Strategy.REQUIREMENT_COT,
        indices=list(indices),
        raw_completion="### Final Selection: " + " ".join(f"[{i}]" for i in indices),
        reasoning="r",
        usage=Usage(100, completion_tokens),
        fallback_applied=fallback,
    )


def eval_fixture():
    store = PassageStore(
        [
            Passage(id="p1", doc_id="d1", text="alpha fact"),
            Passage(id="p2", doc_id="d1", text="beta fact"),
            Passage(id="p3", doc_id="d2", text="gamma fact"),
        ]
    )
    cands = CandidateList("q1", "bm25", ["p1", "p2", "p3"], [2.0, 1.0, 0.5])
    q = question(
        "q1",
        text="about alpha",
        golds=("beta",),
        evidence=("alpha", "beta"),
        gold_ids=("p2",),
    )
    trace = QueryTrace(
        question=q,
        candidates=cands,
        selection=outcome([2, 1], completion_tokens=12),
        selected_ids=["p2", "p1"],
        answer="beta",
        generation_usage=Usage(88, 3),
    )
    return store, trace


def test_evaluate_trace_row():
    store, trace = eval_fixture()
    row = evaluate_trace(trace, store)
    assert row["id"] == "q1"
    assert row["judgment_source"] == "gold_ids"
    assert row["mrr@10"] == pytest.approx(1.0)
    assert row["ndcg@10"] == pytest.approx(1.0)
    assert row["precision@5"] == pytest.approx(1 / 5)
    assert row["recall@5"] == pytest.approx(1.0)
    assert row["em"] == 1 and row["f1"] == pytest.approx(1.0)
    assert row["accuracy"] == 1
    # selected texts: beta fact, alpha fact; spans alpha+beta
    assert row["hit@1"] == 1
    assert row["ic@1"] == pytest.approx(1 / 2)
    assert row["ic@2"] == pytest.approx(1.0)
    assert row["fallback"] is False
    assert row["selected_count"] == 2
    assert row["selector_completion_tokens"] == 12
    assert row["generator_prompt_tokens"] == 88


def test_evaluate_trace_error_row():
    store, _ = eval_fixture()
    trace = QueryTrace(question=question("qe"), error="query qe: boom")
    row = evaluate_trace(trace, store)
    assert row == {"id": "qe", "error": "query qe: boom"}


def test_evaluate_traces_report():
    store, good = eval_fixture()
    no_gold = QueryTrace(
        question=question("q2", text="plain"),
        candidates=CandidateList("q2", "bm25", ["p3"], [1.0]),
        selection=outcome([1], fallback=True, completion_tokens=20),
        selected_ids=["p3"],
        answer="whatever",
        generation_usage=Usage(40, 2),
    )
    errored = QueryTrace(question=question("q3"), error="query q3: down")
    report = evaluate_traces([good, no_gold, errored], store)
    assert report.counts == {
        "queries": 3,
        "errors": 1,
        "no_candidates": 0,
        "excluded_rank": 1,
        "excluded_evidence": 1,
        "excluded_answer": 1,
    }
    assert report.aggregate["mrr@10"] == {"mean": pytest.approx(1.0), "count": 1}
    assert report.aggregate["em"] == {"mean": pytest.approx(1.0), "count": 1}
    assert report.fallback_rate == pytest.approx(1 / 2)
    assert report.efficiency["mean_selector_completion_tokens"] == pytest.approx(16.0)
    assert report.efficiency["mean_generator_prompt_tokens"] == pytest.approx(64.0)
    assert report.efficiency["mean_selected_count"] == pytest.approx(1.5)
    assert len(report.per_query) == 3
    assert "error" in report.per_query[2]


def test_evaluate_traces_requires_input():
    store, _ = eval_fixture()
    with pytest.raises(MetricsError):
        evaluate_traces([], store)


def test_no_candidate_trace_scores_zero():
    store, good = eval_fixture()
    empty = QueryTrace(
        question=question("q4", golds=("beta",), evidence=("beta",), gold_ids=("p2",)),
        candidates=CandidateList("q4", "bm25", [], []),
        no_candidates=True,
    )
    report = evaluate_traces([good, empty], store)
    row = report.per_query[1]
    assert row["mrr@10"] == 0.0
    assert row["recall@5"] == 0.0
    assert row["hit@1"] == 0 and row["ic@1"] == 0.0
    assert row["em"] == 0
    assert report.counts["no_candidates"] == 1
    # query still participates in rank aggregates
    assert report.aggregate["mrr@10"]["count"] == 2
    assert report.aggregate["mrr@10"]["mean"] == pytest.approx(0.5)


def test_report_roundtrip_and_plot_data(tmp_path):
    store, good = eval_fixture()
    report = evaluate_traces([good], store)
    path = tmp_path / "report.json"
    report.save(path)
    loaded = MetricReport.load(path)
    assert loaded.to_dict() == report.to_dict()
    files = write_plot_data(report, tmp_path / "plots")
    assert [f.name for f in files] == ["hit_at_k.tsv", "ic_at_k.tsv"]
    hit_lines = files[0].read_text(encoding="utf-8").splitlines()
    assert hit_lines[0] == "k\thit@k"
    assert len(hit_lines) == 11
    assert hit_lines[1].split("\t") == ["1", "1.0"]
    ic_lines = files[1].read_text(encoding="utf-8").splitlines()
    assert ic_lines[1].split("\t") == ["1", "0.5"]
    assert ic_lines[2].split("\t") == ["2", "1.0"]


def test_metrics_config_knobs():
    store, trace = eval_fixture()
    cfg = MetricsConfig(hit_mode="all", precision_denominator="returned", max_k=3)
    row = evaluate_trace(trace, store, cfg)
    assert row["precision@5"] == pytest.approx(1 / 2)
    assert row["hit@1"] == 0  # only one of two spans in the top passage
    assert row["hit@2"] == 1
    assert "hit@4" not in row
