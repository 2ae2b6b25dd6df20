"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
"criterion N: <name>: PASS/FAIL/SKIP" line (visible with pytest -s or in
captured output). Expected values are hand-derived; randomized checks use
independent brute-force transcriptions of the formulas.
"""

import functools
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from ragsel.cli import main as cli_main
from ragsel.corpus import Passage, PassageStore
from ragsel.distill import load_label_queries, run_labeling
from ragsel.gateway import (
    TranscriptChatBackend,
    Usage,
    request_fingerprint,
    user_request,
)
from ragsel.metrics import (
    MetricReport,
    evidence_ranks,
    hit_at_k,
    info_coverage_at_k,
    mrr_at_k,
    ndcg_at_k,
    normalize_answer,
    precision_recall_at_k,
    qa_scores,
    token_f1,
)
from ragsel.retrieval import AnalyzerConfig, build_index, search
from ragsel.selection import (
    SELECTION_MARKER,
    Strategy,
    fallback_indices,
    parse_selection,
    render_prompt,
    sanitize_indices,
    select,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def criterion(number, name):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"criterion {number}: {name}: SKIP ({exc})")
                raise
            except BaseException:
                print(f"criterion {number}: {name}: FAIL")
                raise
            print(f"criterion {number}: {name}: PASS")
            return result

        return wrapper

    return decorator


class _Stub:
    def __init__(self, completion, usage=Usage(10, 5)):
        self.completion = completion
        self.usage = usage

    def chat(self, request):
        return self.completion, self.usage


# --- criterion 1 ---------------------------------------------------------------


@criterion(1, "metric oracle equivalence")
def test_metric_oracle_equivalence():
    rng = random.Random(104729)
    started = time.monotonic()
    for _ in range(1000):
        pool = [f"p{i}" for i in range(rng.randint(1, 20))]
        rng.shuffle(pool)
        relevant = set(rng.sample(pool, rng.randint(1, min(8, len(pool)))))
        ranked = pool[: rng.randint(0, len(pool))]

        # brute force: reciprocal of the first relevant position within 10
        expect_mrr = 0.0
        for pos in range(min(10, len(ranked))):
            if ranked[pos] in relevant:
                expect_mrr = 1.0 / (pos + 1)
                break
        assert abs(mrr_at_k(ranked, relevant, 10) - expect_mrr) <= 1e-12

        dcg = 0.0
        for pos in range(min(10, len(ranked))):
            if ranked[pos] in relevant:
                dcg += 1.0 / math.log2(pos + 2)
        idcg = 0.0
        for pos in range(min(len(relevant), 10)):
            idcg += 1.0 / math.log2(pos + 2)
        assert abs(ndcg_at_k(ranked, relevant, 10) - dcg / idcg) <= 1e-12

        hits = len([pid for pid in ranked[:5] if pid in relevant])
        precision, recall = precision_recall_at_k(ranked, relevant, 5)
        assert abs(precision - hits / 5) <= 1e-12
        assert abs(recall - hits / len(relevant)) <= 1e-12

        vocab = [f"w{i:02d}x" for i in range(40)]
        texts = ["  ".join(rng.sample(vocab, 6)).upper() for _ in range(rng.randint(1, 12))]
        spans = rng.sample(vocab, rng.randint(1, 5))
        k = rng.randint(1, 10)
        # brute force: lowercased whitespace-collapsed substring containment
        squashed = [" ".join(t.lower().split()) for t in texts[:k]]
        matched = {s for s in spans if any(" ".join(s.lower().split()) in t for t in squashed)}
        ranks = evidence_ranks(texts, spans)
        assert abs(info_coverage_at_k(ranks, k) - len(matched) / len(spans)) <= 1e-12
        assert hit_at_k(ranks, k, "any") == (1 if matched else 0)
        assert hit_at_k(ranks, k, "all") == (1 if len(matched) == len(spans) else 0)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# --- criterion 2 ---------------------------------------------------------------


def _adversarial_completion(rng):
    n = rng.randint(1, 20)
    kind = rng.randrange(6)
    if kind == 0:  # no marker at all
        return "no structured output here [3] [1]", n
    if kind == 1:  # marker with no integers after it
        return f"{SELECTION_MARKER} none chosen", n
    if kind == 2:  # duplicates
        picks = [rng.randint(1, n) for _ in range(rng.randint(2, 8))]
        body = " ".join(f"[{i}]" for i in picks)
        return f"Step 1. thinking\n{SELECTION_MARKER} {body}", n
    if kind == 3:  # everything out of range
        picks = [rng.randint(n + 1, n + 30) for _ in range(rng.randint(1, 4))]
        body = " ".join(f"[{i}]" for i in picks)
        return f"{SELECTION_MARKER} {body}", n
    if kind == 4:  # mixed in/out of range with noise
        picks = [rng.randint(1, n + 10) for _ in range(rng.randint(1, 6))]
        body = " , ".join(f"[ {i} ]" for i in picks)
        return f"notes [99]\n{SELECTION_MARKER} {body} trailing", n
    # multiple marker lines: the last one counts
    first = f"{SELECTION_MARKER} [1]"
    picks = [rng.randint(1, n) for _ in range(rng.randint(1, 5))]
    body = " ".join(f"[{i}]" for i in picks)
    return f"{first}\nrevised\n{SELECTION_MARKER} {body}", n


@criterion(2, "selection parsing round-trip")
def test_selection_parsing_round_trip():
    rng = random.Random(7919)
    for _ in range(1000):
        size = rng.randint(1, 20)
        values = rng.sample(range(1, 21), size)
        formatted = f"{SELECTION_MARKER} " + " ".join(f"[{i}]" for i in values)
        assert parse_selection(formatted) == values

    for _ in range(500):
        completion, n = _adversarial_completion(rng)
        outcome = select(
            "question", [f"text {i}" for i in range(1, n + 1)], Strategy.REQUIREMENT_COT,
            _Stub(completion), model="selector",
        )
        assert outcome.indices, "selection must never be empty"
        assert len(set(outcome.indices)) == len(outcome.indices)
        assert all(1 <= i <= n for i in outcome.indices)
        parsed = parse_selection(completion)
        expect_fallback = parsed is None or not sanitize_indices(parsed, n)
        assert outcome.fallback_applied == expect_fallback
        if expect_fallback:
            assert outcome.indices == fallback_indices(n)
            assert outcome.indices == ([1, 2, 3, 4, 5] if n >= 5 else [1])
        else:
            assert outcome.indices == sanitize_indices(parsed, n)


# --- criterion 3 ---------------------------------------------------------------


@criterion(3, "lexical scoring oracle")
def test_lexical_scoring_oracle():
    # three-passage corpus; hand-evaluated scores for the fixed formula
    # idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)), N=3
    # tf part = tf*(k1+1)/(tf + k1*(1 - b + b*len/avg)), k1=1.2, b=0.75
    # lengths: d1=2, d2=3, d3=1, average length = 2
    store = PassageStore(
        [
            Passage(id="d1", doc_id="d1", text="a b"),
            Passage(id="d2", doc_id="d2", text="a a b"),
            Passage(id="d3", doc_id="d3", text="c"),
        ]
    )
    index = build_index(store, AnalyzerConfig())
    # "a": df=2 -> idf = ln(1 + 1.5/2.5) = ln(1.6)
    # d2: tf=2, len=3 -> 2*2.2/(2 + 1.2*(0.25 + 0.75*1.5)) = 4.4/3.65
    expect_d2_a = math.log(1.6) * (4.4 / 3.65)
    # d1: tf=1, len=2 -> 2.2/(1 + 1.2*1.0) = 2.2/2.2 = 1
    expect_d1_a = math.log(1.6)
    # "c": df=1 -> idf = ln(1 + 2.5/1.5) = ln(8/3)
    # d3: tf=1, len=1 -> 2.2/(1 + 1.2*(0.25 + 0.375)) = 2.2/1.75
    expect_d3_c = math.log(8.0 / 3.0) * (2.2 / 1.75)

    result = search(index, "a", 3)
    results = dict(zip(result.ids, result.scores))
    assert abs(results["d2"] - expect_d2_a) <= 1e-9
    assert abs(results["d1"] - expect_d1_a) <= 1e-9
    result = search(index, "c", 3)
    results_c = dict(zip(result.ids, result.scores))
    assert abs(results_c["d3"] - expect_d3_c) <= 1e-9
    assert search(index, "a", 2).ids == ["d2", "d1"]
    assert search(index, "a b", 3).ids == ["d2", "d1"]


# --- criterion 4 ---------------------------------------------------------------

# per-class expected values, classes cycling A,B,C,D,E with question number
CLS_SEQ = [{1: "A", 2: "B", 3: "C", 4: "D", 0: "E"}[i % 5] for i in range(1, 26)]
F1_B = 2 * (1 / 2) * 1.0 / ((1 / 2) + 1.0)
F1_D = 2 * (1 / 3) * 1.0 / ((1 / 3) + 1.0)
NDCG_C = (1 / math.log2(3) + 1 / math.log2(5)) / (1 / math.log2(2) + 1 / math.log2(3))

CLASS_EXPECT = {
    "A": {
        "precision@5": 2 / 5, "recall@5": 1.0, "mrr@10": 1.0, "ndcg@10": 1.0,
        "em": 1, "f1": 1.0, "accuracy": 1,
        "hit": {k: 1 for k in range(1, 11)},
        "ic": {1: 1 / 3, **{k: 2 / 3 for k in range(2, 11)}},
        "selected": 2, "sel_tokens": 10,
    },
    "B": {
        "precision@5": 0.0, "recall@5": 0.0, "mrr@10": 0.0, "ndcg@10": 0.0,
        "em": 0, "f1": F1_B, "accuracy": 1,
        "hit": {k: 0 for k in range(1, 11)},
        "ic": {k: 0.0 for k in range(1, 11)},
        "selected": 2, "sel_tokens": 20,
    },
    "C": {
        "precision@5": 2 / 5, "recall@5": 1.0, "mrr@10": 1 / 2, "ndcg@10": NDCG_C,
        "em": 0, "f1": 0.0, "accuracy": 0,
        "hit": {1: 0, **{k: 1 for k in range(2, 11)}},
        "ic": {1: 0.0, 2: 1 / 3, 3: 1 / 3, 4: 2 / 3, **{k: 1.0 for k in range(5, 11)}},
        "selected": 5, "sel_tokens": 30,
    },
    "D": {
        "precision@5": 2 / 5, "recall@5": 1.0, "mrr@10": 1.0, "ndcg@10": 1.0,
        "em": 0, "f1": F1_D, "accuracy": 1,
        "hit": {k: 1 for k in range(1, 11)},
        "ic": {1: 1 / 3, **{k: 2 / 3 for k in range(2, 11)}},
        "selected": 2, "sel_tokens": 40,
    },
    "E": {
        "precision@5": 0.0, "recall@5": 0.0, "mrr@10": 0.0, "ndcg@10": 0.0,
        "em": 1, "f1": 1.0, "accuracy": 1,
        "hit": {k: 1 for k in range(1, 11)},
        "ic": {k: 1 / 3 for k in range(1, 11)},
        "selected": 1, "sel_tokens": 50,
    },
}


def _expected_mean(key, k=None):
    values = []
    for cls in CLS_SEQ:
        entry = CLASS_EXPECT[cls]
        values.append(entry[key][k] if k is not None else entry[key])
    return sum(values) / 25


@criterion(4, "deterministic end-to-end fixture")
def test_deterministic_end_to_end_fixture(tmp_path):
    started = time.monotonic()
    config = str(FIXTURES / "config.json")
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", config, "--output-dir", str(out)]) == 0
        blobs.append((out / "traces.jsonl").read_bytes())
    assert blobs[0] == blobs[1], "traces must be byte-identical across runs"

    assert cli_main(["eval", "--config", config, "--output-dir", str(tmp_path / "run_a")]) == 0
    report = MetricReport.load(tmp_path / "run_a" / "report.json")
    assert report.counts["queries"] == 25 and report.counts["errors"] == 0

    for key in ("precision@5", "recall@5", "mrr@10", "ndcg@10", "em", "f1", "accuracy"):
        entry = report.aggregate[key]
        assert entry["count"] == 25, key
        assert entry["mean"] == _expected_mean(key), key
    for k in range(1, 11):
        assert report.aggregate[f"hit@{k}"]["mean"] == _expected_mean("hit", k), f"hit@{k}"
        assert report.aggregate[f"ic@{k}"]["mean"] == _expected_mean("ic", k), f"ic@{k}"
    assert report.fallback_rate == 5 / 25
    assert report.efficiency["mean_selector_completion_tokens"] == _expected_mean("sel_tokens")
    assert report.efficiency["mean_generator_prompt_tokens"] == 200.0
    assert report.efficiency["mean_selected_count"] == _expected_mean("selected")

    # spot values against the hand table
    assert report.aggregate["precision@5"]["mean"] == pytest.approx(0.24, abs=1e-12)
    assert report.aggregate["recall@5"]["mean"] == pytest.approx(0.6, abs=1e-12)
    assert report.aggregate["em"]["mean"] == pytest.approx(0.4, abs=1e-12)
    assert report.aggregate["f1"]["mean"] == pytest.approx(19 / 30, abs=1e-12)
    assert report.aggregate["mrr@10"]["mean"] == pytest.approx(0.5, abs=1e-12)
    assert report.aggregate["hit@1"]["mean"] == pytest.approx(0.6, abs=1e-12)
    assert report.aggregate["hit@2"]["mean"] == pytest.approx(0.8, abs=1e-12)
    assert report.aggregate["ic@1"]["mean"] == pytest.approx(0.2, abs=1e-12)
    assert report.aggregate["ic@2"]["mean"] == pytest.approx(0.4, abs=1e-12)
    assert report.aggregate["ic@4"]["mean"] == pytest.approx(7 / 15, abs=1e-12)
    assert report.aggregate["ic@5"]["mean"] == pytest.approx(8 / 15, abs=1e-12)
    assert report.efficiency["mean_selector_completion_tokens"] == pytest.approx(30.0)
    assert report.efficiency["mean_selected_count"] == pytest.approx(2.4)

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# --- criterion 5 ---------------------------------------------------------------


@criterion(5, "monotonicity and idempotence")
def test_monotonicity_and_idempotence():
    rng = random.Random(65537)
    vocab = [f"tok{i}" for i in range(30)]
    for _ in range(500):
        texts = [" ".join(rng.sample(vocab, 5)) for _ in range(rng.randint(1, 10))]
        spans = rng.sample(vocab, rng.randint(1, 4))
        pool = [f"p{i}" for i in range(rng.randint(1, 15))]
        relevant = set(rng.sample(pool, rng.randint(1, min(8, len(pool)))))
        prev_hit, prev_ic, prev_recall = 0, 0.0, 0.0
        for k in range(1, 13):
            hit = hit_at_k(evidence_ranks(texts, spans), k)
            coverage = info_coverage_at_k(evidence_ranks(texts, spans), k)
            recall = precision_recall_at_k(pool, relevant, k)[1]
            assert hit >= prev_hit
            assert coverage >= prev_ic
            assert recall >= prev_recall
            prev_hit, prev_ic, prev_recall = hit, coverage, recall

    words = ["alpha", "beta", "gamma", "the", "an", "a"]
    for _ in range(500):
        gold = " ".join(rng.choices(words, k=rng.randint(1, 5)))
        mutated = gold
        if rng.random() < 0.5:
            mutated = mutated.upper()
        if rng.random() < 0.5:
            mutated = "  " + mutated + "!! "
        if rng.random() < 0.3:
            mutated = "the " + mutated
        em, f1 = qa_scores(mutated, [gold])
        if em == 1:
            assert f1 == 1.0, (mutated, gold)
        assert token_f1(gold, gold) == 1.0

    for _ in range(500):
        raw = "".join(chr(rng.randint(32, 0x2FFF)) for _ in range(rng.randint(0, 30)))
        once = normalize_answer(raw)
        assert normalize_answer(once) == once


# --- criterion 6 ---------------------------------------------------------------


@criterion(6, "coverage counts distinct spans")
def test_coverage_counts_distinct_spans():
    # three gold spans; first passage matches e1, second matches e1 AND e2
    texts = ["context with spanone inside", "both spanone and spantwo inside", "empty"]
    spans = ["spanone", "spantwo", "spanthree"]
    assert info_coverage_at_k(evidence_ranks(texts, spans), 1) == 1 / 3
    assert info_coverage_at_k(evidence_ranks(texts, spans), 2) == 2 / 3
    assert info_coverage_at_k(evidence_ranks(texts, spans), 3) == 2 / 3
    # the doubly-matched span never counts twice
    assert info_coverage_at_k(evidence_ranks(["spanone spantwo", "spanone"], spans), 2) == 2 / 3


# --- criterion 7 ---------------------------------------------------------------


@criterion(7, "labeling pipeline")
def test_labeling_pipeline(tmp_path):
    input_path = FIXTURES / "distill_input.jsonl"
    transcript_path = FIXTURES / "distill_transcript.jsonl"

    def label(workdir, transcript, **kwargs):
        backend = TranscriptChatBackend(transcript)
        return run_labeling(
            input_path,
            backend,
            "teacher",
            workdir / "out.jsonl",
            workdir / "out.jsonl.rejects.jsonl",
            expected_candidates=6,
            **kwargs,
        )

    def records(workdir):
        path = workdir / "out.jsonl"
        if not path.exists():
            return []
        return [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]

    # full pass: every scripted completion parses
    full = tmp_path / "full"
    full.mkdir()
    stats = label(full, transcript_path)
    assert stats.accepted == 10 and stats.rejected == 0
    rows = records(full)
    assert [r["query_id"] for r in rows] == [f"dq{i:02d}" for i in range(1, 11)]
    for row in rows:
        parsed = parse_selection(row["messages"][1]["content"])
        assert parsed, "assistant turn must re-parse"
        assert sanitize_indices(parsed, 6) == parsed
        assert row["selected_indices"] == parsed

    # interrupted pass resumes without duplicates
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    first = label(resumed, transcript_path, limit=6)
    assert first.accepted == 6
    second = label(resumed, transcript_path)
    assert second.accepted == 4 and second.skipped == 6
    ids = [r["query_id"] for r in records(resumed)]
    assert len(ids) == 10 and len(set(ids)) == 10

    # a missing transcript entry rejects one query, then succeeds on retry
    # with the full transcript because a transport reject is not final
    queries = load_label_queries(input_path)
    target = next(q for q in queries if q.id == "dq07")
    prompt = render_prompt(Strategy.REQUIREMENT_COT, target.question, target.candidate_texts)
    request = user_request("teacher", prompt)
    doomed = request_fingerprint(request.model, request.messages)
    pruned_path = tmp_path / "pruned_transcript.jsonl"
    kept_lines = [
        line
        for line in transcript_path.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["fingerprint"] != doomed
    ]
    assert len(kept_lines) == 9, "expected to prune exactly one transcript entry"
    pruned_path.write_text("\n".join(kept_lines) + "\n", encoding="utf-8")

    partial = tmp_path / "partial"
    partial.mkdir()
    broken = label(partial, pruned_path)
    assert broken.accepted == 9 and broken.rejected == 1
    assert broken.reject_reasons == {"transport": 1}
    rejects = [
        json.loads(l)
        for l in (partial / "out.jsonl.rejects.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert rejects[0]["query_id"] == "dq07"
    healed = label(partial, transcript_path)
    assert healed.accepted == 1 and healed.skipped == 9
    ids = [r["query_id"] for r in records(partial)]
    assert sorted(ids) == [f"dq{i:02d}" for i in range(1, 11)]


# --- criterion 8 ---------------------------------------------------------------


def _smoke_questions(count=50, candidates=20):
    """Synthetic two-fact questions with golds planted deep in the list."""
    items = []
    for i in range(1, count + 1):
        founder = f"Quorin Vale{i}"
        org = f"Helix Guild {i}"
        city = f"Port Maren{i}"
        year = 1900 + i
        gold_a = f"{org} was established by {founder}, who led it for a decade."
        gold_b = f"{founder} relocated to {city} in {year} after leaving the guild."
        distractors = []
        for j in range(1, candidates - 1):
            distractors.append(
                f"The annual fair of district {i}-{j} featured glasswork, {org} pennants, "
                f"and music unrelated to its founders."
            )
        texts = distractors[:]
        texts.insert(9, gold_a)
        texts.insert(15, gold_b)
        gold_positions = {texts.index(gold_a) + 1, texts.index(gold_b) + 1}
        question = f"In which year did the founder of {org} move to {city}?"
        items.append((question, texts, gold_positions))
    return items


@criterion(8, "live selection quality")
def test_live_selection_quality():
    endpoint = os.environ.get("RAGSEL_SMOKE_ENDPOINT")
    model = os.environ.get("RAGSEL_SMOKE_MODEL")
    if not endpoint or not model:
        pytest.skip("RAGSEL_SMOKE_ENDPOINT / RAGSEL_SMOKE_MODEL not configured")
    from ragsel.gateway import HttpChatBackend

    backend = HttpChatBackend(
        endpoint, api_key_env=os.environ.get("RAGSEL_SMOKE_API_KEY_ENV") or None
    )
    selected_recall = []
    baseline_recall = []
    for question, texts, gold_positions in _smoke_questions():
        outcome = select(question, texts, Strategy.REQUIREMENT_COT, backend, model=model)
        top5 = outcome.indices[:5]
        selected_recall.append(len(set(top5) & gold_positions) / len(gold_positions))
        baseline = set(range(1, 6))
        baseline_recall.append(len(baseline & gold_positions) / len(gold_positions))
    mean_selected = sum(selected_recall) / len(selected_recall)
    mean_baseline = sum(baseline_recall) / len(baseline_recall)
    print(f"live recall@5: selection {mean_selected:.4f} vs baseline {mean_baseline:.4f}")
    assert mean_selected > mean_baseline
