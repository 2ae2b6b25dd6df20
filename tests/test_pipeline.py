"""Tests for the end-to-end query pipeline."""

import json

import pytest

from ragsel.corpus import Passage, PassageStore, QuestionRecord
from ragsel.files import write_jsonl
from ragsel.gateway import (
    TranscriptMissError,
    TransportError,
    Usage,
    request_fingerprint,
    user_request,
)
from ragsel.pipeline import (
    PipelineConfig,
    PromptStyle,
    QueryTrace,
    config_hash,
    extract_answer,
    read_traces,
    render_answer_prompt,
    run_benchmark,
    run_query,
    write_manifest,
    write_traces,
)
from ragsel.retrieval import AnalyzerConfig, Bm25Retriever, build_index
from ragsel.selection import Strategy


class StubChat:
    """Scripted chat backend; routes on prompt content when given a router."""

    def __init__(self, text="", usage=Usage(5, 7), error=None, router=None):
        self.requests = []
        self.text = text
        self.usage = usage
        self.error = error
        self.router = router

    def chat(self, request):
        self.requests.append(request)
        if self.error is not None:
            raise self.error
        if self.router is not None:
            return self.router(request.messages[0]["content"]), self.usage
        return self.text, self.usage

    def describe(self):
        return {"kind": "stub"}


def passage(pid, text, doc_id="doc", title=None):
    return Passage(id=pid, doc_id=doc_id, text=text, title=title)


def question(qid, text, golds=("gold",), evidence=(), gold_ids=()):
    return QuestionRecord(
        id=qid,
        question=text,
        gold_answers=tuple(golds),
        evidence=tuple(evidence),
        gold_passage_ids=tuple(gold_ids),
    )


def make_retriever(passages):
    store = PassageStore(passages)
    index = build_index(store, AnalyzerConfig())
    return store, Bm25Retriever(index)


# --- answer prompt rendering -------------------------------------------------


def test_general_prompt_exact():
    rendered = render_answer_prompt(PromptStyle.GENERAL, "Q?", [passage("p1", "P.")])
    assert rendered == "P.\n\nBased on these texts, answer these questions:\nQ: Q?\nA:"


def test_general_prompt_order_and_join():
    ps = [passage("p3", "Third body."), passage("p1", "First body.")]
    rendered = render_answer_prompt(PromptStyle.GENERAL, "Q?", ps)
    assert "Third body.\n\nFirst body." in rendered
    assert rendered.index("Third body.") < rendered.index("First body.")
    assert rendered.endswith("A:")


def test_strict_prompt_source_blocks():
    ps = [
        passage("p1", "Alpha text.", doc_id="docA", title="Alpha Title"),
        passage("p2", "Beta text.", doc_id="docB", title=None),
    ]
    rendered = render_answer_prompt(PromptStyle.STRICT, "Who?", ps)
    assert "Source: Alpha Title\nAlpha text." in rendered
    assert "Source: docB\nBeta text." in rendered
    assert "Question: Who?" in rendered
    assert "'Insufficient Information'" in rendered
    assert "word or entity" in rendered


def test_strict_prompt_order_preserved():
    ps = [passage("b", "Bravo."), passage("a", "Alfa.")]
    rendered = render_answer_prompt(PromptStyle.STRICT, "Q", ps)
    assert rendered.index("Bravo.") < rendered.index("Alfa.")


# --- answer extraction -------------------------------------------------------


def test_extract_answer_general_marker():
    assert extract_answer(PromptStyle.GENERAL, "A: Paris") == "Paris"


def test_extract_answer_general_marker_mid_text():
    completion = "Let me think.\nA: Paris\nIt is in France."
    assert extract_answer(PromptStyle.GENERAL, completion) == "Paris\nIt is in France."


def test_extract_answer_general_no_marker():
    assert extract_answer(PromptStyle.GENERAL, "  Paris  ") == "Paris"


def test_extract_answer_general_first_marker_wins():
    completion = "A: one\nA: two"
    assert extract_answer(PromptStyle.GENERAL, completion) == "one\nA: two"


def test_extract_answer_strict_untouched():
    assert extract_answer(PromptStyle.STRICT, " A: kept verbatim \n") == "A: kept verbatim"


# --- run_query ---------------------------------------------------------------


def cot_corpus():
    return [
        passage("p1", "apple apple banana", doc_id="d1"),
        passage("p2", "apple banana banana", doc_id="d1"),
        passage("p3", "cherry cherry cherry", doc_id="d2"),
    ]


def test_run_query_selected_id_mapping():
    store, retriever = make_retriever(cot_corpus())
    sel = StubChat(text="Step 1. Need fruit.\n### Final Selection: [2] [1]", usage=Usage(50, 11))
    gen = StubChat(text="A: apple pie", usage=Usage(80, 3))
    cfg = PipelineConfig(strategy=Strategy.REQUIREMENT_COT, k=3)
    trace = run_query(question("q1", "apple banana"), retriever, store, sel, gen, cfg)
    assert trace.error is None and not trace.no_candidates
    # both passages tie on combined idf so candidate order is p1, p2 by id
    assert trace.candidates.ids[:2] == ["p1", "p2"]
    assert trace.selected_ids == [trace.candidates.ids[1], trace.candidates.ids[0]]
    assert trace.selection.indices == [2, 1]
    assert trace.answer == "apple pie"
    assert trace.generation_usage == Usage(80, 3)
    # generation prompt holds the selected bodies in selection order
    assert trace.answer_prompt.index("apple banana banana") < trace.answer_prompt.index(
        "apple apple banana"
    )
    assert len(sel.requests) == 1 and len(gen.requests) == 1
    assert sel.requests[0].model == "selector"
    assert gen.requests[0].model == "generator"
    assert gen.requests[0].max_tokens == 256


def test_run_query_rerank_truncates():
    ps = [passage(f"p{i}", f"kiwi term{i}", doc_id="d") for i in range(1, 9)]
    store, retriever = make_retriever(ps)
    ranking = " > ".join(f"[{i}]" for i in range(8, 0, -1))
    sel = StubChat(text=ranking)
    gen = StubChat(text="fine")
    cfg = PipelineConfig(strategy=Strategy.LISTWISE_RERANK, k=8, rerank_truncate=5)
    trace = run_query(question("q1", "kiwi"), retriever, store, sel, gen, cfg)
    assert len(trace.candidates) == 8
    assert trace.selection.indices == [8, 7, 6, 5, 4, 3, 2, 1]
    assert len(trace.selected_ids) == 5
    assert trace.selected_ids == [trace.candidates.ids[i - 1] for i in (8, 7, 6, 5, 4)]


def test_run_query_no_candidates_short_circuits():
    store, retriever = make_retriever(cot_corpus())
    sel = StubChat(text="### Final Selection: [1]")
    gen = StubChat(text="A: nope")
    cfg = PipelineConfig(k=3)
    trace = run_query(question("q1", "zzzznothing"), retriever, store, sel, gen, cfg)
    assert trace.no_candidates
    assert trace.selected_ids == [] and trace.answer == ""
    assert trace.selection is None and trace.generation_usage is None
    assert sel.requests == [] and gen.requests == []


def test_run_query_wraps_backend_failures():
    # run_query lets the backend's error through; run_benchmark's trace tags it with the query id
    store, retriever = make_retriever(cot_corpus())
    sel = StubChat(error=TransportError("socket reset"))
    gen = StubChat(text="unused")
    with pytest.raises(TransportError, match="^socket reset$"):
        run_query(question("q7", "apple"), retriever, store, sel, gen, PipelineConfig(k=3))
    (trace,), _ = run_benchmark([question("q7", "apple")], retriever, store, sel, gen, PipelineConfig(k=3))
    assert trace.error == "query q7: socket reset"


def test_run_query_generation_failure_also_wrapped():
    store, retriever = make_retriever(cot_corpus())
    sel = StubChat(text="### Final Selection: [1]")
    gen = StubChat(error=TransportError("gen down"))
    with pytest.raises(TransportError, match="^gen down$"):
        run_query(question("q8", "apple"), retriever, store, sel, gen, PipelineConfig(k=3))
    (trace,), _ = run_benchmark([question("q8", "apple")], retriever, store, sel, gen, PipelineConfig(k=3))
    assert trace.error == "query q8: gen down"


def test_run_query_fallback_recorded():
    store, retriever = make_retriever(cot_corpus())
    sel = StubChat(text="no structured output at all")
    gen = StubChat(text="A: x")
    trace = run_query(question("q1", "apple"), retriever, store, sel, gen, PipelineConfig(k=3))
    assert trace.selection.fallback_applied
    # two candidates match "apple", so the fallback picks the single top one
    assert trace.selection.indices == [1]
    assert trace.selected_ids == [trace.candidates.ids[0]]


# --- run_benchmark -----------------------------------------------------------


def bench_setup(n=10):
    passages, questions = [], []
    for i in range(1, n + 1):
        passages.append(passage(f"p{i}a", f"kw{i} fact one", doc_id=f"d{i}"))
        passages.append(passage(f"p{i}b", f"kw{i} kw{i} fact two", doc_id=f"d{i}"))
        questions.append(question(f"q{i}", f"kw{i}"))
    store, retriever = make_retriever(passages)
    return store, retriever, questions


def test_run_benchmark_preserves_input_order():
    store, retriever, questions = bench_setup()
    for workers in (1, 8):
        sel = StubChat(text="### Final Selection: [1]")
        gen = StubChat(text="A: ok")
        cfg = PipelineConfig(k=5, concurrency=workers)
        traces, manifest = run_benchmark(questions, retriever, store, sel, gen, cfg)
        assert [t.question.id for t in traces] == [q.id for q in questions]
        assert manifest["query_count"] == len(questions)
        assert manifest["failure_count"] == 0


def test_run_benchmark_deterministic_artifacts(tmp_path):
    store, retriever, questions = bench_setup()
    payloads = []
    for run in range(2):
        sel = StubChat(text="Step 1.\n### Final Selection: [2] [1]")
        gen = StubChat(text="A: answer")
        cfg = PipelineConfig(k=5, concurrency=4)
        traces, _ = run_benchmark(questions, retriever, store, sel, gen, cfg)
        out = tmp_path / f"traces_{run}.jsonl"
        write_traces(out, traces)
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def test_run_benchmark_failure_becomes_error_trace():
    store, retriever, questions = bench_setup()

    def router(content):
        if "kw3" in content:
            raise TransportError("kw3 backend unavailable")
        return "### Final Selection: [1]"

    sel = StubChat(router=router)
    gen = StubChat(text="A: ok")
    traces, manifest = run_benchmark(
        questions, retriever, store, sel, gen, PipelineConfig(k=5, concurrency=8)
    )
    failed = [t for t in traces if t.error is not None]
    assert len(failed) == 1
    assert failed[0].question.id == "q3"
    assert "query q3" in failed[0].error and "kw3 backend unavailable" in failed[0].error
    assert manifest["failure_count"] == 1
    # the other nine queries still completed
    assert sum(1 for t in traces if t.answer == "ok") == 9


def test_run_benchmark_unexpected_exception_contained():
    store, retriever, questions = bench_setup(3)

    class Boom(Exception):
        pass

    def router(content):
        if "kw2" in content:
            raise Boom("surprise")
        return "### Final Selection: [1]"

    sel = StubChat(router=router)
    gen = StubChat(text="A: ok")
    traces, manifest = run_benchmark(
        questions, retriever, store, sel, gen, PipelineConfig(k=5, concurrency=2)
    )
    assert manifest["failure_count"] == 1
    bad = next(t for t in traces if t.error)
    assert "unexpected Boom" in bad.error and "surprise" in bad.error


def test_run_benchmark_manifest_contents():
    store, retriever, questions = bench_setup(4)
    sel = StubChat(text="garbage with no ids")
    gen = StubChat(text="A: ok")
    cfg = PipelineConfig(k=5, concurrency=2)
    traces, manifest = run_benchmark(questions, retriever, store, sel, gen, cfg)
    assert manifest["config"] == cfg.to_dict()
    assert manifest["config_hash"] == config_hash(cfg.to_dict())
    assert manifest["backends"]["retriever"] == "bm25"
    assert manifest["backends"]["selection"] == {"kind": "stub"}
    assert manifest["query_count"] == 4
    assert manifest["fallback_count"] == 4
    assert manifest["no_candidate_count"] == 0
    assert manifest["started_at"] <= manifest["finished_at"]


def test_config_hash_stable_and_sensitive():
    cfg = PipelineConfig()
    h1 = config_hash(cfg.to_dict())
    h2 = config_hash(PipelineConfig().to_dict())
    assert h1 == h2 and len(h1) == 64
    assert config_hash(PipelineConfig(k=7).to_dict()) != h1


# --- trace serialization -----------------------------------------------------


def test_trace_roundtrip(tmp_path):
    store, retriever = make_retriever(cot_corpus())
    sel = StubChat(text="Step 1 reasoning.\n### Final Selection: [2]", usage=Usage(40, 9))
    gen = StubChat(text="A: juice", usage=Usage(70, 2))
    cfg = PipelineConfig(k=3)
    q = question("q1", "apple banana", evidence=("banana",), gold_ids=("p2",))
    trace = run_query(q, retriever, store, sel, gen, cfg)
    error_trace = QueryTrace(question=question("q2", "apple"), error="query q2: boom")
    path = tmp_path / "traces.jsonl"
    write_traces(path, [trace, error_trace])
    back = read_traces(path)
    assert [t.to_dict() for t in back] == [trace.to_dict(), error_trace.to_dict()]
    assert back[0].question == q
    assert back[0].selection.usage == Usage(40, 9)
    assert back[1].error == "query q2: boom"
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert first["schema_version"] == 1 and first["id"] == "q1"


def test_write_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, {"config_hash": "x", "query_count": 3})
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == {"config_hash": "x", "query_count": 3}


# --- transcript-backed pipeline ----------------------------------------------


def test_run_query_with_transcript_backends(tmp_path):
    from ragsel.gateway import TranscriptChatBackend
    from ragsel.selection import render_prompt

    store, retriever = make_retriever(cot_corpus())
    cfg = PipelineConfig(k=3)
    q = question("q1", "apple banana")
    cands = retriever.retrieve(q.question, cfg.k, query_id=q.id)
    texts = [store.get(pid).text for pid in cands.ids]
    sel_prompt = render_prompt(Strategy.REQUIREMENT_COT, q.question, texts)
    sel_completion = "Step 1. apple coverage.\n### Final Selection: [1]"
    ans_prompt = render_answer_prompt(
        PromptStyle.GENERAL, q.question, [store.get(cands.ids[0])]
    )
    path = tmp_path / "transcript.jsonl"
    sel_req = user_request("selector", sel_prompt)
    gen_req = user_request("generator", ans_prompt, max_tokens=256)
    write_jsonl(
        path,
        [
            {
                "fingerprint": request_fingerprint(sel_req.model, sel_req.messages),
                "response": sel_completion,
                "prompt_tokens": 100,
                "completion_tokens": 12,
            },
            {
                "fingerprint": request_fingerprint(gen_req.model, gen_req.messages),
                "response": "A: from transcript",
                "prompt_tokens": 90,
                "completion_tokens": 4,
            },
        ],
    )
    backend = TranscriptChatBackend(path)
    trace = run_query(q, retriever, store, backend, backend, cfg)
    assert trace.answer == "from transcript"
    assert trace.selected_ids == [cands.ids[0]]
    assert trace.selection.usage == Usage(100, 12)

    # an unmatched question surfaces as a per-query error, not a crash
    other = question("q9", "cherry")
    traces, manifest = run_benchmark([q, other], retriever, store, backend, backend, cfg)
    assert traces[0].error is None
    assert traces[1].error is not None and "query q9" in traces[1].error
    assert manifest["failure_count"] == 1
