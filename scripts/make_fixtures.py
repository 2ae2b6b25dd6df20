#!/usr/bin/env python3
"""Regenerate the checked-in fixtures.

The fixture set is a fully deterministic 25-question benchmark plus a
10-query labeling corpus, with replay transcripts for every chat call the
pipeline will make. The transcripts are recorded, not restated: the
benchmark and the labeling job run one query at a time in record mode
against a scripted model, so each transcript holds exactly the requests the
package makes, in the order it makes them.

Fixture layout (question i, zero-padded ii, keyword kw{ii}):
  - six passages p{ii}_1..p{ii}_6, all exactly 12 words, with the keyword
    occurring 7-j times in passage j: lexical scores strictly decrease
    with j, pinning the candidate order to p1..p6
  - evidence terms clue{ii}a / clue{ii}b / clue{ii}c sit in passages 2, 4
    and 5; gold passages are 2 and 4; the gold answer is gold{ii}
  - questions cycle through five scripted teacher behaviors (classes A-E)
    covering clean selections, off-gold selections, unparseable output
    (fallback), partially out-of-range output, and a single-passage pick

Run from anywhere: paths are derived from this file's location.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from ragsel.cli import main as cli_main
from ragsel.corpus import load_corpus, load_questions
from ragsel.distill import run_labeling
from ragsel.files import write_json
from ragsel.gateway import TranscriptChatBackend, Usage
from ragsel.pipeline import PipelineConfig, run_benchmark
from ragsel.retrieval import AnalyzerConfig, Bm25Retriever, build_index

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

N_QUESTIONS = 25
PASSAGES_PER_QUESTION = 6
PASSAGE_WORDS = 12
N_DISTILL = 10
DISTILL_CANDIDATES = 6
TEACHER = "teacher"

# class cycle keyed by i mod 5
CLASS_OF = {1: "A", 2: "B", 3: "C", 4: "D", 0: "E"}
SELECTION_COMPLETION_TOKENS = {"A": 10, "B": 20, "C": 30, "D": 40, "E": 50}
SELECTION_PROMPT_TOKENS = 111
GENERATION_USAGE = Usage(200, 7)
TEACHER_USAGE = Usage(120, 15)


def passage_text(ii: str, j: int) -> str:
    """Exactly PASSAGE_WORDS words; keyword count 7-j; clues in 2/4/5."""
    words = [f"kw{ii}"] * (7 - j)
    clue = {2: f"clue{ii}a", 4: f"clue{ii}b", 5: f"clue{ii}c"}.get(j)
    if clue:
        words.append(clue)
    n = 1
    while len(words) < PASSAGE_WORDS:
        words.append(f"fil{ii}x{j}x{n}")
        n += 1
    assert len(words) == PASSAGE_WORDS
    return " ".join(words)


def selection_completion(cls: str, ii: str) -> str:
    if cls == "A":
        return (
            f"Step 1. The query needs the kw{ii} facts.\n"
            "Step 2. Passages [2] and [4] carry the distinct clue terms.\n"
            "Step 3. Together they cover the requirements.\n"
            "### Final Selection: [2] [4]"
        )
    if cls == "B":
        return (
            f"Step 1. The query mentions kw{ii}.\n"
            "Step 2. Passages [3] and [1] look the densest.\n"
            "Step 3. Keeping both.\n"
            "### Final Selection: [3] [1]"
        )
    if cls == "C":
        return "I cannot determine a selection for this query."
    if cls == "D":
        return "### Final Selection: [4] [4] [99] [2]"
    return "Considering coverage.\n### Final Selection: [5]"


def generation_completion(cls: str, ii: str) -> str:
    return {
        "A": f"A: gold{ii}",
        "B": f"blue gold{ii}",
        "C": "wrongo",
        "D": f"gold{ii} extra words",
        "E": f"The Gold{ii}",
    }[cls]


class ScriptedModel:
    """The selector's, generator's and teacher's scripted replies. Record mode
    asks it for each request, which names its question by the ``kw<ii>`` in
    the prompt."""

    def describe(self) -> dict:
        return {"kind": "scripted"}

    def chat(self, request):
        ii = re.search(r"kw(\d\d)", request.messages[0]["content"]).group(1)
        cls = CLASS_OF[int(ii) % 5]
        if request.model == PipelineConfig.selection_model:
            return selection_completion(cls, ii), Usage(SELECTION_PROMPT_TOKENS, SELECTION_COMPLETION_TOKENS[cls])
        if request.model == PipelineConfig.generation_model:
            return generation_completion(cls, ii), GENERATION_USAGE
        if request.model == TEACHER:
            return teacher_completion(ii), TEACHER_USAGE
        raise ValueError(f"no scripted replies for model {request.model!r}")


def write_benchmark_fixtures() -> None:
    corpus_path = FIXTURES / "corpus.jsonl"
    questions_path = FIXTURES / "questions.jsonl"
    transcript_path = FIXTURES / "chat_transcript.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in range(1, N_QUESTIONS + 1):
            ii = f"{i:02d}"
            for j in range(1, PASSAGES_PER_QUESTION + 1):
                row = {
                    "id": f"p{ii}_{j}",
                    "doc_id": f"doc{ii}",
                    "title": f"Topic {ii}",
                    "text": passage_text(ii, j),
                }
                fh.write(json.dumps(row) + "\n")
    with open(questions_path, "w", encoding="utf-8") as fh:
        for i in range(1, N_QUESTIONS + 1):
            ii = f"{i:02d}"
            row = {
                "id": f"q{ii}",
                "question": f"kw{ii} inquiry",
                "answers": [f"gold{ii}"],
                "evidence": [f"clue{ii}a", f"clue{ii}b", f"clue{ii}c"],
                "gold_passage_ids": [f"p{ii}_2", f"p{ii}_4"],
            }
            fh.write(json.dumps(row) + "\n")

    store = load_corpus(corpus_path)
    retriever = Bm25Retriever(build_index(store, AnalyzerConfig()))
    transcript_path.unlink(missing_ok=True)
    backend = TranscriptChatBackend(transcript_path, record_from=ScriptedModel())
    # one query at a time, so entries are appended in question order
    traces, _ = run_benchmark(
        load_questions(questions_path), retriever, store, backend, backend, PipelineConfig(concurrency=1)
    )
    for i, trace in enumerate(traces, start=1):
        assert trace.error is None, trace.error
        expected = [f"p{i:02d}_{j}" for j in range(1, PASSAGES_PER_QUESTION + 1)]
        assert trace.candidates.ids == expected, (
            f"candidate order drifted for {trace.question.id}: {trace.candidates.ids}"
        )
    print(f"wrote {corpus_path}")
    print(f"wrote {questions_path}")
    print(f"wrote {transcript_path}")


def teacher_completion(ii: str) -> str:
    return (
        f"Step 1. The query needs the kw{ii} training facts.\n"
        "Step 2. Passages [2] and [4] hold them.\n"
        "### Final Selection: [2] [4]"
    )


def write_distill_fixtures() -> None:
    input_path = FIXTURES / "distill_input.jsonl"
    transcript_path = FIXTURES / "distill_transcript.jsonl"
    with open(input_path, "w", encoding="utf-8") as fh:
        for i in range(1, N_DISTILL + 1):
            ii = f"{i:02d}"
            row = {
                "id": f"dq{ii}",
                "question": f"kw{ii} training inquiry",
                "candidates": [
                    {
                        "id": f"dq{ii}_c{j}",
                        "doc_id": f"tdoc{ii}",
                        "title": f"Training {ii}",
                        "text": f"kw{ii} training passage {j} with detail tr{ii}x{j}",
                    }
                    for j in range(1, DISTILL_CANDIDATES + 1)
                ],
            }
            fh.write(json.dumps(row) + "\n")
    transcript_path.unlink(missing_ok=True)
    backend = TranscriptChatBackend(transcript_path, record_from=ScriptedModel())
    with tempfile.TemporaryDirectory(prefix="ragsel-fixture-labels-") as tmp:
        stats = run_labeling(
            input_path,
            backend,
            TEACHER,
            Path(tmp) / "distill.jsonl",
            Path(tmp) / "rejects.jsonl",
            expected_candidates=DISTILL_CANDIDATES,
            concurrency=1,
        )
    assert (stats.accepted, stats.rejected) == (N_DISTILL, 0), stats
    print(f"wrote {input_path}")
    print(f"wrote {transcript_path}")


def write_config() -> None:
    config = {
        "paths": {
            "corpus": "corpus.jsonl",
            "questions": "questions.jsonl",
            "output_dir": "../out",
            "distill_input": "distill_input.jsonl",
        },
        "strategy": "requirement_cot",
        "prompt_style": "general",
        "concurrency": 4,
        "retriever": {"kind": "bm25", "k": 20},
        "selection_backend": {"kind": "transcript", "transcript": "chat_transcript.jsonl"},
        "generation_backend": {"kind": "transcript", "transcript": "chat_transcript.jsonl"},
        "distill": {"teacher_model": TEACHER, "expected_candidates": DISTILL_CANDIDATES},
    }
    path = FIXTURES / "config.json"
    write_json(path, config)
    print(f"wrote {path}")


def self_check() -> None:
    """Replay the whole benchmark once and require a clean run."""
    with tempfile.TemporaryDirectory(prefix="ragsel-fixture-check-") as tmp:
        code = cli_main(["run", "--config", str(FIXTURES / "config.json"), "--output-dir", tmp])
        assert code == 0, f"fixture self-check run exited {code}"
        manifest = json.loads((Path(tmp) / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failure_count"] == 0
    assert manifest["query_count"] == N_QUESTIONS
    assert manifest["fallback_count"] == N_QUESTIONS // 5
    print(f"self-check passed: {N_QUESTIONS} queries replayed cleanly")


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_benchmark_fixtures()
    write_distill_fixtures()
    write_config()
    self_check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
