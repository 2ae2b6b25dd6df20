"""End-to-end query pipeline: retrieve, select, generate, trace.

Traces are deterministic given transcript backends: they carry no wall
clock, so identical runs serialize byte-identically. Timestamps live only
in the run manifest.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import PassageStore, Passage, QuestionRecord, typed
from .files import iter_jsonl, write_json, write_jsonl
from .gateway import BACKEND_ERRORS, Usage, user_request
from .retrieval import CandidateList
from .selection import SelectionOutcome, Strategy, load_template, select

TRACE_SCHEMA_VERSION = 1


class PromptStyle(str, Enum):
    """Answer-prompt flavor.

    GENERAL: bare passages, "Q: ... A:" completion.
    STRICT: word-or-entity answer over source-separated context, with an
    explicit insufficient-information refusal instruction.
    """

    GENERAL = "general"
    STRICT = "strict"


class PipelineError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    strategy: Strategy = Strategy.REQUIREMENT_COT
    prompt_style: PromptStyle = PromptStyle.GENERAL
    k: int = 20
    rerank_truncate: int = 5
    concurrency: int = 4
    selection_model: str = "selector"
    generation_model: str = "generator"
    selection_max_tokens: int | None = None
    generation_max_tokens: int | None = 256
    templates_dir: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def render_answer_prompt(
    style: PromptStyle,
    question: str,
    passages: Sequence[Passage],
    templates_dir: str | Path | None = None,
) -> str:
    """Build the generation prompt; passages appear in selection order.

    GENERAL joins passage bodies with blank lines; STRICT prefixes each
    with a source line so different origins stay separated.
    """
    template = load_template(f"answer_{style.value}", templates_dir)
    if style is PromptStyle.STRICT:
        blocks = [f"Source: {p.title or p.doc_id}\n{p.text}" for p in passages]
    else:
        blocks = [p.text for p in passages]
    context = "\n\n".join(blocks)
    prompt = template.replace("{question}", question)
    return prompt.replace("{context}", context)


def extract_answer(style: PromptStyle, completion: str) -> str:
    """Trim the completion; in GENERAL style an "A:" line restarts it."""
    text = completion.strip()
    if style is PromptStyle.GENERAL:
        lines = text.splitlines()
        for i, line in enumerate(lines):
            stripped = line.strip()
            if stripped.startswith("A:"):
                first = stripped[2:].lstrip()
                return "\n".join([first] + lines[i + 1 :]).strip()
    return text


@dataclass
class QueryTrace:
    question: QuestionRecord
    candidates: CandidateList | None = None
    selection: SelectionOutcome | None = None
    selected_ids: list[str] = field(default_factory=list)
    answer_prompt: str = ""
    answer: str = ""
    generation_usage: Usage | None = None
    no_candidates: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "id": self.question.id,
            "question": self.question.to_dict(),
            "candidates": self.candidates.to_dict() if self.candidates else None,
            "selection": self.selection.to_dict() if self.selection else None,
            "selected_ids": self.selected_ids,
            "answer_prompt": self.answer_prompt,
            "answer": self.answer,
            "generation_usage": self.generation_usage.to_dict() if self.generation_usage else None,
            "no_candidates": self.no_candidates,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "QueryTrace":
        if typed(record, "schema_version", int) != TRACE_SCHEMA_VERSION:
            raise ValueError(f"schema_version is not {TRACE_SCHEMA_VERSION}")
        typed(record, "id", str)
        usage = record["generation_usage"]
        return cls(
            question=QuestionRecord.from_dict(record["question"]),
            candidates=None if record["candidates"] is None else CandidateList.from_dict(record["candidates"]),
            selection=None if record["selection"] is None else SelectionOutcome.from_dict(record["selection"]),
            selected_ids=typed(record, "selected_ids", list),
            answer_prompt=typed(record, "answer_prompt", str),
            answer=typed(record, "answer", str),
            generation_usage=None if usage is None else Usage.from_dict(usage),
            no_candidates=typed(record, "no_candidates", bool),
            error=None if record["error"] is None else typed(record, "error", str),
        )


def select_passages(
    question: str,
    candidates: CandidateList,
    store: PassageStore,
    backend,
    config: PipelineConfig,
) -> tuple[SelectionOutcome, list[str]]:
    """Run selection over the candidates; returns the outcome and the ids
    it selects. A listwise ranking keeps its top ``rerank_truncate``."""
    outcome = select(
        question,
        [store.get(pid).text for pid in candidates.ids],
        config.strategy,
        backend,
        model=config.selection_model,
        max_tokens=config.selection_max_tokens,
        templates_dir=config.templates_dir,
    )
    indices = outcome.indices
    if config.strategy is Strategy.LISTWISE_RERANK:
        indices = indices[: config.rerank_truncate]
    return outcome, [candidates.ids[i - 1] for i in indices]


def run_query(
    question: QuestionRecord,
    retriever,
    store: PassageStore,
    select_backend,
    generate_backend,
    config: PipelineConfig,
) -> QueryTrace:
    """Run one query through retrieve -> select -> generate.

    Zero retrieved candidates short-circuits with an empty answer and no
    LLM calls. Backend failures propagate.
    """
    candidates = retriever.retrieve(question.question, config.k, query_id=question.id)
    if len(candidates) == 0:
        return QueryTrace(question=question, candidates=candidates, no_candidates=True)
    outcome, selected_ids = select_passages(question.question, candidates, store, select_backend, config)
    passages = [store.get(pid) for pid in selected_ids]
    prompt = render_answer_prompt(
        config.prompt_style, question.question, passages, config.templates_dir
    )
    completion, gen_usage = generate_backend.chat(
        user_request(
            config.generation_model, prompt, max_tokens=config.generation_max_tokens
        )
    )
    return QueryTrace(
        question=question,
        candidates=candidates,
        selection=outcome,
        selected_ids=selected_ids,
        answer_prompt=prompt,
        answer=extract_answer(config.prompt_style, completion),
        generation_usage=gen_usage,
    )


def config_hash(effective_config: dict) -> str:
    canonical = json.dumps(effective_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_benchmark(
    questions: Sequence[QuestionRecord],
    retriever,
    store: PassageStore,
    select_backend,
    generate_backend,
    config: PipelineConfig,
    effective_config: dict | None = None,
) -> tuple[list[QueryTrace], dict]:
    """Run every question under a bounded thread pool.

    Traces come back in input order regardless of concurrency; a failing
    query yields a trace with its error, tagged with the query id, recorded
    instead of aborting the run.
    """
    started_at = datetime.now(timezone.utc).isoformat()

    def run_one(q: QuestionRecord) -> QueryTrace:
        try:
            return run_query(q, retriever, store, select_backend, generate_backend, config)
        except BACKEND_ERRORS as exc:
            return QueryTrace(question=q, error=f"query {q.id}: {exc}")
        except Exception as exc:  # defensive: never abort the whole run
            return QueryTrace(question=q, error=f"query {q.id}: unexpected {type(exc).__name__}: {exc}")

    workers = max(1, config.concurrency)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        traces = list(pool.map(run_one, questions))
    finished_at = datetime.now(timezone.utc).isoformat()
    effective = effective_config if effective_config is not None else config.to_dict()
    manifest = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "config": effective,
        "config_hash": config_hash(effective),
        "backends": {
            "retriever": getattr(retriever, "name", type(retriever).__name__),
            "selection": select_backend.describe() if hasattr(select_backend, "describe") else {},
            "generation": generate_backend.describe() if hasattr(generate_backend, "describe") else {},
        },
        "started_at": started_at,
        "finished_at": finished_at,
        "query_count": len(traces),
        "failure_count": sum(1 for t in traces if t.error is not None),
        "no_candidate_count": sum(1 for t in traces if t.no_candidates),
        "fallback_count": sum(1 for t in traces if t.selection and t.selection.fallback_applied),
    }
    return traces, manifest


def write_traces(path: str | Path, traces: Sequence[QueryTrace]) -> None:
    write_jsonl(path, (trace.to_dict() for trace in traces))


def _read_trace(record: dict) -> QueryTrace:
    try:
        return QueryTrace.from_dict(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a trace: {exc!r}") from None


def read_traces(path: str | Path) -> list[QueryTrace]:
    return [trace for _, trace in iter_jsonl(path, PipelineError, _read_trace)]


def write_manifest(path: str | Path, manifest: dict) -> None:
    write_json(path, manifest)
