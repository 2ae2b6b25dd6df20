"""Teacher labeling for selection fine-tuning data.

A teacher model answers the requirement-listing selection prompt for each
input query; completions that parse into a valid, non-empty selection
become chat-format training records. Parse failures and backend failures
are logged to a rejects file and never abort the run. Labeling is
resumable: processed query ids go to a checkpoint file and are skipped on
the next run.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import fix_text, rewrite_bracket_ids
from .files import appending, cut_lines, iter_jsonl
from .gateway import (
    ApiError,
    TranscriptMissError,
    TransportError,
    Usage,
    ZERO_USAGE,
    merge_usage,
    user_request,
)
from .selection import (
    SELECTION_STRATEGIES,
    Strategy,
    parse_selection,
    render_prompt,
    sanitize_indices,
    split_selection,
)


class DistillError(ValueError):
    pass


@dataclass(frozen=True)
class LabelQuery:
    """One query to label: cleaned question plus cleaned candidate texts."""

    id: str
    question: str
    candidate_texts: tuple[str, ...]


@dataclass(frozen=True)
class LabelResult:
    prompt: str
    completion: str
    usage: Usage


@dataclass(frozen=True)
class TrainingRecord:
    query_id: str
    teacher_model: str
    strategy: Strategy
    prompt: str
    completion: str
    selected_indices: tuple[int, ...]
    dropped_indices: int

    def to_dict(self) -> dict:
        return {
            "messages": [
                {"role": "user", "content": self.prompt},
                {"role": "assistant", "content": self.completion},
            ],
            "query_id": self.query_id,
            "teacher_model": self.teacher_model,
            "strategy": self.strategy.value,
            "selected_indices": list(self.selected_indices),
            "dropped_indices": self.dropped_indices,
        }


@dataclass
class LabelingStats:
    accepted: int = 0
    rejected: int = 0
    skipped: int = 0
    reject_reasons: Counter = field(default_factory=Counter)
    teacher_usage: Usage = ZERO_USAGE


def load_label_queries(path: str | Path) -> list[LabelQuery]:
    """Parse the labeling input: JSONL of {id, question, candidates}.

    Candidate text goes through the same cleanup as corpus passages so
    prompts never carry stray bracketed numbers or control characters.
    """
    queries: list[LabelQuery] = []
    seen: set[str] = set()
    for lineno, record in iter_jsonl(path, DistillError):
        qid = record.get("id")
        question = fix_text(str(record.get("question", "")))
        candidates = record.get("candidates")
        if not isinstance(qid, str) or not qid:
            raise DistillError(f"{path}: line {lineno}: missing query id")
        if qid in seen:
            raise DistillError(f"{path}: line {lineno}: duplicate query id: {qid!r}")
        if not question:
            raise DistillError(f"{path}: line {lineno}: empty question for {qid!r}")
        if not isinstance(candidates, list) or not candidates:
            raise DistillError(f"{path}: line {lineno}: no candidates for {qid!r}")
        texts = []
        for c in candidates:
            if not isinstance(c, dict):
                raise DistillError(f"{path}: line {lineno}: candidate is not an object for {qid!r}")
            text = fix_text(rewrite_bracket_ids(str(c.get("text", ""))))
            if not text:
                raise DistillError(f"{path}: line {lineno}: empty candidate text for {qid!r}")
            texts.append(text)
        seen.add(qid)
        queries.append(LabelQuery(id=qid, question=question, candidate_texts=tuple(texts)))
    if not queries:
        raise DistillError(f"{path}: no label queries found")
    return queries


def label_query(
    backend,
    model: str,
    question_text: str,
    candidate_texts: Sequence[str],
    expected_candidates: int = 20,
    strict: bool = True,
    templates_dir: str | Path | None = None,
) -> LabelResult:
    """Ask the teacher for a selection over the candidate list."""
    if strict and len(candidate_texts) != expected_candidates:
        raise DistillError(
            f"expected {expected_candidates} candidates, got {len(candidate_texts)}"
        )
    prompt = render_prompt(Strategy.REQUIREMENT_COT, question_text, candidate_texts, templates_dir)
    completion, usage = backend.chat(user_request(model, prompt))
    return LabelResult(prompt=prompt, completion=completion, usage=usage)


def build_record(
    prompt: str,
    completion: str,
    query_id: str,
    teacher_model: str,
    num_candidates: int,
) -> TrainingRecord:
    """Validate a teacher completion into a training record.

    Raises DistillError with reason "no-marker" when the final-selection
    line is absent or empty, "empty-after-sanitize" when every parsed
    index is out of range. Partially out-of-range selections survive with
    the bad indices counted in ``dropped_indices``.
    """
    parsed = parse_selection(completion)
    if parsed is None:
        raise DistillError("no-marker")
    kept = sanitize_indices(parsed, num_candidates)
    if not kept:
        raise DistillError("empty-after-sanitize")
    return TrainingRecord(
        query_id=query_id,
        teacher_model=teacher_model,
        strategy=Strategy.REQUIREMENT_COT,
        prompt=prompt,
        completion=completion,
        selected_indices=tuple(kept),
        dropped_indices=len(parsed) - len(kept),
    )


def derive_variant_record(
    record: TrainingRecord,
    variant: Strategy,
    question_text: str,
    candidate_texts: Sequence[str],
    templates_dir: str | Path | None = None,
) -> TrainingRecord:
    """Re-target an accepted record at another selection prompt style.

    The user turn is re-rendered with the variant template; the assistant
    turn keeps the teacher's reasoning except for the selection-only
    style, which trims it down to the final-selection line.
    """
    if variant not in SELECTION_STRATEGIES:
        raise DistillError(f"not a selection strategy: {variant.value}")
    prompt = render_prompt(variant, question_text, candidate_texts, templates_dir)
    if variant is Strategy.SELECTION_ONLY:
        completion = split_selection(record.completion)[1].strip()
    else:
        completion = record.completion
    return TrainingRecord(
        query_id=record.query_id,
        teacher_model=record.teacher_model,
        strategy=variant,
        prompt=prompt,
        completion=completion,
        selected_indices=record.selected_indices,
        dropped_indices=record.dropped_indices,
    )


def _existing_output_ids(path: Path, committed: set[str]) -> set[str]:
    """The records file's query ids. Its trailing group (the lines of its last id) is
    cut unless ``committed`` has that id: a kill came before its checkpoint append."""
    ids: set[str] = set()
    last, first = None, 0
    for lineno, record in iter_jsonl(path, DistillError):
        if not isinstance(record.get("query_id"), str):
            raise DistillError(f"{path}: line {lineno}: missing string field 'query_id'")
        if record["query_id"] != last:
            last, first = record["query_id"], lineno
        ids.add(last)
    if last is not None and last not in committed:
        cut_lines(path, first - 1)
        ids.discard(last)
    return ids


def run_labeling(
    input_path: str | Path,
    backend,
    model: str,
    output_path: str | Path,
    checkpoint_path: str | Path,
    expected_candidates: int = 20,
    strict_count: bool = True,
    retries: int = 0,
    limit: int | None = None,
    variants: Sequence[Strategy] = (),
    concurrency: int = 4,
    templates_dir: str | Path | None = None,
) -> LabelingStats:
    """Label every pending input query and append training records.

    Already-processed ids (checkpoint union existing output) are skipped,
    so an interrupted run resumes without duplicating records. Transport
    failures are rejected but never checkpointed, so the next run retries
    them; parse failures are final. ``limit`` caps how many new queries
    this call processes. ``retries`` re-asks the teacher that many extra
    times when a completion fails to parse.
    """
    output_path = Path(output_path)
    checkpoint_path = Path(checkpoint_path)
    rejects_path = output_path.with_name(output_path.name + ".rejects.jsonl")
    queries = load_label_queries(input_path)

    def ask(query: LabelQuery):
        """Chat with parse-aware retries; returns (record, reject, usage)."""
        usage = ZERO_USAGE
        for _ in range(1 + max(0, retries)):
            try:
                result = label_query(backend, model, query.question, query.candidate_texts,
                                     expected_candidates, strict_count, templates_dir)
            except DistillError as exc:
                return None, ("candidate-count", str(exc)), usage
            except (TransportError, ApiError, TranscriptMissError) as exc:
                return None, ("transport", str(exc)), usage
            usage = merge_usage(usage, result.usage)
            try:
                record = build_record(result.prompt, result.completion, query.id, model, len(query.candidate_texts))
            except DistillError as exc:
                if str(exc) != "no-marker":
                    return None, (str(exc), result.completion[:200]), usage
            else:
                return record, None, usage
        return None, ("no-marker", result.completion[:200]), usage

    # each outcome is written and checkpointed as soon as it comes back, in
    # input order, so an interrupt loses no completion already consumed
    with (
        appending(output_path) as append_records,
        appending(rejects_path) as append_reject,
        appending(checkpoint_path) as commit,
        ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool,
    ):
        done = {line.strip() for line in checkpoint_path.read_text(encoding="utf-8").split("\n")} - {""}
        done |= _existing_output_ids(output_path, done)
        pending = [q for q in queries if q.id not in done]
        stats = LabelingStats(skipped=len(queries) - len(pending))
        if limit is not None:
            pending = pending[: max(0, limit)]
        for query, (record, reject, usage) in zip(pending, pool.map(ask, pending)):
            stats.teacher_usage = merge_usage(stats.teacher_usage, usage)
            if reject is not None:
                reason, detail = reject
                stats.rejected += 1
                stats.reject_reasons[reason] += 1
                append_reject({"query_id": query.id, "reason": reason, "detail": detail})
                # only rejects that consumed a teacher completion are final;
                # transport and precondition failures retry on the next run
                if reason not in ("transport", "candidate-count"):
                    commit(query.id)
                continue
            derived = [
                derive_variant_record(record, v, query.question, query.candidate_texts, templates_dir)
                for v in variants
            ]
            append_records(*(r.to_dict() for r in [record, *derived]))
            commit(query.id)
            stats.accepted += 1
    return stats
