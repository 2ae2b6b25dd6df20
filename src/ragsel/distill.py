"""Teacher labeling for selection fine-tuning data.

A teacher model answers the requirement-listing selection prompt for each
input query, and ``selection.read_selection`` reads its completion by the
same rules ``run`` applies to the selector's output. A completion that
would fall back there is a reject here; any other becomes chat-format
training records, one for the prompt the teacher saw and one per variant
prompt style. Rejects go to a rejects file and never abort the run.
Labeling is resumable: processed query ids go to a checkpoint file and are
skipped on the next run.
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
    SelectionOutcome,
    Strategy,
    read_selection,
    render_prompt,
    split_selection,
)


# the prompt styles an accepted selection is re-rendered in, besides the teacher's own
VARIANTS = (Strategy.COT, Strategy.SELECTION_ONLY)


class DistillError(ValueError):
    pass


@dataclass(frozen=True)
class LabelQuery:
    """One query to label: cleaned question plus cleaned candidate texts."""

    id: str
    question: str
    candidate_texts: tuple[str, ...]


@dataclass
class LabelingStats:
    accepted: int = 0
    rejected: int = 0
    skipped: int = 0
    reject_reasons: Counter = field(default_factory=Counter)
    teacher_usage: Usage = ZERO_USAGE


def _text(record: dict, key: str, where: str) -> str:
    """``record[key]``, absent read as empty; any other non-string is an input error."""
    value = record.get(key, "")
    if not isinstance(value, str):
        raise DistillError(f"{where}: field {key!r} must be a string, not {type(value).__name__}")
    return value


def load_label_queries(path: str | Path) -> list[LabelQuery]:
    """Parse the labeling input: JSONL of {id, question, candidates}.

    Candidate text is cleaned the way ``load_corpus`` cleans a passage, so
    prompts never carry stray bracketed numbers or control characters.
    """
    queries: list[LabelQuery] = []
    seen: set[str] = set()
    for lineno, record in iter_jsonl(path, DistillError):
        where = f"{path}: line {lineno}"
        qid = record.get("id")
        if not isinstance(qid, str) or not qid:
            raise DistillError(f"{where}: missing query id")
        if qid in seen:
            raise DistillError(f"{where}: duplicate query id: {qid!r}")
        question = fix_text(_text(record, "question", where))
        if not question:
            raise DistillError(f"{where}: empty question for {qid!r}")
        candidates = record.get("candidates")
        if not isinstance(candidates, list) or not candidates:
            raise DistillError(f"{where}: no candidates for {qid!r}")
        texts = []
        for c in candidates:
            if not isinstance(c, dict):
                raise DistillError(f"{where}: candidate is not an object for {qid!r}")
            text = rewrite_bracket_ids(fix_text(_text(c, "text", where)))
            if not text:
                raise DistillError(f"{where}: empty candidate text for {qid!r}")
            texts.append(text)
        seen.add(qid)
        queries.append(LabelQuery(id=qid, question=question, candidate_texts=tuple(texts)))
    if not queries:
        raise DistillError(f"{path}: no label queries found")
    return queries


def training_records(
    query: LabelQuery,
    prompt: str,
    outcome: SelectionOutcome,
    teacher_model: str,
    variants: Sequence[Strategy],
    templates_dir: str | Path | None,
) -> list[dict]:
    """Chat-format records of one accepted teacher selection.

    The first record pairs the prompt the teacher saw with its completion.
    Each variant re-renders the user turn with its own template; the
    assistant turn keeps the teacher's reasoning except for the
    selection-only style, which trims it down to the final-selection line.
    """

    def record(strategy: Strategy, user: str, assistant: str) -> dict:
        return {
            "messages": [
                {"role": "user", "content": user},
                {"role": "assistant", "content": assistant},
            ],
            "query_id": query.id,
            "teacher_model": teacher_model,
            "strategy": strategy.value,
            "selected_indices": list(outcome.indices),
            "dropped_indices": outcome.dropped_indices,
        }

    completion = outcome.raw_completion
    return [record(outcome.strategy, prompt, completion)] + [
        record(
            variant,
            render_prompt(variant, query.question, query.candidate_texts, templates_dir),
            split_selection(completion)[1].strip() if variant is Strategy.SELECTION_ONLY else completion,
        )
        for variant in variants
    ]


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
    times when a completion fails to parse. ``variants`` are drawn from
    ``VARIANTS``.
    """
    for variant in variants:
        if variant not in VARIANTS:
            raise DistillError(f"not a labeling variant: {variant.value} (variants: {', '.join(VARIANTS)})")
    output_path = Path(output_path)
    checkpoint_path = Path(checkpoint_path)
    rejects_path = output_path.with_name(output_path.name + ".rejects.jsonl")
    queries = load_label_queries(input_path)

    def ask(query: LabelQuery):
        """Chat with parse-aware retries; returns ((prompt, outcome), reject, usage)."""
        num = len(query.candidate_texts)
        if strict_count and num != expected_candidates:
            return None, ("candidate-count", f"expected {expected_candidates} candidates, got {num}"), ZERO_USAGE
        prompt = render_prompt(Strategy.REQUIREMENT_COT, query.question, query.candidate_texts, templates_dir)
        usage = ZERO_USAGE
        for _ in range(1 + max(0, retries)):
            try:
                completion, call_usage = backend.chat(user_request(model, prompt))
            except (TransportError, ApiError, TranscriptMissError) as exc:
                return None, ("transport", str(exc)), usage
            usage = merge_usage(usage, call_usage)
            # a completion that would fall back in `run` is a reject here
            outcome = read_selection(Strategy.REQUIREMENT_COT, completion, num, call_usage)
            if not outcome.fallback_applied:
                return (prompt, outcome), None, usage
            if outcome.dropped_indices:
                return None, ("empty-after-sanitize", completion[:200]), usage
        return None, ("no-marker", completion[:200]), usage

    # each outcome is written and checkpointed as soon as it comes back, in
    # input order, so an interrupt loses no completion already consumed
    with (
        appending(output_path) as append_records,
        appending(rejects_path) as append_reject,
        appending(checkpoint_path) as commit,
        ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool,
    ):
        try:
            done = {line.strip() for line in checkpoint_path.read_text(encoding="utf-8").split("\n")} - {""}
        except UnicodeDecodeError:
            raise DistillError(f"{checkpoint_path}: not UTF-8") from None
        done |= _existing_output_ids(output_path, done)
        pending = [q for q in queries if q.id not in done]
        stats = LabelingStats(skipped=len(queries) - len(pending))
        if limit is not None:
            pending = pending[: max(0, limit)]
        for query, (accepted, reject, usage) in zip(pending, pool.map(ask, pending)):
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
            append_records(*training_records(query, *accepted, model, variants, templates_dir))
            commit(query.id)
            stats.accepted += 1
    return stats
