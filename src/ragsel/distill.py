"""Teacher labeling for selection fine-tuning data.

A teacher model answers the requirement-listing selection prompt for each
input query, and ``selection.read_selection`` reads its completion by the
same rules ``run`` applies to the selector's output. A completion that
would fall back there is a reject here; any other becomes chat-format
training records, one for the prompt the teacher saw and one per variant
prompt style. Rejects go to a rejects file and never abort the run.
Labeling resumes from those two files: a query whose records group is whole,
or whose reject is final, is skipped on the next run.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Sequence

from .corpus import fix_text, rewrite_bracket_ids
from .files import appending, cut_lines, iter_jsonl
from .gateway import BACKEND_ERRORS, Usage, ZERO_USAGE, merge_usage, user_request
from .selection import (
    SelectionOutcome,
    Strategy,
    read_selection,
    render_prompt,
    split_selection,
)


# the prompt styles an accepted selection is re-rendered in, besides the teacher's own
VARIANTS = (Strategy.COT, Strategy.SELECTION_ONLY)

# reject reasons a resume asks the teacher again for: no completion was consumed
RETRIED_REASONS = ("transport", "candidate-count")


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


def _text(record: dict, key: str) -> str:
    """``record[key]``, absent read as empty; any other non-string is an input error."""
    value = record.get(key, "")
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string, not {type(value).__name__}")
    return value


def load_label_queries(path: str | Path) -> list[LabelQuery]:
    """Parse the labeling input: JSONL of {id, question, candidates}.

    Candidate text is cleaned the way ``load_corpus`` cleans a passage, so
    prompts never carry stray bracketed numbers or control characters.
    """
    seen: set[str] = set()

    def read(record: dict) -> LabelQuery:
        qid = record.get("id")
        if not isinstance(qid, str) or not qid:
            raise ValueError("missing query id")
        if qid in seen:
            raise ValueError(f"duplicate query id: {qid!r}")
        question = fix_text(_text(record, "question"))
        if not question:
            raise ValueError(f"empty question for {qid!r}")
        candidates = record.get("candidates")
        if not isinstance(candidates, list) or not candidates:
            raise ValueError(f"no candidates for {qid!r}")
        texts = []
        for c in candidates:
            if not isinstance(c, dict):
                raise ValueError(f"candidate is not an object for {qid!r}")
            text = rewrite_bracket_ids(fix_text(_text(c, "text")))
            if not text:
                raise ValueError(f"empty candidate text for {qid!r}")
            texts.append(text)
        seen.add(qid)
        return LabelQuery(id=qid, question=question, candidate_texts=tuple(texts))

    queries = [query for _, query in iter_jsonl(path, DistillError, read)]
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


def _query_line(record: dict) -> dict:
    """A training record or reject; one without a string ``query_id`` is an input error."""
    if not isinstance(record.get("query_id"), str):
        raise ValueError("missing string field 'query_id'")
    return record


def _done_ids(records_path: Path, rejects_path: Path, strategies: list[str]) -> set[str]:
    """The query ids a resume skips: each whose records group (its consecutive lines)
    holds exactly ``strategies``, and each rejected for a reason not retried. A trailing
    group that falls short is what a kill mid-append leaves; it is cut."""
    rejects = iter_jsonl(rejects_path, DistillError, _query_line)
    done = {reject["query_id"] for _, reject in rejects if reject.get("reason") not in RETRIED_REASONS}
    first, whole = 0, True
    records = iter_jsonl(records_path, DistillError, _query_line)
    for qid, lines in groupby(records, key=lambda line: line[1]["query_id"]):
        lines = list(lines)
        first, whole = lines[0][0], [record.get("strategy") for _, record in lines] == strategies
        if whole:
            done.add(qid)
    if not whole:
        cut_lines(records_path, first - 1)
    return done


def run_labeling(
    input_path: str | Path,
    backend,
    model: str,
    output_path: str | Path,
    rejects_path: str | Path,
    expected_candidates: int | None = 20,
    limit: int | None = None,
    variants: Sequence[Strategy] = (),
    concurrency: int = 4,
    templates_dir: str | Path | None = None,
) -> LabelingStats:
    """Label every pending input query, appending its training records to
    ``output_path`` or its reject to ``rejects_path``.

    A query already in the records with its whole group, or rejected for a
    reason not in ``RETRIED_REASONS``, is skipped, so an interrupted run
    resumes to the files an uninterrupted one writes; a resume must use the
    same ``variants``. ``expected_candidates`` of ``None`` accepts any count.
    ``limit`` caps how many new queries this call processes. The teacher is
    asked once per query: chat calls are greedy, so asking again would repeat
    the same request. ``variants`` are drawn from ``VARIANTS``.
    """
    for variant in variants:
        if variant not in VARIANTS:
            raise DistillError(f"not a labeling variant: {variant.value} (variants: {', '.join(VARIANTS)})")
    output_path, rejects_path = Path(output_path), Path(rejects_path)
    queries = load_label_queries(input_path)

    def ask(query: LabelQuery):
        """One teacher call; returns ((prompt, outcome), reject, usage)."""
        num = len(query.candidate_texts)
        if expected_candidates is not None and num != expected_candidates:
            return None, ("candidate-count", f"expected {expected_candidates} candidates, got {num}"), ZERO_USAGE
        prompt = render_prompt(Strategy.REQUIREMENT_COT, query.question, query.candidate_texts, templates_dir)
        try:
            completion, usage = backend.chat(user_request(model, prompt))
        except BACKEND_ERRORS as exc:
            return None, ("transport", str(exc)), ZERO_USAGE
        # a completion that would fall back in `run` is a reject here
        outcome = read_selection(Strategy.REQUIREMENT_COT, completion, num, usage)
        if not outcome.fallback_applied:
            return (prompt, outcome), None, usage
        reason = "empty-after-sanitize" if outcome.dropped_indices else "no-marker"
        return None, (reason, completion[:200]), usage

    # each outcome is written as soon as it comes back, in input order, so an
    # interrupt loses no completion already consumed
    with (
        appending(output_path) as append_records,
        appending(rejects_path) as append_reject,
        ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool,
    ):
        strategies = [Strategy.REQUIREMENT_COT.value, *(v.value for v in variants)]
        done = _done_ids(output_path, rejects_path, strategies)
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
                continue
            append_records(*training_records(query, *accepted, model, variants, templates_dir))
            stats.accepted += 1
    return stats
