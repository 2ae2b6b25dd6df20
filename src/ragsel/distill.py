"""Teacher labeling for selection fine-tuning data.

A teacher model answers the requirement-listing selection prompt for each
input query; completions that parse into a valid, non-empty selection
become chat-format training records. Parse failures and backend failures
are logged to a rejects file and never abort the run. Labeling is
resumable: processed query ids go to a checkpoint file and are skipped on
the next run.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import fix_text, rewrite_bracket_ids
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
    SELECTION_MARKER,
    SELECTION_STRATEGIES,
    Strategy,
    parse_selection,
    render_prompt,
    sanitize_indices,
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DistillError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DistillError(f"{path}:{lineno}: expected a JSON object")
            qid = record.get("id")
            question = fix_text(str(record.get("question", "")))
            candidates = record.get("candidates")
            if not isinstance(qid, str) or not qid:
                raise DistillError(f"{path}:{lineno}: missing query id")
            if qid in seen:
                raise DistillError(f"{path}:{lineno}: duplicate query id: {qid!r}")
            if not question:
                raise DistillError(f"{path}:{lineno}: empty question for {qid!r}")
            if not isinstance(candidates, list) or not candidates:
                raise DistillError(f"{path}:{lineno}: no candidates for {qid!r}")
            texts = []
            for c in candidates:
                if not isinstance(c, dict):
                    raise DistillError(f"{path}:{lineno}: candidate is not an object for {qid!r}")
                text = fix_text(rewrite_bracket_ids(str(c.get("text", ""))))
                if not text:
                    raise DistillError(f"{path}:{lineno}: empty candidate text for {qid!r}")
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


def _final_selection_line(completion: str) -> str:
    lines = [l for l in completion.splitlines() if SELECTION_MARKER in l]
    return lines[-1].strip()


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
        completion = _final_selection_line(record.completion)
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


def _existing_output_ids(path: Path) -> set[str]:
    if not path.exists():
        return set()
    ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                ids.add(json.loads(line)["query_id"])
    return ids


def _checkpoint_ids(path: Path) -> set[str]:
    if not path.exists():
        return set()
    with open(path, "r", encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}


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
    done = _checkpoint_ids(checkpoint_path) | _existing_output_ids(output_path)
    pending = [q for q in queries if q.id not in done]
    stats = LabelingStats(skipped=len(queries) - len(pending))
    if limit is not None:
        pending = pending[: max(0, limit)]
    if not pending:
        return stats

    def ask(query: LabelQuery):
        """Chat with parse-aware retries; returns (result, error, usage)."""
        usage = ZERO_USAGE
        last_exc: Exception | None = None
        for _ in range(1 + max(0, retries)):
            try:
                result = label_query(
                    backend,
                    model,
                    query.question,
                    query.candidate_texts,
                    expected_candidates,
                    strict_count,
                    templates_dir,
                )
            except DistillError as exc:
                return None, ("candidate-count", str(exc)), usage
            except (TransportError, ApiError, TranscriptMissError) as exc:
                return None, ("transport", str(exc)), usage
            usage = merge_usage(usage, result.usage)
            if parse_selection(result.completion) is not None:
                return result, None, usage
            last_exc = DistillError("no-marker")
        return result, ("no-marker", str(last_exc)), usage

    workers = max(1, concurrency)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(ask, pending))

    with open(output_path, "a", encoding="utf-8") as out_fh, open(
        rejects_path, "a", encoding="utf-8"
    ) as rej_fh, open(checkpoint_path, "a", encoding="utf-8") as ck_fh:
        for query, (result, error, usage) in zip(pending, outcomes):
            stats.teacher_usage = merge_usage(stats.teacher_usage, usage)
            reason = detail = None
            if error is not None and error[0] != "no-marker":
                reason, detail = error
            else:
                try:
                    record = build_record(
                        result.prompt,
                        result.completion,
                        query.id,
                        model,
                        len(query.candidate_texts),
                    )
                except DistillError as exc:
                    reason, detail = str(exc), result.completion[:200]
            if reason is not None:
                stats.rejected += 1
                stats.reject_reasons[reason] += 1
                rej_fh.write(
                    json.dumps(
                        {"query_id": query.id, "reason": reason, "detail": detail},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
                rej_fh.flush()
                # only rejects that consumed a teacher completion are final;
                # transport and precondition failures retry on the next run
                if reason not in ("transport", "candidate-count"):
                    ck_fh.write(query.id + "\n")
                    ck_fh.flush()
                continue
            out_fh.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")
            for variant in variants:
                derived = derive_variant_record(
                    record, variant, query.question, query.candidate_texts, templates_dir
                )
                out_fh.write(json.dumps(derived.to_dict(), ensure_ascii=False) + "\n")
            out_fh.flush()
            ck_fh.write(query.id + "\n")
            ck_fh.flush()
            stats.accepted += 1
    return stats
