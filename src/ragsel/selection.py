"""Set-wise passage selection over a fixed candidate list.

One LLM call per query: render the strategy's prompt over the numbered
candidates, then parse either an unordered selection ("### Final
Selection: [2] [1]") or a listwise ranking ("[2] > [1] > [3]") out of the
completion. Parse failure is a value, not an exception; the caller-visible
fallback takes the leading candidates in retrieval order.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Sequence

from .corpus import rewrite_bracket_ids, typed
from .gateway import Usage, user_request

SELECTION_MARKER = "### Final Selection:"

_BRACKET_INT_RE = re.compile(r"\[\s*(\d+)\s*\]")


class Strategy(str, Enum):
    """Prompting strategies for the second-stage pass over candidates.

    REQUIREMENT_COT enumerates the query's information requirements step by
    step before selecting; COT free-form reasons then selects;
    SELECTION_ONLY answers with the selection line alone; LISTWISE_RERANK
    emits a full ranking instead of a subset.
    """

    REQUIREMENT_COT = "requirement_cot"
    COT = "cot"
    SELECTION_ONLY = "selection_only"
    LISTWISE_RERANK = "listwise_rerank"


class SelectionError(ValueError):
    pass


@functools.cache
def load_template(name: str, templates_dir: str | Path | None = None) -> str:
    """Load a prompt template by name, once per process; a file in templates_dir overrides."""
    filename = f"{name}.txt"
    if templates_dir is not None:
        override = Path(templates_dir) / filename
        if override.exists():
            return override.read_text(encoding="utf-8").rstrip("\n")
    ref = resources.files("ragsel").joinpath("templates", filename)
    if not ref.is_file():
        raise SelectionError(f"no template named {name!r}")
    return ref.read_text(encoding="utf-8").rstrip("\n")


def render_context(candidate_texts: Sequence[str]) -> str:
    # Bracket rewrite is idempotent; applying it here keeps the [i] markers
    # unambiguous even for texts that skipped corpus loading.
    return "\n".join(
        f"[{i}] {rewrite_bracket_ids(text)}" for i, text in enumerate(candidate_texts, start=1)
    )


def render_prompt(
    strategy: Strategy,
    question: str,
    candidate_texts: Sequence[str],
    templates_dir: str | Path | None = None,
) -> str:
    """Instantiate the strategy template with {num}, {question}, {context}."""
    if not candidate_texts:
        raise SelectionError("candidate list must be non-empty")
    template = load_template(strategy.value, templates_dir)
    prompt = template.replace("{num}", str(len(candidate_texts)))
    prompt = prompt.replace("{question}", question)
    return prompt.replace("{context}", render_context(candidate_texts))


def split_selection(text: str) -> tuple[str, str | None]:
    """Split a completion at its last '### Final Selection:' line.

    Returns the rest of the text, stripped, and that line (None when no
    line carries the marker).
    """
    lines = text.splitlines()
    marker_at = None
    for i, line in enumerate(lines):
        if SELECTION_MARKER in line:
            marker_at = i
    if marker_at is None:
        return text.strip(), None
    return "\n".join(lines[:marker_at] + lines[marker_at + 1 :]).strip(), lines[marker_at]


def parse_selection(text: str) -> list[int] | None:
    """Extract the selection from the last '### Final Selection:' line.

    Returns 1-based indices in order of appearance with duplicates dropped
    (first occurrence wins), or None when no marker line carries a
    bracketed integer.
    """
    marker_line = split_selection(text)[1]
    if marker_line is None:
        return None
    return parse_ranking(marker_line.split(SELECTION_MARKER, 1)[1])


def parse_ranking(text: str) -> list[int] | None:
    """Extract a listwise ranking: bracketed integers, '>'-separated,
    whitespace tolerant; duplicates dropped keeping the first."""
    indices = [int(m) for m in _BRACKET_INT_RE.findall(text)]
    if not indices:
        return None
    return list(dict.fromkeys(indices))


def sanitize_indices(indices: Sequence[int], num_candidates: int) -> list[int]:
    """Drop out-of-range indices, keeping order."""
    return [idx for idx in indices if 1 <= idx <= num_candidates]


def fallback_indices(num_candidates: int) -> list[int]:
    """Leading candidates in retrieval order: top 5, or top 1 when fewer
    than 5 candidates exist."""
    if num_candidates <= 0:
        raise SelectionError("fallback needs at least one candidate")
    if num_candidates < 5:
        return [1]
    return [1, 2, 3, 4, 5]


@dataclass
class SelectionOutcome:
    """Result of one selection call.

    ``indices`` are 1-based positions into the candidate list, unique and
    in range; ``reasoning`` is the completion minus the final-selection
    line (empty for listwise reranking).
    """

    strategy: Strategy
    indices: list[int]
    raw_completion: str
    reasoning: str
    usage: Usage
    fallback_applied: bool
    dropped_indices: int = 0

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "indices": self.indices,
            "raw_completion": self.raw_completion,
            "reasoning": self.reasoning,
            "usage": self.usage.to_dict(),
            "fallback_applied": self.fallback_applied,
            "dropped_indices": self.dropped_indices,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SelectionOutcome":
        """Read a ``to_dict`` record; every field by ``corpus.typed``'s rule."""
        return cls(
            strategy=Strategy(typed(record, "strategy", str)),
            indices=typed(record, "indices", list, int),
            raw_completion=typed(record, "raw_completion", str),
            reasoning=typed(record, "reasoning", str),
            usage=Usage.from_dict(record["usage"]),
            fallback_applied=typed(record, "fallback_applied", bool),
            dropped_indices=typed(record, "dropped_indices", int),
        )


def read_selection(
    strategy: Strategy, completion: str, num_candidates: int, usage: Usage
) -> SelectionOutcome:
    """Parse one completion into an outcome over ``num_candidates``.

    Out-of-range indices are dropped and counted; a completion with nothing
    usable left falls back to the leading candidates and sets
    ``fallback_applied``.
    """
    listwise = strategy is Strategy.LISTWISE_RERANK
    parsed = (parse_ranking if listwise else parse_selection)(completion) or []
    kept = sanitize_indices(parsed, num_candidates)
    return SelectionOutcome(
        strategy=strategy,
        indices=kept or fallback_indices(num_candidates),
        raw_completion=completion,
        reasoning="" if listwise else split_selection(completion)[0],
        usage=usage,
        fallback_applied=not kept,
        dropped_indices=len(parsed) - len(kept),
    )


def select(
    question: str,
    candidate_texts: Sequence[str],
    strategy: Strategy,
    backend,
    model: str,
    max_tokens: int | None = None,
    templates_dir: str | Path | None = None,
) -> SelectionOutcome:
    """Run one selection (or reranking) call and read its completion.

    Transport errors propagate; parse failures and empty selections fall
    back to the leading candidates and set ``fallback_applied``.
    """
    prompt = render_prompt(strategy, question, candidate_texts, templates_dir)
    text, usage = backend.chat(user_request(model, prompt, max_tokens=max_tokens))
    return read_selection(strategy, text, len(candidate_texts), usage)
