"""Seeded input generator for the benchmark workloads.

Writes a Zipf-vocabulary corpus with planted gold passages and evidence
spans, a question set mixing gold-id and evidence-only questions, a label
query set with planted teacher outcomes, and the teacher transcript that
replays those outcomes. The same seed and sizes give byte-identical files.

Each topic plants four passages: two gold passages (evidence spans ``a``
and ``b``; the first also holds the answer), one non-gold passage with
evidence span ``c``, and one with only the topic token.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ragsel.distill import load_label_queries  # noqa: E402
from ragsel.gateway import estimate_tokens, request_fingerprint, user_request  # noqa: E402
from ragsel.selection import Strategy, render_prompt  # noqa: E402

import scripted  # noqa: E402

VOCAB = 50_000
ZIPF_A = 1.2
PASSAGE_WORDS = (40, 80)
LABEL_CANDIDATES = 20
LABEL_WORDS = (25, 45)
TEACHER_MODEL = "teacher"

# teacher outcome by label number % 10: A/B/D/E are accepted, C has no
# marker, O has only out-of-range indices, M has no transcript entry
LABEL_CLASSES = "AABDEACOMA"
LABEL_OUTCOME = {"C": "no-marker", "O": "empty-after-sanitize", "M": "transport"}

# question words are drawn from three Zipf rank bands, so every query
# touches one long, one medium and one short postings list
QUESTION_BANDS = ((1, 10), (11, 300), (301, 5000))


@dataclass(frozen=True)
class Sizes:
    passages: int
    topics: int
    questions_per_topic: int
    label_queries: int


def _zipf_words(rng: np.random.Generator, n: int) -> np.ndarray:
    out = np.empty(0, dtype=np.int64)
    while out.size < n:
        draw = rng.zipf(ZIPF_A, size=2 * (n - out.size) + 64)
        out = np.concatenate([out, draw[draw <= VOCAB]])
    return out[:n]


def _texts(rng: np.random.Generator, count: int, words: tuple[int, int]) -> list[list[str]]:
    lengths = rng.integers(words[0], words[1] + 1, size=count)
    ranks = _zipf_words(rng, int(lengths.sum()))
    texts, at = [], 0
    for n in lengths:
        texts.append([f"w{r}" for r in ranks[at : at + n]])
        at += n
    return texts


def _plant(rng: np.random.Generator, words: list[str], tokens: list[str]) -> list[str]:
    """Replace leading words by the planted tokens and shuffle."""
    merged = tokens + words[len(tokens) :]
    return [merged[i] for i in rng.permutation(len(merged))]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def generate(out_dir: Path, seed: int, sizes: Sizes) -> dict:
    """Write every input file under ``out_dir``; return file names and plan."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if 4 * sizes.topics > sizes.passages:
        raise ValueError("corpus too small for the planted topics")

    texts = _texts(rng, sizes.passages, PASSAGE_WORDS)
    slots = rng.choice(sizes.passages, size=4 * sizes.topics, replace=False)
    pid = [f"p{i:06d}" for i in range(sizes.passages)]
    gold = {}
    for topic in range(sizes.topics):
        t = f"{topic:05d}"
        g1, g2, dc, dp = (int(s) for s in slots[4 * topic : 4 * topic + 4])
        texts[g1] = _plant(rng, texts[g1], [f"t{t}", f"t{t}", f"ev{t}a", f"ans{t}"])
        texts[g2] = _plant(rng, texts[g2], [f"t{t}", f"t{t}", f"ev{t}b"])
        texts[dc] = _plant(rng, texts[dc], [f"t{t}", f"ev{t}c"])
        texts[dp] = _plant(rng, texts[dp], [f"t{t}"])
        gold[topic] = (pid[g1], pid[g2])
    corpus_path = out_dir / "corpus.jsonl"
    _write_jsonl(
        corpus_path,
        (
            {
                "id": pid[i],
                "doc_id": f"d{i // 5:05d}",
                "title": f"Document {i // 5}",
                "text": " ".join(words),
            }
            for i, words in enumerate(texts)
        ),
    )

    n_questions = sizes.topics * sizes.questions_per_topic
    topic_of = rng.permutation(np.repeat(np.arange(sizes.topics), sizes.questions_per_topic))
    questions = []
    for qn in range(n_questions):
        topic = int(topic_of[qn])
        t = f"{topic:05d}"
        words = [f"w{rng.integers(lo, hi + 1)}" for lo, hi in QUESTION_BANDS]
        row = {
            "id": f"q{qn:05d}",
            "question": f"t{t} {' '.join(words)} q{qn:05d}",
            "answers": [f"ans{t}"],
            "evidence": [f"ev{t}a", f"ev{t}b", f"ev{t}c"],
        }
        # even questions are judged by gold ids, odd ones by evidence spans
        if qn % 2 == 0:
            row["gold_passage_ids"] = list(gold[topic])
        questions.append(row)
    questions_path = out_dir / "questions.jsonl"
    _write_jsonl(questions_path, questions)

    label_path = out_dir / "label_input.jsonl"
    label_gold = []
    label_rows = []
    for ln in range(sizes.label_queries):
        cand = _texts(rng, LABEL_CANDIDATES, LABEL_WORDS)
        g = sorted(int(i) for i in rng.choice(LABEL_CANDIDATES, size=2, replace=False))
        lt = f"{ln:05d}"
        cand[g[0]] = _plant(rng, cand[g[0]], [f"ev{lt}a"])
        cand[g[1]] = _plant(rng, cand[g[1]], [f"ev{lt}b"])
        label_gold.append([i + 1 for i in g])
        words = [f"w{rng.integers(lo, hi + 1)}" for lo, hi in QUESTION_BANDS]
        label_rows.append(
            {
                "id": f"lq{lt}",
                "question": f"l{lt} {' '.join(words)}",
                "candidates": [
                    {
                        "id": f"lq{lt}_c{j + 1}",
                        "doc_id": f"ld{lt}",
                        "title": f"Label {ln}",
                        "text": " ".join(words),
                    }
                    for j, words in enumerate(cand)
                ],
            }
        )
    _write_jsonl(label_path, label_rows)

    # teacher prompts come from the package's own loader and renderer, so
    # replay fingerprints match what run_labeling will request
    transcript_path = out_dir / "teacher_transcript.jsonl"
    outcomes = {}
    entries = []
    for ln, query in enumerate(load_label_queries(label_path)):
        cls = LABEL_CLASSES[ln % len(LABEL_CLASSES)]
        outcomes[query.id] = LABEL_OUTCOME.get(cls, "accepted")
        if cls == "M":
            continue
        prompt = render_prompt(Strategy.REQUIREMENT_COT, query.question, query.candidate_texts)
        gold_idx = label_gold[ln]
        other = [i for i in range(1, LABEL_CANDIDATES + 1) if i not in gold_idx]
        completion = scripted.selection_completion(cls, gold_idx, other, f"l{ln:05d}", 1 + ln % 3)
        request = user_request(TEACHER_MODEL, prompt)
        entries.append(
            {
                "fingerprint": request_fingerprint(request.model, request.messages),
                "response": completion,
                "prompt_tokens": estimate_tokens(prompt),
                "completion_tokens": estimate_tokens(completion),
            }
        )
    _write_jsonl(transcript_path, entries)

    files = [corpus_path, questions_path, label_path, transcript_path]
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.read_bytes())
    return {
        "corpus": corpus_path.name,
        "questions": questions_path.name,
        "label_input": label_path.name,
        "teacher_transcript": transcript_path.name,
        "label_outcomes": outcomes,
        "sizes": asdict(sizes),
        "inputs_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs and plan.json.")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--sizes", required=True, help="passages,topics,questions_per_topic,label_queries")
    args = parser.parse_args()
    sizes = Sizes(*(int(v) for v in args.sizes.split(",")))
    plan = generate(args.out, args.seed, sizes)
    (args.out / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
