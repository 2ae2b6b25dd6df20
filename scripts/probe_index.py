#!/usr/bin/env python3
"""Time each step of a cold BM25 set-up, and dense search, on generated corpora, one process per size.

    python scripts/probe_index.py --sizes 2000,10000,100000 [--seed 7]

For each size, ``bench/gen.py`` writes its seeded inputs into a temporary
directory, and a fresh interpreter times, in order: the corpus file's
sha256 (read in 1 MiB blocks), JSON parsing alone (``files.iter_jsonl``),
``load_corpus``, ``PassageStore.digest``, ``build_index``, ``save_index``,
``load_index``, and BM25 ``search`` at k = 20 over the generated questions.
Beside ``search_ms_per_query`` stands ``search_postings_per_query``: the mean
number of postings a search sums, from ``index.offsets`` over each question's
distinct known terms, so the time can be read per posting.
One JSON object per size goes to stdout, with the index file's bytes and
the peak RSS of the measuring process up to here, which does not include
the generator's. ``index_held_mib`` is what a second, separate ``load_index``
holds (``tracemalloc``'s current size once it returns).
Then ``load_corpus_dirty_s`` times ``load_corpus`` over a copy of the corpus
in which each text starts with a tab and holds a doubled space, so every
text takes the cleaning path that splits and joins it again.

``estimate_tokens_us`` is the best-of-5 time of one ``gateway.estimate_tokens``
call on the ``requirement_cot`` selector prompt rendered for the first
question's 20 BM25 candidates, which is ASCII and counted in one bytes pass;
``estimate_tokens_non_ascii_us`` times the same prompt with one ``é`` added,
which takes the regex path.

Then a ``DenseRetriever`` embeds the corpus in-process with the benchmark's
scripted model (``bench/scripted.embed_text``, 256 dimensions), and the
probe reports ``dense_search_ms_per_query`` (``retrieve`` at k = 20, query
embedding included) and ``dense_cpu_per_wall``: the process's CPU seconds
per wall second over the questions again, with a 5 ms sleep after each, as
a caller waiting on a model would. A value near 1 or above means a thread
kept a CPU busy while the caller slept. Last come the embedding cache that
this cold ``DenseRetriever`` wrote: ``embedding_cache_save_s`` times one
``EmbeddingCache.save`` of it, ``embedding_cache_load_s`` a warm
``DenseRetriever`` construction over it (fingerprints, cache read, norms),
and ``embedding_cache_bytes`` is its size. Its rows are then written as an
embed transcript, as record mode writes one: ``embed_transcript_load_s``
times one ``TranscriptEmbedBackend`` load of it, ``embed_transcript_held_mib``
is what a second, separate load holds (``tracemalloc``'s current size once
it returns), and ``embed_transcript_bytes`` is the file's size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
K = 20


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def measure(inputs: Path) -> dict:
    """The timings of one cold set-up over the inputs in ``inputs``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from ragsel.corpus import CorpusError, load_corpus, load_questions
    from ragsel.files import iter_jsonl, write_jsonl
    from ragsel.gateway import TranscriptEmbedBackend, estimate_tokens
    from ragsel.retrieval import DenseRetriever, EmbeddingCache, analyze, build_index, load_index, save_index, search
    from ragsel.selection import Strategy, render_prompt
    from scripted import embed_text

    corpus, index_path, cache_path = inputs / "corpus.jsonl", inputs / "index.npz", inputs / "embeddings.npz"
    record = {}

    def timed(name, step):
        start = time.perf_counter()
        value = step()
        record[name] = round(time.perf_counter() - start, 4)
        return value

    def held_mib(load):
        """What ``load()``'s value holds once it returns: tracemalloc's current size, in MiB."""
        tracemalloc.start()
        value = load()  # kept alive until its size is read
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return round(size / 2**20, 1)

    timed("sha256_s", lambda: sha256_file(corpus))
    timed("iter_jsonl_s", lambda: sum(1 for _ in iter_jsonl(corpus, CorpusError)))
    store = timed("load_corpus_s", lambda: load_corpus(corpus))
    timed("digest_s", store.digest)
    index = timed("build_index_s", lambda: build_index(store))
    timed("save_index_s", lambda: save_index(index, index_path))
    del index
    index = timed("load_index_s", lambda: load_index(index_path))
    questions = [q.question for q in load_questions(inputs / "questions.jsonl")]
    start = time.perf_counter()
    for question in questions:
        search(index, question, K)
    record["search_ms_per_query"] = round(1000 * (time.perf_counter() - start) / len(questions), 4)
    terms = [{index.terms.get(term) for term in analyze(question, index.analyzer)} - {None} for question in questions]
    postings = sum(int(index.offsets[t + 1] - index.offsets[t]) for known in terms for t in known)
    record["search_postings_per_query"] = round(postings / len(questions), 1)
    record["queries"] = len(questions)
    texts = [store.get(pid).text for pid in search(index, questions[0], K).ids]
    prompt = render_prompt(Strategy.REQUIREMENT_COT, questions[0], texts)
    for name, text in (("estimate_tokens_us", prompt), ("estimate_tokens_non_ascii_us", prompt + "\u00e9")):
        best = min(timeit.repeat(lambda: estimate_tokens(text), number=200, repeat=5)) / 200
        record[name] = round(1e6 * best, 1)
    record["index_bytes"] = index_path.stat().st_size
    record["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    del index
    record["index_held_mib"] = held_mib(lambda: load_index(index_path))
    timed("load_corpus_dirty_s", lambda: load_corpus(inputs / "corpus_dirty.jsonl"))
    backend = SimpleNamespace(model="embed", embed=lambda texts: [embed_text(t) for t in texts])
    dense = DenseRetriever(backend, store, cache_path)
    start = time.perf_counter()
    for question in questions:
        dense.retrieve(question, K)
    record["dense_search_ms_per_query"] = round(1000 * (time.perf_counter() - start) / len(questions), 4)
    cpu, wall = time.process_time(), time.perf_counter()
    for question in questions:
        dense.retrieve(question, K)
        time.sleep(0.005)
    record["dense_cpu_per_wall"] = round((time.process_time() - cpu) / (time.perf_counter() - wall), 3)
    del dense
    cache = EmbeddingCache.load(cache_path)
    timed("embedding_cache_save_s", lambda: cache.save(cache_path))
    del cache
    timed("embedding_cache_load_s", lambda: DenseRetriever(backend, store, cache_path))
    record["embedding_cache_bytes"] = cache_path.stat().st_size
    cache, transcript = EmbeddingCache.load(cache_path), inputs / "embed_transcript.jsonl"
    rows = zip(cache.fingerprints, cache.matrix)
    write_jsonl(transcript, ({"fingerprint": fp, "vector": v.tolist()} for fp, v in rows))
    del cache
    timed("embed_transcript_load_s", lambda: TranscriptEmbedBackend(transcript, "embed"))
    record["embed_transcript_held_mib"] = held_mib(lambda: TranscriptEmbedBackend(transcript, "embed"))
    record["embed_transcript_bytes"] = transcript.stat().st_size
    return record


def write_dirty_copy(inputs: Path) -> None:
    """``corpus_dirty.jsonl``: the corpus with a tab before each text and its first space doubled."""
    with (
        open(inputs / "corpus.jsonl", encoding="utf-8") as src,
        open(inputs / "corpus_dirty.jsonl", "w", encoding="utf-8") as out,
    ):
        for line in src:
            row = json.loads(line)
            row["text"] = "\t" + row["text"].replace(" ", "  ", 1)
            out.write(json.dumps(row, ensure_ascii=False) + "\n")


def probe(passages: int, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        sizes = f"{passages},{min(600, passages // 4)},1,10"
        gen = [sys.executable, str(ROOT / "bench" / "gen.py"), "--out", tmp, "--seed", str(seed), "--sizes", sizes]
        subprocess.run(gen, check=True)
        write_dirty_copy(Path(tmp))
        child = [sys.executable, str(Path(__file__).resolve()), "--measure", tmp]
        measured = json.loads(subprocess.run(child, check=True, capture_output=True, text=True).stdout)
    return {"passages": passages, "seed": seed, **measured}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="2000", help="comma-separated passage counts")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # the per-size child process
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    sizes = [int(n) for n in args.sizes.split(",")]
    if min(sizes) < 4:
        # bench/gen.py writes passages // 4 questions, and search is timed per question
        parser.error("each size must be at least 4 passages")
    for passages in sizes:
        print(json.dumps(probe(passages, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
