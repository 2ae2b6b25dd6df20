#!/usr/bin/env python3
"""Seeded offline benchmark for ragsel.

    python3 bench/run.py --workload bm25-scale --seed 1 --seconds 20 --trace 0

Generates one workload's inputs from the seed, then drives ragsel's public
functions the way ``ragsel index`` / ``run`` / ``eval`` / ``distill`` do:

1. set-up, repeated ``SETUP_REPS`` times (median reported);
2. run: closed-loop batches of ``run_benchmark`` + ``write_traces`` +
   ``write_manifest`` with ``concurrency`` = nproc;
3. eval: ``load_corpus`` + ``read_traces`` + ``evaluate_traces`` +
   ``MetricReport.save`` + ``write_plot_data`` over the first
   ``EVAL_BATCHES`` batches' traces;
4. distill: ``run_labeling`` interrupted by ``limit`` and then resumed.

Units of phases 2-4 interleave over ``--seconds``, split by the workload's
``shares``; each unit and each set-up starts after a full garbage
collection, so none pays for the garbage of the one before. The
benchmark process runs on one CPU and the HTTP stub on another (see
``pin_cpus``); an idle-priority busy loop keeps each CPU from halting
(see ``BusyLoops``). Correctness checks run after the measurements; any
failure makes the run exit 1.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
and prints the per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object. Metric names and units come from
BENCHMARK.json at the repository root. Working files go to ``.bench_work/``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    retriever: str
    sizes: tuple[int, int, int, int]  # passages, topics, questions per topic, label queries
    shares: tuple[float, float, float]  # run, eval, distill share of --seconds


# The dense-http corpus stays at 2000 passages: precompute_embeddings starts
# one thread per 16-passage batch, so this caps set-up at 125 threads.
WORKLOADS = {
    "bm25-scale": Workload("bm25", (10_000, 600, 1, 500), (0.6, 0.15, 0.25)),
    "dense-http": Workload("dense", (2_000, 400, 3, 500), (0.6, 0.15, 0.25)),
}

BATCH = 40  # a multiple of 10, so every batch holds each planted class equally
EVAL_BATCHES = 5
SETUP_REPS = 3
MIN_REPS = 3
K = 20
SAMPLE_CHECKS = 8
# query_p95_ms is the median over windows of this many consecutive queries
# of each window's p95, so 10 samples lie beyond each window's p95. Pooled
# over a run, p95 jumped up to 2x whenever a slow phase of the host covered
# more than 5% of the run; the median moves only if it covers half the windows.
P95_WINDOW = 200
HTTP_BACKOFF = 0.002
FALLBACK_SHARE = 0.2  # selection class C of A-E


def _median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """Inclusive-method percentile, q in 1..99."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pin_cpus() -> list[int]:
    """Pin this process to its first allowed CPU; return the allowed CPUs.

    ragsel's threads share the GIL, so one CPU loses them little work. On a
    virtualised 2-CPU host, hand-offs of the GIL between CPUs made 2-thread
    throughput swing by up to 1.8x from minute to minute while one-thread
    work stayed within 20%; one CPU keeps the hand-offs local. The stub gets
    the last CPU, as a remote endpoint would not share the client's.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


# Busy loop for one CPU: argv is the CPU and the benchmark's pid; it ends
# when killed or when the benchmark process is gone.
_BUSY_LOOP = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == int(sys.argv[2]):
    for _ in range(100_000):
        pass
"""


class BusyLoops:
    """A SCHED_IDLE busy loop on each CPU, stopped by ``close``.

    On a virtualised host a CPU with nothing to run halts, and waking it
    waits for the host: a 2 ms cross-CPU round trip measured p90 3.2-3.9 ms
    with idle CPUs and 2.2 ms with these loops. How long depends on the
    neighbours' load, so HTTP round trips and pool hand-offs slowed by up
    to 2x for tens of seconds while in-process work did not. The loops
    keep the CPUs out of halt; SCHED_IDLE makes them yield at once to any
    other runnable thread.
    """

    def __init__(self, cpus: list[int]):
        self.procs = [
            subprocess.Popen([sys.executable, "-c", _BUSY_LOOP, str(cpu), str(os.getpid())]) for cpu in cpus
        ]

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait(timeout=10)


class Stub:
    """The HTTP stub in its own process, stopped by ``close``."""

    def __init__(self, seed: int, cpu: int, log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--seed", str(seed), "--cpu", str(cpu), "--parent", str(os.getpid())],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError(f"stub failed to start; see {log_path}")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self, reset: bool = False) -> dict:
        import requests

        response = requests.get(self.url + "/stats" + ("?reset=1" if reset else ""), timeout=30)
        response.raise_for_status()
        return response.json()["calls"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._log.close()


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path, nproc: int, stub_cpu: int):
        from ragsel import PipelineConfig

        import tracing

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.nproc = nproc
        self.stub_cpu = stub_cpu
        self.tracer = tracing.Tracer()
        self.clock = tracing.QueryClock()
        self.config = PipelineConfig(k=K, concurrency=self.nproc)
        self.failures: list[str] = []
        self.stub: Stub | None = None

    # --- inputs and backends --------------------------------------------

    def generate(self) -> None:
        sizes = ",".join(str(v) for v in self.workload.sizes)
        inputs = self.work / "inputs"
        # a separate process, so generation does not count in peak_rss_mb
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--out", str(inputs), "--seed", str(self.seed), "--sizes", sizes],
            check=True,
        )
        self.plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
        for key in ("corpus", "questions", "label_input", "teacher_transcript"):
            self.plan[key] = inputs / self.plan[key]

    def connect(self) -> None:
        from ragsel import HttpChatBackend, HttpEmbedBackend

        import scripted
        import tracing

        http = self.workload.retriever == "dense"
        if http:
            self.stub = Stub(self.seed, self.stub_cpu, self.work / "stub.log")
            chat = HttpChatBackend(self.stub.url, timeout=30, backoff_base=HTTP_BACKOFF)
            embed = HttpEmbedBackend(self.stub.url, "embed", timeout=30, backoff_base=HTTP_BACKOFF)
            self.embed = tracing.EmbedProxy(embed, self.tracer)
        else:
            chat = scripted.ScriptedChatBackend()
            self.embed = None
        self.select_backend = tracing.ChatProxy(chat, "select", self.tracer, self.clock, keyed=http)
        self.answer_backend = tracing.ChatProxy(chat, "generate", self.tracer, self.clock, keyed=http, ends_query=True)

    # --- phases -------------------------------------------------------------

    def setup_once(self):
        """Cold start until the first query can run; returns seconds."""
        from ragsel import Bm25Retriever, TranscriptChatBackend, build_index, load_corpus
        from ragsel.retrieval import DenseRetriever, load_index, precompute_embeddings, save_index

        span = self.tracer.span
        start = time.perf_counter()
        with span("setup", root=True):
            with span("transcript.load"):
                teacher = TranscriptChatBackend(self.plan["teacher_transcript"])
            with span("corpus.load"):
                store = load_corpus(self.plan["corpus"])
            if self.workload.retriever == "bm25":
                path = self.work / "index.json"
                with span("index.build"):
                    index = build_index(store)
                with span("index.save"):
                    save_index(index, path)
                del index
                with span("index.load"):
                    retriever = Bm25Retriever(load_index(path))
            else:
                path = self.work / "embeddings.jsonl"
                path.unlink(missing_ok=True)
                with span("index.build", root=True):
                    precompute_embeddings(self.embed, store, path)
                with span("index.load"):
                    retriever = DenseRetriever(self.embed, store, path)
                    # the warm cache read that every later ragsel run pays
                    retriever._ensure_cache()
        seconds = time.perf_counter() - start
        self.store, self.retriever, self.teacher_backend = store, retriever, teacher
        self.index_bytes = path.stat().st_size
        return seconds

    def setup(self) -> None:
        import tracing

        self.tracer.enabled = self.trace
        self.setup_s = []
        with tracing.patched(self.tracer):
            for _ in range(SETUP_REPS):
                self.store = self.retriever = self.teacher_backend = None
                gc.collect()
                self.setup_s.append(self.setup_once())
        self.tracer.enabled = False
        self.retriever_proxy = tracing.RetrieverProxy(self.retriever, self.tracer, self.clock)
        self.teacher = tracing.ChatProxy(self.teacher_backend, "teacher", self.tracer, None, keyed=False)
        if self.embed is not None:
            self.embed.calls.clear()

    def run_batch(self, index: int, traced: bool) -> dict:
        from ragsel import run_benchmark
        from ragsel.pipeline import write_manifest, write_traces

        import tracing

        questions = self.questions
        batch = [questions[(index * BATCH + j) % len(questions)] for j in range(BATCH)]
        out = self.work / "run"
        out.mkdir(exist_ok=True)
        self.clock.latencies = []
        for proxy in (self.select_backend, self.answer_backend, self.embed):
            if proxy is not None:
                proxy.calls = []
        self.tracer.enabled = traced
        with tracing.patched(self.tracer), self.tracer.span("batch", root=True):
            t0 = time.perf_counter()
            with self.tracer.span("pipeline.run"):
                traces, manifest = run_benchmark(
                    batch, self.retriever_proxy, self.store, self.select_backend, self.answer_backend, self.config
                )
            t1 = time.perf_counter()
            write_traces(out / "traces.jsonl", traces)
            t2 = time.perf_counter()
            write_manifest(out / "manifest.json", manifest)
            t3 = time.perf_counter()
        self.tracer.enabled = False
        calls = self.select_backend.calls + self.answer_backend.calls
        data = (out / "traces.jsonl").read_bytes()
        # keep only what the checks need, so bookkeeping stays out of peak_rss_mb
        return {
            "traced": traced,
            "questions": batch,
            "traces": traces if index == 0 else None,
            "bytes": data if index < EVAL_BATCHES else None,
            "traces_bytes": len(data),
            "qps": len(batch) / (t3 - t0),
            "write_s": t2 - t1,
            "latencies": self.clock.latencies,
            "errors": manifest["failure_count"],
            "chat_calls": calls,
            "embed_calls": list(self.embed.calls) if self.embed is not None else [],
        }

    def run_unit(self) -> None:
        i = len(self.batches)
        self.batches.append(self.run_batch(i, traced=self.trace and i % 2 == 0))
        if len(self.batches) == EVAL_BATCHES:
            self.eval_traces.write_bytes(b"".join(b["bytes"] for b in self.batches))

    def eval_unit(self) -> None:
        from ragsel import evaluate_traces, load_corpus
        from ragsel.metrics import write_plot_data
        from ragsel.pipeline import read_traces

        span = self.tracer.span
        out = self.work / "eval" / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.tracer.enabled = self.trace
        start = time.perf_counter()
        with span("eval", root=True):
            with span("eval.corpus.load"):
                store = load_corpus(self.plan["corpus"])
            with span("metrics.read_traces"):
                traces = read_traces(self.eval_traces)
            with span("metrics.evaluate"):
                report = evaluate_traces(traces, store)
            with span("metrics.save"):
                report.save(out / "report.json")
                write_plot_data(report, out / "plots")
        self.eval_s.append(time.perf_counter() - start)
        self.tracer.enabled = False
        self.report = report

    def label(self, out_dir: Path, limit: int | None):
        from ragsel import run_labeling
        from ragsel.selection import Strategy

        return run_labeling(
            self.plan["label_input"],
            self.teacher,
            "teacher",
            out_dir / "records.jsonl",
            out_dir / "records.checkpoint",
            expected_candidates=20,
            limit=limit,
            variants=(Strategy.COT, Strategy.SELECTION_ONLY),
            concurrency=self.nproc,
        )

    def distill_unit(self) -> None:
        span = self.tracer.span
        rep = len(self.distill_s)
        out = self.work / "distill" / str(rep)
        out.mkdir(parents=True)
        self.tracer.enabled = self.trace
        start = time.perf_counter()
        with span("distill.leg", root=True):
            first = self.label(out, len(self.plan["label_outcomes"]) // 2)
        with span("distill.leg", root=True):
            second = self.label(out, None)
        self.distill_s.append(time.perf_counter() - start)
        self.tracer.enabled = False
        self.distill_legs.append((first, second))
        if rep:
            shutil.rmtree(out)

    def measure(self) -> None:
        """Interleave run, eval and distill units until ``seconds`` are
        spent, each phase getting its share; every phase's samples then
        spread over the whole run instead of one stretch of it."""
        from ragsel import load_questions

        self.questions = load_questions(self.plan["questions"])
        (self.work / "eval").mkdir()
        self.eval_traces = self.work / "eval" / "traces.jsonl"
        self.batches, self.eval_s, self.distill_s, self.distill_legs = [], [], [], []
        self.distill_out = self.work / "distill" / "0" / "records.jsonl"
        units = {"run": self.run_unit, "eval": self.eval_unit, "distill": self.distill_unit}
        samples = {"run": self.batches, "eval": self.eval_s, "distill": self.distill_s}
        least = {"run": EVAL_BATCHES + (1 if self.trace else 0), "eval": MIN_REPS, "distill": MIN_REPS}
        share = dict(zip(units, self.workload.shares))
        used = dict.fromkeys(units, 0.0)
        if self.stub is not None:
            self.stub.stats(reset=True)
        while True:
            ready = [p for p in units if p != "eval" or len(self.batches) >= EVAL_BATCHES]
            short = [p for p in ready if len(samples[p]) < least[p]]
            if not short and sum(used.values()) >= self.seconds:
                break
            phase = min(short or ready, key=lambda p: used[p] / share[p])
            gc.collect()
            start = time.perf_counter()
            units[phase]()
            used[phase] += time.perf_counter() - start
        self.stub_calls = self.stub.stats() if self.stub is not None else None

    # --- correctness ------------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        print(f"check {'ok  ' if ok else 'FAIL'} {message}")
        if not ok:
            self.failures.append(message)

    def check_fixture(self) -> None:
        from ragsel.cli import main as cli_main

        out = self.work / "fixture"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", "--config", str(ROOT / "fixtures" / "config.json"), "--output-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        got = (code, manifest["query_count"], manifest["failure_count"], manifest["fallback_count"])
        self.check(got == (0, 25, 0, 5), f"fixture replay: exit, queries, failures, fallbacks = {got}, want (0, 25, 0, 5)")

    def check_retrieval(self) -> None:
        import reference

        sample = self.batches[0]["traces"][:: BATCH // SAMPLE_CHECKS]
        if self.workload.retriever == "bm25":
            ref = reference.Bm25Reference(self.store, [q.question for q in self.questions])
            self.postings_per_query = statistics.fmean(
                ref.postings(q.question) for b in self.batches for q in b["questions"]
            )
        else:
            ref = reference.CosineReference(self.store)
            self.postings_per_query = float(len(self.store))
        bad = [
            f"{t.question.id}: {problem}"
            for t in sample
            if (problem := reference.compare(ref.search(t.question.question, K), t.candidates))
        ]
        self.check(not bad, f"retrieval matches the brute-force reference on {len(sample)} queries {bad[:2]}")

    def check_run(self) -> None:
        errors = sum(b["errors"] for b in self.batches)
        self.check(errors == 0, f"run: {errors} trace errors in {len(self.batches) * BATCH} queries")
        first = self.batches[0]
        again = self.run_batch(0, traced=not first["traced"])
        self.check(again["bytes"] == first["bytes"], "traces.jsonl byte-identical between traced and untraced runs")
        report = self.report
        sources = [row.get("judgment_source") for row in report.per_query]
        want_n = EVAL_BATCHES * BATCH
        self.check(
            report.counts["queries"] == want_n and report.counts["errors"] == 0,
            f"eval: {report.counts['queries']} traces, {report.counts['errors']} errors, want {want_n}, 0",
        )
        self.check(
            sources.count("gold_ids") == sources.count("evidence") == want_n // 2,
            "eval: half the questions judged by gold ids, half by evidence",
        )
        self.check(
            report.fallback_rate == FALLBACK_SHARE,
            f"selection fallback rate {report.fallback_rate} equals the planted share {FALLBACK_SHARE}",
        )

    def check_distill(self) -> None:
        from collections import Counter

        planned = Counter(self.plan["label_outcomes"].values())
        accepted = planned.pop("accepted")
        out = self.work / "distill" / "uninterrupted"
        out.mkdir(parents=True)
        whole = self.label(out, None)
        self.check(
            whole.accepted == accepted and dict(whole.reject_reasons) == dict(planned),
            f"distill: accepted {whole.accepted}, rejects {dict(whole.reject_reasons)}; planted {accepted}, {dict(planned)}",
        )
        legs_ok = all(a.accepted + b.accepted == accepted for a, b in self.distill_legs)
        self.check(legs_ok, "distill: interrupted + resumed legs accept the planted count")
        same = (out / "records.jsonl").read_bytes() == self.distill_out.read_bytes()
        self.check(same, "distill: resumed records file equals one uninterrupted labeling")
        self.label_failures = sum(abs(a.accepted + b.accepted - accepted) for a, b in self.distill_legs)

    # --- metrics ------------------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict:
        untraced = [b for b in self.batches if not b["traced"]]
        latencies = [x * 1000 for b in untraced for x in b["latencies"]]
        windows = [latencies[i : i + P95_WINDOW] for i in range(0, len(latencies) - P95_WINDOW + 1, P95_WINDOW)]
        eff = self.report.efficiency
        return {
            "setup_s": (_median(self.setup_s), f"median of {len(self.setup_s)} set-ups"),
            "run_qps": (_median([b["qps"] for b in untraced]), f"median of {len(untraced)} batches of {BATCH}"),
            "query_p50_ms": (percentile(latencies, 50), f"n={len(latencies)}"),
            "query_p95_ms": (_median([percentile(w, 95) for w in windows]), f"median of {len(windows)} windows of {P95_WINDOW}, n={len(latencies)}"),
            "eval_s": (_median(self.eval_s), f"median of {len(self.eval_s)}, {EVAL_BATCHES * BATCH} traces"),
            "distill_s": (_median(self.distill_s), f"median of {len(self.distill_s)}, {len(self.plan['label_outcomes'])} label queries"),
            "peak_rss_mb": (peak_rss_mb, "this process"),
            "selector_completion_tokens_mean": (eff["mean_selector_completion_tokens"], f"n={EVAL_BATCHES * BATCH}"),
            "generator_prompt_tokens_mean": (eff["mean_generator_prompt_tokens"], f"n={EVAL_BATCHES * BATCH}"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        traced = [b for b in self.batches if b["traced"]]
        untraced = [b for b in self.batches if not b["traced"]]

        def dur(name):
            return [s.duration for s in tr.named(name)]

        def ms(values):
            return [v * 1000 for v in values]

        build = []
        for s in tr.named("index.build"):
            saves = [c.duration for c in tr.spans if c.parent == s.id and c.name == "index.save"]
            build.append(s.duration - sum(saves))
        chat = [c for b in traced for c in b["chat_calls"]]
        embeds = [c for b in traced for c in b["embed_calls"]]
        if self.stub_calls is None:
            overhead = [c.client_s - c.service_s for c in chat]
            attempts = 1.0
        else:
            all_calls = [c for b in self.batches for c in b["chat_calls"] + b["embed_calls"]]
            seen = {}
            for c in all_calls:
                seen[c.key] = seen.get(c.key, 0) + 1
            overhead = [
                c.client_s - self.stub_calls[c.key][1]
                for c in chat + embeds
                if seen[c.key] == 1 and c.key in self.stub_calls
            ]
            attempts = sum(self.stub_calls[k][0] for k in seen if k in self.stub_calls) / len(all_calls)
        legs = tr.named("distill.leg")
        teacher = tr.named("chat.teacher")
        leg_self = tr.self_times("distill.leg")
        scans = [min(t.start for t in teacher if t.parent == leg.id) - leg.start for leg in legs[1::2]]
        run_wall = sum(s.duration for s in tr.named("pipeline.run"))
        evaluated = EVAL_BATCHES * BATCH
        first, second = self.distill_legs[0]
        labeled = first.accepted + first.rejected + second.accepted + second.rejected
        untraced_qps = _median([b["qps"] for b in untraced])
        return {
            "corpus.load_s": _median(dur("corpus.load")),
            "retrieval.index_build_s": _median(build),
            "retrieval.index_save_s": _median(dur("index.save")),
            "retrieval.index_load_s": _median(dur("index.load")),
            "retrieval.index_bytes": self.index_bytes,
            "retrieval.search_ms_p50": percentile(ms(tr.self_times("retrieve")), 50),
            "retrieval.search_ms_p95": percentile(ms(tr.self_times("retrieve")), 95),
            "retrieval.postings_per_query": self.postings_per_query,
            "selection.self_ms_p50": percentile(ms(tr.self_times("select")), 50),
            "selection.fallback_frac": self.report.fallback_rate,
            "selection.selected_mean": self.report.efficiency["mean_selected_count"],
            "gateway.chat_calls": len(chat),
            "gateway.embed_calls": len(embeds),
            "gateway.chat_ms_p50": percentile(ms(c.client_s for c in chat), 50),
            "gateway.chat_ms_p95": percentile(ms(c.client_s for c in chat), 95),
            "gateway.overhead_ms_p50": percentile(ms(overhead), 50),
            "gateway.attempts_per_call": attempts,
            "gateway.transcript_load_s": _median(dur("transcript.load")),
            "pipeline.query_self_ms_p50": percentile(ms(tr.self_times("query")), 50),
            "pipeline.inflight_mean": sum(dur("query")) / run_wall,
            "pipeline.write_traces_s": _median([b["write_s"] for b in traced]),
            "pipeline.traces_bytes": _median([b["traces_bytes"] for b in traced]),
            "metrics.read_traces_s": _median(dur("metrics.read_traces")),
            "metrics.evaluate_ms_per_trace": _median(ms(dur("metrics.evaluate"))) / evaluated,
            "metrics.save_s": _median(dur("metrics.save")),
            "distill.teacher_ms_p50": percentile(ms(s.duration for s in teacher), 50),
            "distill.self_s": _median([a + b for a, b in zip(leg_self[0::2], leg_self[1::2])]),
            "distill.resume_scan_s": _median(scans),
            "distill.records_written": self.distill_out.read_bytes().count(b"\n"),
            "distill.output_bytes": self.distill_out.stat().st_size,
            "distill.accept_frac": (first.accepted + second.accepted) / labeled,
            "tracing.overhead_pct": 100.0 * (1.0 - _median([b["qps"] for b in traced]) / untraced_qps),
        }

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


def _environment(nproc: int) -> dict:
    import numpy

    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "ragsel").rglob("*.py"))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_ragsel_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded offline benchmark for ragsel.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured time, shared by run, eval and distill")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ragsel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no ragsel sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ragsel

    if not Path(ragsel.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported ragsel from {ragsel.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # the benchmark logs errors only, like a user who silences warnings
    logging.basicConfig(level=logging.ERROR)
    # the stub is local; never route its traffic through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    cpus = pin_cpus()
    nproc = len(cpus)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work, nproc, cpus[-1])
    busy = BusyLoops(cpus)
    try:
        env = _environment(nproc)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
        bench.generate()
        print(f"inputs sha256 {bench.plan['inputs_sha256']}")
        bench.check_fixture()
        bench.connect()
        bench.setup()
        bench.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bench.check_retrieval()
        bench.check_run()
        bench.check_distill()
        if args.trace:
            values = bench.per_layer()
            notes = {}
        else:
            measured = bench.end_to_end(peak_rss_mb)
            values = {name: v for name, (v, _) in measured.items()}
            notes = {name: note for name, (_, note) in measured.items()}
    finally:
        busy.close()
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics = {}
    module = None
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        if args.trace and name.split(".")[0] != module:
            module = name.split(".")[0]
            print(f"[{module}]")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")
    queries = sum(BATCH for _ in bench.batches)
    labeled = sum(a.accepted + a.rejected + b.accepted + b.rejected for a, b in bench.distill_legs)
    failed = sum(b["errors"] for b in bench.batches) + bench.label_failures
    print(
        json.dumps(
            {"correct": not bench.failures, "attempted": queries + labeled, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
