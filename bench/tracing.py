"""Span recording and the thin wrappers the benchmark hands to ragsel.

The wrappers sit on the retriever and backend objects passed into the
program; ``patched`` also wraps ``run_query``, ``select`` and
``EmbeddingCache.save`` by name for the length of a traced section. Spans
stay in memory. A span's self time is its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import scripted


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    query_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; a no-op otherwise.

    Spans opened on a thread with no open span attach to ``root``, so
    work that ragsel runs on its own pool threads nests under the section
    that started it.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.root: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)

    def set_query(self, query_id: str | None) -> None:
        self._local.query_id = query_id

    @contextmanager
    def span(self, name: str, root: bool = False):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)  # itertools.count is atomic under the GIL
        saved_root = self.root
        if root:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = saved_root
            query_id = getattr(self._local, "query_id", None)
            self.spans.append(Span(sid, name, start, end, parent, query_id))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return [s.duration - _covered(s, children.get(s.id, ())) for s in self.named(name)]


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class QueryClock:
    """Per-query latency: from the retriever call to the answer call's
    return, or to the first failing call."""

    def __init__(self):
        self._local = threading.local()
        self.latencies: list[float] = []

    def start(self) -> None:
        self._local.start = time.perf_counter()

    def stop(self) -> None:
        start = getattr(self._local, "start", None)
        if start is not None:
            self.latencies.append(time.perf_counter() - start)
            self._local.start = None


@dataclass
class Call:
    key: str | None
    client_s: float
    service_s: float | None


class RetrieverProxy:
    def __init__(self, inner, tracer: Tracer, clock: QueryClock):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.clock = clock

    def retrieve(self, query: str, k: int, query_id: str = ""):
        self.clock.start()
        self.tracer.set_query(query_id)
        try:
            with self.tracer.span("retrieve"):
                return self.inner.retrieve(query, k, query_id=query_id)
        except BaseException:
            self.clock.stop()
            raise


class ChatProxy:
    """Chat backend wrapper. ``role`` names the span; ``ends_query`` marks
    the answer call, whose return ends a query's latency."""

    def __init__(self, inner, role: str, tracer: Tracer, clock: QueryClock | None, keyed: bool, ends_query: bool = False):
        self.inner = inner
        self.role = role
        self.tracer = tracer
        self.clock = clock
        self.keyed = keyed
        self.ends_query = ends_query
        self.calls: list[Call] = []

    def describe(self) -> dict:
        return self.inner.describe()

    def chat(self, request):
        start = time.perf_counter()
        try:
            with self.tracer.span("chat." + self.role):
                result = self.inner.chat(request)
        except BaseException:
            if self.clock is not None:
                self.clock.stop()
            raise
        client_s = time.perf_counter() - start
        if self.clock is not None and self.ends_query:
            self.clock.stop()
        key = scripted.request_key(request.model, [m["content"] for m in request.messages]) if self.keyed else None
        service = getattr(self.inner, "last_service_s", None)
        self.calls.append(Call(key, client_s, service))
        return result


class EmbedProxy:
    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.model = inner.model
        self.tracer = tracer
        self.calls: list[Call] = []

    def describe(self) -> dict:
        return self.inner.describe()

    def embed(self, texts):
        start = time.perf_counter()
        with self.tracer.span("embed"):
            vectors = self.inner.embed(texts)
        self.calls.append(Call(scripted.request_key(self.model, texts), time.perf_counter() - start, None))
        return vectors


@contextmanager
def patched(tracer: Tracer):
    """Wrap ragsel's per-query and selection functions and the embedding
    cache save in spans; restores the originals on exit."""
    if not tracer.enabled:
        yield
        return
    from ragsel import pipeline, retrieval

    run_query, select, cache_save = pipeline.run_query, pipeline.select, retrieval.EmbeddingCache.save

    def traced_run_query(question, *args, **kwargs):
        tracer.set_query(question.id)
        with tracer.span("query"):
            return run_query(question, *args, **kwargs)

    def traced_select(*args, **kwargs):
        with tracer.span("select"):
            return select(*args, **kwargs)

    def traced_save(self, path):
        with tracer.span("index.save"):
            return cache_save(self, path)

    pipeline.run_query, pipeline.select, retrieval.EmbeddingCache.save = traced_run_query, traced_select, traced_save
    try:
        yield
    finally:
        pipeline.run_query, pipeline.select, retrieval.EmbeddingCache.save = run_query, select, cache_save

