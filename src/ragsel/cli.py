"""Command-line entry points.

Every command reads one JSON config file; ``--set dotted.key=value`` and a
few explicit flags override it. The fully merged config is what a run
embeds (and hashes) in its manifest, so artifacts always state the exact
settings that produced them.

API credentials are configured as environment variable *names*
(``api_key_env``); key material never appears in config files, command
lines, logs, or manifests.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import CorpusError, DEFAULT_CHUNK_LIMIT, load_corpus, load_questions
from .distill import DistillError, run_labeling
from .gateway import (
    HttpChatBackend,
    HttpEmbedBackend,
    TranscriptChatBackend,
    TranscriptEmbedBackend,
)
from .metrics import MetricReport, MetricsConfig, MetricsError, evaluate_traces, write_plot_data
from .pipeline import (
    PipelineConfig,
    PromptStyle,
    read_traces,
    run_benchmark,
    write_manifest,
    write_traces,
)
from .retrieval import (
    AnalyzerConfig,
    Bm25Retriever,
    DenseRetriever,
    RetrievalError,
    build_index,
    load_index,
    save_index,
)
from .selection import SelectionError, Strategy, select


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _backend_defaults(model: str) -> dict:
    return {
        "kind": "transcript",
        "model": model,
        "transcript": None,
        "record": False,
        "endpoint": None,
        "api_key_env": None,
        "timeout": 60.0,
        "max_attempts": 3,
        "backoff_base": 1.0,
    }


def default_config() -> dict:
    return {
        "paths": {
            "corpus": None,
            "questions": None,
            "output_dir": "out",
            "index": None,
            "embedding_cache": None,
            "traces": None,
            "report": None,
            "distill_input": None,
            "distill_output": None,
            "distill_checkpoint": None,
        },
        "chunk_limit": DEFAULT_CHUNK_LIMIT,
        "retriever": {
            "kind": "bm25",
            "k": 20,
            "k1": 1.2,
            "b": 0.75,
            "lowercase": True,
            "stopwords": [],
        },
        "strategy": "requirement_cot",
        "prompt_style": "general",
        "concurrency": 4,
        "rerank_truncate": 5,
        "selection_max_tokens": None,
        "generation_max_tokens": 256,
        "templates_dir": None,
        "selection_backend": _backend_defaults("selector"),
        "generation_backend": _backend_defaults("generator"),
        "embedding_backend": _backend_defaults("embedder"),
        "metrics": {
            "hit_mode": "any",
            "precision_denominator": "k",
            "rank_k": 10,
            "pr_k": 5,
            "max_k": 10,
        },
        "distill": {
            "teacher_model": None,
            "expected_candidates": 20,
            "strict_count": True,
            "retries": 0,
            "limit": None,
            "variants": [],
        },
    }


def merge_config(base: dict, override: dict, prefix: str = "") -> dict:
    """Recursive merge that rejects keys absent from the base schema."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(path, "unknown configuration key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(path, f"expected an object, got {type(value).__name__}")
            merged[key] = merge_config(base[key], value, prefix=path + ".")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def parse_set_value(raw: str):
    """--set values parse as JSON when possible, bare strings otherwise."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def overrides_from_sets(pairs: list[str]) -> dict:
    tree: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError("--set", f"expected dotted.key=value, got {pair!r}")
        dotted, _, raw = pair.partition("=")
        dotted = dotted.strip()
        if not dotted:
            raise ConfigError("--set", f"empty key in {pair!r}")
        node = tree
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(dotted, "conflicting override path")
        node[parts[-1]] = parse_set_value(raw)
    return tree


def load_config(path: str | None, set_pairs: list[str], flag_overrides: dict) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("--config", f"no such file: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON in {path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("--config", "top level must be a JSON object")
        for section in ("selection_backend", "generation_backend", "embedding_backend"):
            if isinstance(file_cfg.get(section), dict) and "api_key" in file_cfg[section]:
                raise ConfigError(
                    f"{section}.api_key",
                    "raw credentials are not accepted; set api_key_env to the "
                    "name of an environment variable instead",
                )
        cfg = merge_config(cfg, file_cfg)
    cfg = merge_config(cfg, overrides_from_sets(set_pairs))
    cfg = merge_config(cfg, flag_overrides)
    validate_config(cfg)
    if path is not None:
        # relative paths in a config file resolve against its directory, so
        # a checked-in config works from any working directory
        base = Path(path).resolve().parent

        def resolve(value):
            if value and not Path(value).is_absolute():
                return str(base / value)
            return value

        cfg["paths"] = {key: resolve(value) for key, value in cfg["paths"].items()}
        for section in ("selection_backend", "generation_backend", "embedding_backend"):
            cfg[section]["transcript"] = resolve(cfg[section]["transcript"])
        cfg["templates_dir"] = resolve(cfg["templates_dir"])
    return cfg


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(field, message)


def validate_config(cfg: dict) -> None:
    strategies = [s.value for s in Strategy]
    _expect(cfg["strategy"] in strategies, "strategy", f"must be one of {strategies}")
    styles = [s.value for s in PromptStyle]
    _expect(cfg["prompt_style"] in styles, "prompt_style", f"must be one of {styles}")
    r = cfg["retriever"]
    _expect(r["kind"] in ("bm25", "dense"), "retriever.kind", "must be 'bm25' or 'dense'")
    _expect(isinstance(r["k"], int) and r["k"] >= 1, "retriever.k", "must be a positive integer")
    _expect(r["k1"] > 0, "retriever.k1", "must be positive")
    _expect(0.0 <= r["b"] <= 1.0, "retriever.b", "must be within [0, 1]")
    _expect(
        isinstance(cfg["concurrency"], int) and cfg["concurrency"] >= 1,
        "concurrency",
        "must be a positive integer",
    )
    _expect(
        isinstance(cfg["rerank_truncate"], int) and cfg["rerank_truncate"] >= 1,
        "rerank_truncate",
        "must be a positive integer",
    )
    limit = cfg["chunk_limit"]
    _expect(
        limit is None or (isinstance(limit, int) and limit >= 1),
        "chunk_limit",
        "must be a positive integer or null",
    )
    m = cfg["metrics"]
    _expect(m["hit_mode"] in ("any", "all"), "metrics.hit_mode", "must be 'any' or 'all'")
    _expect(
        m["precision_denominator"] in ("k", "returned"),
        "metrics.precision_denominator",
        "must be 'k' or 'returned'",
    )
    for key in ("rank_k", "pr_k", "max_k"):
        _expect(
            isinstance(m[key], int) and m[key] >= 1,
            f"metrics.{key}",
            "must be a positive integer",
        )
    for section in ("selection_backend", "generation_backend", "embedding_backend"):
        b = cfg[section]
        _expect(b["kind"] in ("transcript", "http"), f"{section}.kind", "must be 'transcript' or 'http'")
        _expect(bool(b["model"]), f"{section}.model", "must be set")
    d = cfg["distill"]
    _expect(
        isinstance(d["expected_candidates"], int) and d["expected_candidates"] >= 1,
        "distill.expected_candidates",
        "must be a positive integer",
    )
    _expect(
        isinstance(d["retries"], int) and d["retries"] >= 0,
        "distill.retries",
        "must be a non-negative integer",
    )
    _expect(
        d["limit"] is None or (isinstance(d["limit"], int) and d["limit"] >= 0),
        "distill.limit",
        "must be a non-negative integer or null",
    )
    allowed_variants = (Strategy.COT.value, Strategy.SELECTION_ONLY.value)
    for v in d["variants"]:
        _expect(v in allowed_variants, "distill.variants", f"must be among {list(allowed_variants)}")


def _require_path(cfg: dict, key: str, must_exist: bool = True) -> Path:
    value = cfg["paths"].get(key)
    _expect(bool(value), f"paths.{key}", "must be set")
    path = Path(value)
    if must_exist:
        _expect(path.exists(), f"paths.{key}", f"no such file: {path}")
    return path


def _check_backend_complete(b: dict, section: str) -> None:
    """Completeness is enforced only when a command actually uses a backend,
    so unrelated sections may stay unconfigured."""
    if b["kind"] == "http" or b["record"]:
        _expect(bool(b["endpoint"]), f"{section}.endpoint", "required for http or record mode")
    if b["kind"] == "transcript":
        _expect(bool(b["transcript"]), f"{section}.transcript", "required for transcript mode")


def build_chat_backend(cfg: dict, section: str):
    b = cfg[section]
    _check_backend_complete(b, section)
    if b["kind"] == "http":
        return HttpChatBackend(
            b["endpoint"],
            api_key_env=b["api_key_env"],
            timeout=b["timeout"],
            max_attempts=b["max_attempts"],
            backoff_base=b["backoff_base"],
        )
    record_from = None
    if b["record"]:
        record_from = HttpChatBackend(
            b["endpoint"],
            api_key_env=b["api_key_env"],
            timeout=b["timeout"],
            max_attempts=b["max_attempts"],
            backoff_base=b["backoff_base"],
        )
    return TranscriptChatBackend(b["transcript"], record_from=record_from)


def build_embed_backend(cfg: dict):
    b = cfg["embedding_backend"]
    _check_backend_complete(b, "embedding_backend")
    if b["kind"] == "http":
        return HttpEmbedBackend(
            b["endpoint"],
            b["model"],
            api_key_env=b["api_key_env"],
            timeout=b["timeout"],
            max_attempts=b["max_attempts"],
            backoff_base=b["backoff_base"],
        )
    record_from = None
    if b["record"]:
        record_from = HttpEmbedBackend(b["endpoint"], b["model"], api_key_env=b["api_key_env"])
    return TranscriptEmbedBackend(b["transcript"], b["model"], record_from=record_from)


def build_store(cfg: dict):
    corpus_path = _require_path(cfg, "corpus")
    return load_corpus(corpus_path, chunk_limit=cfg["chunk_limit"])


def build_retriever(cfg: dict, store):
    r = cfg["retriever"]
    if r["kind"] == "bm25":
        index_path = cfg["paths"].get("index")
        if index_path and Path(index_path).exists():
            index = load_index(index_path)
        else:
            analyzer = AnalyzerConfig(
                lowercase=r["lowercase"], stopwords=frozenset(r["stopwords"])
            )
            index = build_index(store, analyzer, k1=r["k1"], b=r["b"])
        return Bm25Retriever(index)
    cache_path = cfg["paths"].get("embedding_cache")
    _expect(bool(cache_path), "paths.embedding_cache", "required for the dense retriever")
    return DenseRetriever(build_embed_backend(cfg), store, cache_path)


def pipeline_config(cfg: dict) -> PipelineConfig:
    return PipelineConfig(
        strategy=Strategy(cfg["strategy"]),
        prompt_style=PromptStyle(cfg["prompt_style"]),
        k=cfg["retriever"]["k"],
        rerank_truncate=cfg["rerank_truncate"],
        concurrency=cfg["concurrency"],
        selection_model=cfg["selection_backend"]["model"],
        generation_model=cfg["generation_backend"]["model"],
        selection_max_tokens=cfg["selection_max_tokens"],
        generation_max_tokens=cfg["generation_max_tokens"],
        templates_dir=cfg["templates_dir"],
    )


def metrics_config(cfg: dict) -> MetricsConfig:
    m = cfg["metrics"]
    return MetricsConfig(
        hit_mode=m["hit_mode"],
        precision_denominator=m["precision_denominator"],
        rank_k=m["rank_k"],
        pr_k=m["pr_k"],
        max_k=m["max_k"],
    )


def _output_dir(cfg: dict) -> Path:
    out = Path(cfg["paths"]["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- commands ----------------------------------------------------------------


def cmd_config(cfg: dict, args) -> int:
    print(json.dumps(cfg, ensure_ascii=False, indent=2, sort_keys=True))
    return 0


def cmd_index(cfg: dict, args) -> int:
    store = build_store(cfg)
    r = cfg["retriever"]
    analyzer = AnalyzerConfig(lowercase=r["lowercase"], stopwords=frozenset(r["stopwords"]))
    index = build_index(store, analyzer, k1=r["k1"], b=r["b"])
    out = cfg["paths"].get("index") or _output_dir(cfg) / "index.npz"
    save_index(index, out)
    print(f"indexed {len(store)} passages ({len(index.terms)} terms) -> {out}")
    return 0


def cmd_retrieve(cfg: dict, args) -> int:
    store = build_store(cfg)
    retriever = build_retriever(cfg, store)
    k = cfg["retriever"]["k"]
    if args.query is not None:
        candidates = retriever.retrieve(args.query, k, query_id="adhoc")
        print(json.dumps(candidates.to_dict(), ensure_ascii=False, indent=2))
        return 0
    questions = load_questions(_require_path(cfg, "questions"))
    out = _output_dir(cfg) / "candidates.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        for q in questions:
            candidates = retriever.retrieve(q.question, k, query_id=q.id)
            fh.write(json.dumps(candidates.to_dict(), ensure_ascii=False) + "\n")
    print(f"retrieved top-{k} candidates for {len(questions)} queries -> {out}")
    return 0


def cmd_select(cfg: dict, args) -> int:
    store = build_store(cfg)
    retriever = build_retriever(cfg, store)
    questions = load_questions(_require_path(cfg, "questions"))
    matches = [q for q in questions if q.id == args.question_id]
    _expect(bool(matches), "--question-id", f"no question with id {args.question_id!r}")
    question = matches[0]
    candidates = retriever.retrieve(question.question, cfg["retriever"]["k"], query_id=question.id)
    if len(candidates) == 0:
        print(json.dumps({"id": question.id, "no_candidates": True}))
        return 0
    backend = build_chat_backend(cfg, "selection_backend")
    outcome = select(
        question.question,
        [store.get(pid).text for pid in candidates.ids],
        Strategy(cfg["strategy"]),
        backend,
        model=cfg["selection_backend"]["model"],
        max_tokens=cfg["selection_max_tokens"],
        templates_dir=cfg["templates_dir"],
    )
    result = {
        "id": question.id,
        "candidates": candidates.ids,
        "selected_ids": [candidates.ids[i - 1] for i in outcome.indices],
        "outcome": outcome.to_dict(),
    }
    print(json.dumps(result, ensure_ascii=False, indent=2))
    return 0


def cmd_run(cfg: dict, args) -> int:
    store = build_store(cfg)
    retriever = build_retriever(cfg, store)
    questions = load_questions(_require_path(cfg, "questions"))
    select_backend = build_chat_backend(cfg, "selection_backend")
    generate_backend = build_chat_backend(cfg, "generation_backend")
    traces, manifest = run_benchmark(
        questions,
        retriever,
        store,
        select_backend,
        generate_backend,
        pipeline_config(cfg),
        effective_config=cfg,
    )
    out = _output_dir(cfg)
    traces_path = out / "traces.jsonl"
    manifest_path = out / "manifest.json"
    write_traces(traces_path, traces)
    write_manifest(manifest_path, manifest)
    print(
        "ran {queries} queries: {failures} failed, {empty} without candidates, "
        "{fallbacks} selection fallbacks".format(
            queries=manifest["query_count"],
            failures=manifest["failure_count"],
            empty=manifest["no_candidate_count"],
            fallbacks=manifest["fallback_count"],
        )
    )
    print(f"traces -> {traces_path}")
    print(f"manifest -> {manifest_path}")
    return 1 if manifest["failure_count"] else 0


def cmd_eval(cfg: dict, args) -> int:
    traces_path = cfg["paths"].get("traces") or Path(cfg["paths"]["output_dir"]) / "traces.jsonl"
    _expect(Path(traces_path).exists(), "paths.traces", f"no such file: {traces_path}")
    store = build_store(cfg)
    traces = read_traces(traces_path)
    report = evaluate_traces(traces, store, metrics_config(cfg))
    out = _output_dir(cfg)
    report_path = out / "report.json"
    report.save(report_path)
    plot_files = write_plot_data(report, out / "plots")
    counts = report.counts
    print(
        f"evaluated {counts['queries']} traces "
        f"({counts['errors']} errors, {counts['no_candidates']} without candidates)"
    )
    for name in ("recall@5", "em", "f1", "accuracy"):
        entry = report.aggregate.get(name)
        if entry and entry["mean"] is not None:
            print(f"{name}: {entry['mean']:.4f} over {entry['count']} queries")
    if report.fallback_rate is not None:
        print(f"fallback rate: {report.fallback_rate:.4f}")
    print(f"report -> {report_path}")
    for path in plot_files:
        print(f"plot data -> {path}")
    return 0


def cmd_report(cfg: dict, args) -> int:
    report_path = cfg["paths"].get("report") or Path(cfg["paths"]["output_dir"]) / "report.json"
    _expect(Path(report_path).exists(), "paths.report", f"no such file: {report_path}")
    report = MetricReport.load(report_path)
    print(f"{'metric':<16}{'mean':>12}{'count':>8}")
    for name, entry in report.aggregate.items():
        mean = "n/a" if entry["mean"] is None else f"{entry['mean']:.4f}"
        print(f"{name:<16}{mean:>12}{entry['count']:>8}")
    print()
    for key, value in report.counts.items():
        print(f"{key}: {value}")
    if report.fallback_rate is not None:
        print(f"fallback_rate: {report.fallback_rate:.4f}")
    for key, value in report.efficiency.items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"{key}: {shown}")
    return 0


def cmd_distill(cfg: dict, args) -> int:
    input_path = _require_path(cfg, "distill_input")
    out_dir = _output_dir(cfg)
    output_path = cfg["paths"].get("distill_output") or out_dir / "distill.jsonl"
    checkpoint_path = (
        cfg["paths"].get("distill_checkpoint") or Path(str(output_path) + ".checkpoint")
    )
    backend = build_chat_backend(cfg, "selection_backend")
    d = cfg["distill"]
    model = d["teacher_model"] or cfg["selection_backend"]["model"]
    stats = run_labeling(
        input_path,
        backend,
        model,
        output_path,
        checkpoint_path,
        expected_candidates=d["expected_candidates"],
        strict_count=d["strict_count"],
        retries=d["retries"],
        limit=d["limit"],
        variants=tuple(Strategy(v) for v in d["variants"]),
        concurrency=cfg["concurrency"],
        templates_dir=cfg["templates_dir"],
    )
    print(
        f"labeled {stats.accepted} queries ({stats.rejected} rejected, "
        f"{stats.skipped} already done)"
    )
    for reason, count in sorted(stats.reject_reasons.items()):
        print(f"rejected[{reason}]: {count}")
    print(
        f"teacher usage: {stats.teacher_usage.prompt_tokens} prompt / "
        f"{stats.teacher_usage.completion_tokens} completion tokens"
    )
    print(f"records -> {output_path}")
    return 1 if stats.reject_reasons.get("transport") else 0


# --- argument parsing ----------------------------------------------------------

_FLAG_PATHS = {
    "strategy": ("strategy",),
    "prompt_style": ("prompt_style",),
    "k": ("retriever", "k"),
    "retriever": ("retriever", "kind"),
    "concurrency": ("concurrency",),
    "hit_mode": ("metrics", "hit_mode"),
    "output_dir": ("paths", "output_dir"),
    "traces": ("paths", "traces"),
    "limit": ("distill", "limit"),
}


def flag_overrides(args) -> dict:
    tree: dict = {}
    for attr, path in _FLAG_PATHS.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        node = tree
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
    return tree


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry by dotted path (value parsed as JSON when possible)",
    )
    parser.add_argument("--output-dir", dest="output_dir", help="directory for artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragsel",
        description="Set-wise passage selection pipelines: retrieve, select, answer, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="print the effective configuration")
    _add_common(p)
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("index", help="build and save a lexical index over the corpus")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="retrieve top-k candidates per question")
    _add_common(p)
    p.add_argument("--k", type=int, help="candidates per query")
    p.add_argument("--retriever", choices=["bm25", "dense"], help="retriever kind")
    p.add_argument("--query", help="run one ad-hoc query instead of the questions file")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("select", help="run selection for a single question id")
    _add_common(p)
    p.add_argument("--question-id", required=True, help="question id to select for")
    p.add_argument("--strategy", choices=[s.value for s in Strategy], help="selection strategy")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run", help="run the full pipeline over the questions file")
    _add_common(p)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], help="selection strategy")
    p.add_argument(
        "--prompt-style",
        dest="prompt_style",
        choices=[s.value for s in PromptStyle],
        help="answer prompt style",
    )
    p.add_argument("--k", type=int, help="candidates per query")
    p.add_argument("--retriever", choices=["bm25", "dense"], help="retriever kind")
    p.add_argument("--concurrency", type=int, help="parallel queries")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score saved traces")
    _add_common(p)
    p.add_argument("--traces", help="traces file (defaults to <output_dir>/traces.jsonl)")
    p.add_argument("--hit-mode", dest="hit_mode", choices=["any", "all"], help="hit@k mode")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print a saved evaluation report")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("distill", help="label training data with a teacher model")
    _add_common(p)
    p.add_argument("--limit", type=int, help="label at most this many new queries")
    p.set_defaults(func=cmd_distill)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, flag_overrides(args))
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, RetrievalError, SelectionError, MetricsError, DistillError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
