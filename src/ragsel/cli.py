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
import inspect
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import CorpusError, DEFAULT_CHUNK_LIMIT, load_corpus, load_questions
from .distill import DistillError, run_labeling
from .gateway import (
    ApiError,
    HttpChatBackend,
    HttpClient,
    HttpEmbedBackend,
    TranscriptChatBackend,
    TranscriptEmbedBackend,
    TranscriptError,
    TranscriptMissError,
    TransportError,
)
from .metrics import (
    HIT_MODES,
    PRECISION_DENOMINATORS,
    MetricReport,
    MetricsConfig,
    MetricsError,
    evaluate_traces,
    write_plot_data,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    PromptStyle,
    read_traces,
    run_benchmark,
    select_passages,
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
from .selection import SelectionError, Strategy

STRATEGIES = tuple(s.value for s in Strategy)
PROMPT_STYLES = tuple(s.value for s in PromptStyle)
RETRIEVER_KINDS = (Bm25Retriever.name, DenseRetriever.name)
BACKEND_KINDS = ("transcript", "http")
BACKEND_SECTIONS = ("selection_backend", "generation_backend", "embedding_backend")
HTTP_SETTINGS = ("api_key_env", "timeout", "max_attempts", "backoff_base")
DISTILL_VARIANTS = (Strategy.COT.value, Strategy.SELECTION_ONLY.value)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _default(func, name: str):
    """The default that ``func``'s signature gives parameter ``name``."""
    return inspect.signature(func).parameters[name].default


def default_config() -> dict:
    """Every setting with its default. Defaults the library already holds
    are read from it: ``PipelineConfig``, ``AnalyzerConfig``,
    ``MetricsConfig`` and the signatures of ``build_index``, ``HttpClient``
    and ``run_labeling``."""
    run = PipelineConfig().to_dict()
    k = run.pop("k")
    models = {
        "selection_backend": run.pop("selection_model"),
        "generation_backend": run.pop("generation_model"),
        "embedding_backend": "embedder",
    }
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
            "kind": Bm25Retriever.name,
            "k": k,
            "k1": _default(build_index, "k1"),
            "b": _default(build_index, "b"),
            **AnalyzerConfig().to_dict(),
        },
        **run,
        **{
            section: {
                "kind": "transcript",
                "model": model,
                "transcript": None,
                "record": False,
                "endpoint": None,
                **{key: _default(HttpClient, key) for key in HTTP_SETTINGS},
            }
            for section, model in models.items()
        },
        "metrics": MetricsConfig().to_dict(),
        "distill": {
            "teacher_model": None,
            **{
                key: _default(run_labeling, key)
                for key in ("expected_candidates", "strict_count", "retries", "limit")
            },
            "variants": list(_default(run_labeling, "variants")),
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
        _put(tree, dotted, parse_set_value(raw))
    return tree


def _put(tree: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    for part in parents:
        tree = tree.setdefault(part, {})
        if not isinstance(tree, dict):
            raise ConfigError(dotted, "conflicting override path")
    tree[leaf] = value


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
        for section in BACKEND_SECTIONS:
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
        for section in BACKEND_SECTIONS:
            cfg[section]["transcript"] = resolve(cfg[section]["transcript"])
        cfg["templates_dir"] = resolve(cfg["templates_dir"])
    return cfg


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(field, message)


def _lookup(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


def validate_config(cfg: dict) -> None:
    choices = [
        ("strategy", STRATEGIES),
        ("prompt_style", PROMPT_STYLES),
        ("retriever.kind", RETRIEVER_KINDS),
        ("metrics.hit_mode", HIT_MODES),
        ("metrics.precision_denominator", PRECISION_DENOMINATORS),
        *((f"{section}.kind", BACKEND_KINDS) for section in BACKEND_SECTIONS),
    ]
    for field, allowed in choices:
        _expect(_lookup(cfg, field) in allowed, field, f"must be one of {list(allowed)}")
    for v in cfg["distill"]["variants"]:
        _expect(v in DISTILL_VARIANTS, "distill.variants", f"must be among {list(DISTILL_VARIANTS)}")
    positive = (
        "retriever.k", "concurrency", "rerank_truncate",
        "metrics.rank_k", "metrics.pr_k", "metrics.max_k", "distill.expected_candidates",
    )
    for field in positive:
        value = _lookup(cfg, field)
        _expect(isinstance(value, int) and value >= 1, field, "must be a positive integer")
    r = cfg["retriever"]
    _expect(r["k1"] > 0, "retriever.k1", "must be positive")
    _expect(0.0 <= r["b"] <= 1.0, "retriever.b", "must be within [0, 1]")
    limit = cfg["chunk_limit"]
    _expect(
        limit is None or (isinstance(limit, int) and limit >= 1),
        "chunk_limit",
        "must be a positive integer or null",
    )
    for section in BACKEND_SECTIONS:
        b = cfg[section]
        _expect(bool(b["model"]), f"{section}.model", "must be set")
        _expect(
            not (b["record"] and b["kind"] == "http"),
            f"{section}.record",
            "recording is a transcript option; set kind to 'transcript' and give an endpoint",
        )
    d = cfg["distill"]
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


def _require_path(cfg: dict, key: str, must_exist: bool = True) -> Path:
    value = cfg["paths"].get(key)
    _expect(bool(value), f"paths.{key}", "must be set")
    path = Path(value)
    if must_exist:
        _expect(path.exists(), f"paths.{key}", f"no such file: {path}")
    return path


def build_backend(cfg: dict, section: str):
    """The chat or embedding backend of one config section. Sections are
    checked for completeness only here, when a command uses them, so unrelated
    sections may stay unconfigured."""
    b = cfg[section]
    embed = section == "embedding_backend"
    live = None
    if b["kind"] == "http" or b["record"]:
        _expect(bool(b["endpoint"]), f"{section}.endpoint", "required for http or record mode")
        settings = {key: b[key] for key in HTTP_SETTINGS}
        if embed:
            live = HttpEmbedBackend(b["endpoint"], b["model"], **settings)
        else:
            live = HttpChatBackend(b["endpoint"], **settings)
        if b["kind"] == "http":
            return live
    _expect(bool(b["transcript"]), f"{section}.transcript", "required for transcript mode")
    if embed:
        return TranscriptEmbedBackend(b["transcript"], b["model"], record_from=live)
    return TranscriptChatBackend(b["transcript"], record_from=live)


def build_store(cfg: dict):
    corpus_path = _require_path(cfg, "corpus")
    return load_corpus(corpus_path, chunk_limit=cfg["chunk_limit"])


def _build_index(cfg: dict, store):
    r = cfg["retriever"]
    return build_index(store, AnalyzerConfig.from_dict(r), k1=r["k1"], b=r["b"])


def _index_path(cfg: dict) -> Path:
    """Where `ragsel index` writes the BM25 index and the other commands read it."""
    return Path(cfg["paths"].get("index") or Path(cfg["paths"]["output_dir"]) / "index.npz")


def build_retriever(cfg: dict, store):
    r = cfg["retriever"]
    if r["kind"] == Bm25Retriever.name:
        index_path = _index_path(cfg)
        if not index_path.exists():
            return Bm25Retriever(_build_index(cfg, store))
        index = load_index(index_path)
        wanted = {"k1": r["k1"], "b": r["b"], **AnalyzerConfig.from_dict(r).to_dict()}
        saved = {"k1": index.k1, "b": index.b, **index.analyzer.to_dict()}
        for key, value in wanted.items():
            _expect(
                value == saved[key],
                f"retriever.{key}",
                f"is {value!r} but the saved index {index_path} has {saved[key]!r}; "
                "rebuild it with `ragsel index`",
            )
        _expect(
            index.ids == store.ids,
            "paths.index",
            f"{index_path} was built over other passages than the corpus; rebuild it with `ragsel index`",
        )
        return Bm25Retriever(index)
    cache_path = cfg["paths"].get("embedding_cache")
    _expect(bool(cache_path), "paths.embedding_cache", "required for the dense retriever")
    return DenseRetriever(build_backend(cfg, "embedding_backend"), store, cache_path)


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
    return MetricsConfig(**cfg["metrics"])


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
    index = _build_index(cfg, store)
    out = _index_path(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
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
    config = pipeline_config(cfg)
    candidates = retriever.retrieve(question.question, config.k, query_id=question.id)
    if len(candidates) == 0:
        print(json.dumps({"id": question.id, "no_candidates": True}))
        return 0
    backend = build_backend(cfg, "selection_backend")
    outcome, selected_ids = select_passages(question.question, candidates, store, backend, config)
    result = {
        "id": question.id,
        "candidates": candidates.ids,
        "selected_ids": selected_ids,
        "outcome": outcome.to_dict(),
    }
    print(json.dumps(result, ensure_ascii=False, indent=2))
    return 0


def cmd_run(cfg: dict, args) -> int:
    store = build_store(cfg)
    retriever = build_retriever(cfg, store)
    questions = load_questions(_require_path(cfg, "questions"))
    select_backend = build_backend(cfg, "selection_backend")
    generate_backend = build_backend(cfg, "generation_backend")
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
    backend = build_backend(cfg, "selection_backend")
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

# dest -> (the config entry it overrides, or None; argparse options). The
# flag is "--" + dest with dashes for underscores.
FLAGS = {
    "config": (None, {"help": "path to a JSON config file"}),
    "set": (
        None,
        {
            "action": "append",
            "default": [],
            "metavar": "KEY=VALUE",
            "help": "override a config entry by dotted path (value parsed as JSON when possible)",
        },
    ),
    "output_dir": ("paths.output_dir", {"help": "directory for artifacts"}),
    "question_id": (None, {"required": True, "help": "question id to select for"}),
    "strategy": ("strategy", {"choices": STRATEGIES, "help": "selection strategy"}),
    "prompt_style": ("prompt_style", {"choices": PROMPT_STYLES, "help": "answer prompt style"}),
    "k": ("retriever.k", {"type": int, "help": "candidates per query"}),
    "retriever": ("retriever.kind", {"choices": RETRIEVER_KINDS, "help": "retriever kind"}),
    "query": (None, {"help": "run one ad-hoc query instead of the questions file"}),
    "concurrency": ("concurrency", {"type": int, "help": "parallel queries"}),
    "traces": ("paths.traces", {"help": "traces file (defaults to <output_dir>/traces.jsonl)"}),
    "hit_mode": ("metrics.hit_mode", {"choices": HIT_MODES, "help": "hit@k mode"}),
    "limit": ("distill.limit", {"type": int, "help": "label at most this many new queries"}),
}

# name -> (function, help, its flags after the common ones)
COMMANDS = {
    "config": (cmd_config, "print the effective configuration", ()),
    "index": (cmd_index, "build and save a lexical index over the corpus", ()),
    "retrieve": (cmd_retrieve, "retrieve top-k candidates per question", ("k", "retriever", "query")),
    "select": (cmd_select, "run selection for a single question id", ("question_id", "strategy")),
    "run": (
        cmd_run,
        "run the full pipeline over the questions file",
        ("strategy", "prompt_style", "k", "retriever", "concurrency"),
    ),
    "eval": (cmd_eval, "score saved traces", ("traces", "hit_mode")),
    "report": (cmd_report, "print a saved evaluation report", ()),
    "distill": (cmd_distill, "label training data with a teacher model", ("limit",)),
}


def flag_overrides(args) -> dict:
    tree: dict = {}
    for dest, (path, _) in FLAGS.items():
        value = getattr(args, dest, None)
        if path is not None and value is not None:
            _put(tree, path, value)
    return tree


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragsel",
        description="Set-wise passage selection pipelines: retrieve, select, answer, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in ("config", "set", "output_dir", *flags):
            p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest][1])
        p.set_defaults(func=func)
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
    except (CorpusError, DistillError, MetricsError, PipelineError, RetrievalError, SelectionError,
            TranscriptError, TranscriptMissError, TransportError, ApiError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
