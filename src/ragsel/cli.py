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
from .corpus import CorpusError, DEFAULT_CHUNK_LIMIT, is_string_list, load_corpus, load_questions
from .distill import VARIANTS, DistillError, run_labeling
from .files import _not_a_number, decode, write_jsonl
from .gateway import (
    BACKEND_ERRORS,
    HttpChatBackend,
    HttpClient,
    HttpEmbedBackend,
    TranscriptChatBackend,
    TranscriptEmbedBackend,
    TranscriptError,
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
BACKEND_SECTIONS = ("selection_backend", "generation_backend", "embedding_backend")
# every HttpClient parameter after the endpoint is a setting of each backend section
HTTP_SETTINGS = tuple(inspect.signature(HttpClient).parameters)[1:]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


def _default(func, name: str):
    """The default that ``func``'s signature gives parameter ``name``."""
    return inspect.signature(func).parameters[name].default


# A rule: a check on a setting's value, and the message after the key when it
# fails. An int is never a JSON true; a number is within float range, not NaN.
def _int(low: int, nullable: bool = False):
    return (lambda v: (nullable and v is None) or (type(v) is int and v >= low),
            f"must be a {'positive' if low else 'non-negative'} integer" + " or null" * nullable)


def _number(ok, message: str):
    return lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max and ok(v), message


def _one_of(allowed):
    return lambda v: v in allowed, f"must be one of {list(allowed)}"


def _text(message: str, nullable: bool = False):
    return lambda v: (nullable and v is None) or (isinstance(v, str) and v != ""), message


BOOL = (lambda v: isinstance(v, bool), "must be true or false")
STRINGS = (is_string_list, "must be a list of strings")
NAME_OR_NULL = _text("must be a non-empty string or null", nullable=True)
PATH = _text("must be a path or null", nullable=True)
DIRECTORY = _text("must be a path")
LABEL_VARIANTS = (lambda v: isinstance(v, list) and all(s in VARIANTS for s in v),
                  f"must be among {[s.value for s in VARIANTS]}")

# Every setting as (dotted key, default, rule), in manifest order; defaults the library holds
# are read from it. A relative PATH or DIRECTORY resolves against the config file's directory.
SETTINGS = (
    ("paths.corpus", None, PATH),
    ("paths.questions", None, PATH),
    ("paths.output_dir", "out", DIRECTORY),
    ("paths.index", None, PATH),
    ("paths.embedding_cache", None, PATH),
    ("paths.traces", None, PATH),
    ("paths.report", None, PATH),
    ("paths.distill_input", None, PATH),
    ("paths.distill_output", None, PATH),
    ("chunk_limit", DEFAULT_CHUNK_LIMIT, _int(1, nullable=True)),
    ("retriever.kind", Bm25Retriever.name, _one_of(RETRIEVER_KINDS)),
    ("retriever.k", PipelineConfig.k, _int(1)),
    ("retriever.k1", _default(build_index, "k1"), _number(lambda v: v > 0, "must be positive")),
    ("retriever.b", _default(build_index, "b"), _number(lambda v: 0 <= v <= 1, "must be within [0, 1]")),
    ("retriever.lowercase", AnalyzerConfig.lowercase, BOOL),
    ("retriever.stopwords", sorted(AnalyzerConfig.stopwords), STRINGS),
    ("strategy", PipelineConfig.strategy, _one_of(STRATEGIES)),
    ("prompt_style", PipelineConfig.prompt_style, _one_of(PROMPT_STYLES)),
    ("rerank_truncate", PipelineConfig.rerank_truncate, _int(1)),
    ("concurrency", PipelineConfig.concurrency, _int(1)),
    ("selection_max_tokens", PipelineConfig.selection_max_tokens, _int(1, nullable=True)),
    ("generation_max_tokens", PipelineConfig.generation_max_tokens, _int(1, nullable=True)),
    ("templates_dir", PipelineConfig.templates_dir, PATH),
    *(
        (f"{section}.{key}", default, rule)
        for section, model in zip(
            BACKEND_SECTIONS, (PipelineConfig.selection_model, PipelineConfig.generation_model, "embedder"))
        for key, default, rule in (
            ("kind", "transcript", _one_of(("transcript", "record", "http"))),
            ("model", model, _text("must be set")),
            ("transcript", None, PATH),
            ("endpoint", None, NAME_OR_NULL),
            ("api_key_env", _default(HttpClient, "api_key_env"), NAME_OR_NULL),
            ("timeout", _default(HttpClient, "timeout"), _number(lambda v: v > 0, "must be positive")),
            ("max_attempts", _default(HttpClient, "max_attempts"), _int(1)),
            ("backoff_base", _default(HttpClient, "backoff_base"), _number(lambda v: v >= 0, "must be non-negative")),
        )
    ),
    ("metrics.hit_mode", MetricsConfig.hit_mode, _one_of(HIT_MODES)),
    ("metrics.precision_denominator", MetricsConfig.precision_denominator, _one_of(PRECISION_DENOMINATORS)),
    ("metrics.rank_k", MetricsConfig.rank_k, _int(1)),
    ("metrics.pr_k", MetricsConfig.pr_k, _int(1)),
    ("metrics.max_k", MetricsConfig.max_k, _int(1)),
    ("distill.teacher_model", None, NAME_OR_NULL),
    ("distill.expected_candidates", _default(run_labeling, "expected_candidates"), _int(1, nullable=True)),
    ("distill.limit", _default(run_labeling, "limit"), _int(0, nullable=True)),
    ("distill.variants", list(_default(run_labeling, "variants")), LABEL_VARIANTS),
)


def default_config() -> dict:
    """Every setting with its default, as the tree its dotted keys describe."""
    tree: dict = {}
    for key, default, _ in SETTINGS:
        _put(tree, key, copy.deepcopy(default))
    return tree


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
    """--set values parse as JSON when possible, bare strings otherwise (``NaN`` too, as
    JSON has no such number); JSON that ``files.decode`` refuses is a ConfigError."""
    try:
        json.loads(raw, parse_constant=_not_a_number)
    except ValueError:
        return raw
    try:
        return decode(raw)
    except ValueError as exc:  # an integer beyond float range, or an escaped unpaired surrogate
        raise ConfigError("--set", f"{raw!r}: {exc}") from None


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
            file_cfg = decode(Path(path).read_bytes().decode("utf-8"))
        except FileNotFoundError:
            raise ConfigError("--config", f"no such file: {path}")
        except UnicodeDecodeError:
            raise ConfigError("--config", f"{path} is not UTF-8")
        except ValueError as exc:
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
        # with a config file, every relative path resolves against its
        # directory, so a checked-in config works from any working directory
        base = Path(path).resolve().parent
        for key, _, rule in SETTINGS:
            value = _lookup(cfg, key)
            if rule in (PATH, DIRECTORY) and value and not Path(value).is_absolute():
                _put(cfg, key, str(base / value))
    return cfg


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(field, message)


def _lookup(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


def validate_config(cfg: dict) -> None:
    for key, _, (ok, message) in SETTINGS:
        _expect(ok(_lookup(cfg, key)), key, message)


def _artifact_path(cfg: dict, key: str, name: str | None = None) -> Path:
    """`paths.<key>`, else `<output_dir>/<name>`: one place for an artifact's writer and readers."""
    value = cfg["paths"].get(key) or (name and Path(cfg["paths"]["output_dir"]) / name)
    _expect(bool(value), f"paths.{key}", "must be set")
    return Path(value)


def _require_path(cfg: dict, key: str, name: str | None = None) -> Path:
    path = _artifact_path(cfg, key, name)
    _expect(path.exists(), f"paths.{key}", f"no such file: {path}")
    return path


def build_backend(cfg: dict, section: str):
    """The chat or embedding backend of one config section. Sections are
    checked for completeness only here, when a command uses them, so unrelated
    sections may stay unconfigured."""
    b = cfg[section]
    embed = section == "embedding_backend"
    live = None
    if b["kind"] != "transcript":
        _expect(bool(b["endpoint"]), f"{section}.endpoint", "required for http or record mode")
        http_url = b["endpoint"].lower().startswith(("http://", "https://"))
        _expect(http_url, f"{section}.endpoint", "must be an http(s) URL")
        settings = {key: b[key] for key in HTTP_SETTINGS}
        if embed:
            live = HttpEmbedBackend(b["endpoint"], b["model"], **settings)
        else:
            live = HttpChatBackend(b["endpoint"], **settings)
        if b["kind"] == "http":
            return live
    _expect(bool(b["transcript"]), f"{section}.transcript", "required for transcript or record mode")
    if embed:
        return TranscriptEmbedBackend(b["transcript"], b["model"], record_from=live)
    return TranscriptChatBackend(b["transcript"], record_from=live)


def build_store(cfg: dict):
    corpus_path = _require_path(cfg, "corpus")
    return load_corpus(corpus_path, chunk_limit=cfg["chunk_limit"])


def _build_index(cfg: dict, store):
    r = cfg["retriever"]
    return build_index(store, AnalyzerConfig.from_dict(r), k1=r["k1"], b=r["b"])


def build_retriever(cfg: dict, store):
    r = cfg["retriever"]
    if r["kind"] == Bm25Retriever.name:
        index_path = _artifact_path(cfg, "index", "index.npz")
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
            index.digest == store.digest(),
            "paths.index",
            f"{index_path} was built over other passages or texts than the corpus; rebuild it with `ragsel index`",
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


# --- commands ----------------------------------------------------------------


def cmd_config(cfg: dict, args) -> int:
    print(json.dumps(cfg, ensure_ascii=False, indent=2, sort_keys=True))
    return 0


def cmd_index(cfg: dict, args) -> int:
    store = build_store(cfg)
    index = _build_index(cfg, store)
    out = _artifact_path(cfg, "index", "index.npz")
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
    out = Path(cfg["paths"]["output_dir"]) / "candidates.jsonl"
    write_jsonl(out, (retriever.retrieve(q.question, k, query_id=q.id).to_dict() for q in questions))
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
    traces_path = _artifact_path(cfg, "traces", "traces.jsonl")
    manifest_path = traces_path.with_name("manifest.json")
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
    traces_path = _require_path(cfg, "traces", "traces.jsonl")
    store = build_store(cfg)
    traces = read_traces(traces_path)
    report = evaluate_traces(traces, store, MetricsConfig(**cfg["metrics"]))
    report_path = _artifact_path(cfg, "report", "report.json")
    report.save(report_path)
    plot_files = write_plot_data(report, report_path.parent / "plots")
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
    report_path = _require_path(cfg, "report", "report.json")
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
    output_path = _artifact_path(cfg, "distill_output", "distill.jsonl")
    rejects_path = output_path.with_name(output_path.name + ".rejects.jsonl")
    backend = build_backend(cfg, "selection_backend")
    d = cfg["distill"]
    model = d["teacher_model"] or cfg["selection_backend"]["model"]
    stats = run_labeling(
        input_path,
        backend,
        model,
        output_path,
        rejects_path,
        expected_candidates=d["expected_candidates"],
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
    print(f"rejects -> {rejects_path}")
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
            TranscriptError, OSError, *BACKEND_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
