"""Tests for the command-line interface."""

import hashlib
import json
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from ragsel.cli import (
    ConfigError,
    build_backend,
    build_parser,
    default_config,
    load_config,
    main,
    merge_config,
    overrides_from_sets,
    parse_set_value,
    validate_config,
)
from ragsel.corpus import load_corpus
from ragsel.files import write_jsonl
from ragsel.gateway import (
    HttpChatBackend,
    HttpEmbedBackend,
    request_fingerprint,
    text_fingerprint,
    user_request,
)
from ragsel.pipeline import PromptStyle, render_answer_prompt
from ragsel.retrieval import AnalyzerConfig, Bm25Retriever, RetrievalError, build_index, load_index, search
from ragsel.selection import Strategy, render_prompt

# --- config machinery ----------------------------------------------------------


def test_default_config_validates():
    validate_config(default_config())


def test_default_config_is_pinned():
    # every default is read from the library; none of them may move
    expected = {
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
        },
        "chunk_limit": 300,
        "retriever": {"kind": "bm25", "k": 20, "k1": 1.2, "b": 0.75, "lowercase": True, "stopwords": []},
        "strategy": "requirement_cot",
        "prompt_style": "general",
        "concurrency": 4,
        "rerank_truncate": 5,
        "selection_max_tokens": None,
        "generation_max_tokens": 256,
        "templates_dir": None,
        **{
            section: {
                "kind": "transcript",
                "model": model,
                "transcript": None,
                "endpoint": None,
                "api_key_env": None,
                "timeout": 60.0,
                "max_attempts": 3,
                "backoff_base": 1.0,
            }
            for section, model in [
                ("selection_backend", "selector"),
                ("generation_backend", "generator"),
                ("embedding_backend", "embedder"),
            ]
        },
        "metrics": {"hit_mode": "any", "precision_denominator": "k", "rank_k": 10, "pr_k": 5, "max_k": 10},
        "distill": {
            "teacher_model": None,
            "expected_candidates": 20,
            "limit": None,
            "variants": [],
        },
    }
    assert default_config() == expected
    # types too: 60 would equal 60.0 but print differently
    assert json.dumps(default_config(), sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_parser_flags_per_command():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    flags = {
        name: [opt for action in sub._actions for opt in action.option_strings if opt != "-h"]
        for name, sub in commands.items()
    }
    common = ["--help", "--config", "--set", "--output-dir"]
    assert flags == {
        "config": common,
        "index": common,
        "retrieve": common + ["--k", "--retriever", "--query"],
        "select": common + ["--question-id", "--strategy"],
        "run": common + ["--strategy", "--prompt-style", "--k", "--retriever", "--concurrency"],
        "eval": common + ["--traces", "--hit-mode"],
        "report": common,
        "distill": common + ["--limit"],
    }


def test_merge_config_nested():
    merged = merge_config(default_config(), {"retriever": {"k": 7}, "strategy": "cot"})
    assert merged["retriever"]["k"] == 7
    assert merged["retriever"]["kind"] == "bm25"
    assert merged["strategy"] == "cot"


def test_merge_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as excinfo:
        merge_config(default_config(), {"retriever": {"fuzz": 1}})
    assert "retriever.fuzz" in str(excinfo.value)


def test_merge_config_rejects_type_clash():
    with pytest.raises(ConfigError) as excinfo:
        merge_config(default_config(), {"metrics": "loose"})
    assert "metrics" in str(excinfo.value) and "object" in str(excinfo.value)


def test_parse_set_value():
    assert parse_set_value("30") == 30
    assert parse_set_value("true") is True
    assert parse_set_value("null") is None
    assert parse_set_value('["cot"]') == ["cot"]
    assert parse_set_value("cot") == "cot"
    assert parse_set_value("3.5") == 3.5
    # JSON has no NaN or Infinity, so they are bare strings like any other non-JSON value
    assert parse_set_value("NaN") == "NaN"
    assert parse_set_value("-Infinity") == "-Infinity"
    assert parse_set_value("[NaN]") == "[NaN]"
    # an integer beyond float range is JSON that files.decode refuses
    with pytest.raises(ConfigError, match="--set"):
        parse_set_value("1" * 401)


def test_set_value_holding_an_unpaired_surrogate_is_a_config_error(capsys):
    assert main(["config", "--set", 'generation_backend.model="gen\\ud800"']) == 2
    assert capsys.readouterr().err.startswith("config error: --set: ")


def test_overrides_from_sets():
    tree = overrides_from_sets(["retriever.k=9", "metrics.hit_mode=all", "strategy=cot"])
    assert tree == {
        "retriever": {"k": 9},
        "metrics": {"hit_mode": "all"},
        "strategy": "cot",
    }
    with pytest.raises(ConfigError):
        overrides_from_sets(["no-equals-sign"])


def test_load_config_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"retriever": {"k": 5}, "concurrency": 2}), encoding="utf-8")
    cfg = load_config(str(path), ["retriever.k=7"], {"retriever": {"k": 9}})
    assert cfg["retriever"]["k"] == 9
    cfg = load_config(str(path), ["retriever.k=7"], {})
    assert cfg["retriever"]["k"] == 7
    cfg = load_config(str(path), [], {})
    assert cfg["retriever"]["k"] == 5 and cfg["concurrency"] == 2


def test_load_config_resolves_paths_against_config_dir(tmp_path):
    nested = tmp_path / "conf"
    nested.mkdir()
    path = nested / "cfg.json"
    path.write_text(
        json.dumps({"paths": {"corpus": "data/corpus.jsonl", "traces": "/abs/traces.jsonl"}}),
        encoding="utf-8",
    )
    cfg = load_config(str(path), [], {})
    assert cfg["paths"]["corpus"] == str(nested / "data" / "corpus.jsonl")
    assert cfg["paths"]["traces"] == "/abs/traces.jsonl"
    assert cfg["paths"]["output_dir"] == str(nested / "out")
    cfg = load_config(
        str(path), ["selection_backend.transcript=replay/chat.jsonl"], {}
    )
    assert cfg["selection_backend"]["transcript"] == str(nested / "replay" / "chat.jsonl")


def test_load_config_resolves_flag_paths_against_config_dir(tmp_path):
    nested = tmp_path / "conf"
    nested.mkdir()
    path = nested / "cfg.json"
    path.write_text("{}", encoding="utf-8")
    cfg = load_config(str(path), [], {"paths": {"output_dir": "relout", "traces": "t/traces.jsonl"}})
    assert cfg["paths"]["output_dir"] == str(nested / "relout")
    assert cfg["paths"]["traces"] == str(nested / "t" / "traces.jsonl")


def test_load_config_rejects_raw_credentials(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"selection_backend": {"api_key": "sk-oops"}}), encoding="utf-8"
    )
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(path), [], {})
    assert "api_key_env" in str(excinfo.value)


@pytest.mark.parametrize(
    "override,field",
    [
        ({"strategy": "topk"}, "strategy"),
        ({"prompt_style": "verbose"}, "prompt_style"),
        ({"retriever": {"k": 0}}, "retriever.k"),
        ({"retriever": {"kind": "tfidf"}}, "retriever.kind"),
        ({"retriever": {"b": 1.5}}, "retriever.b"),
        ({"concurrency": 0}, "concurrency"),
        ({"metrics": {"hit_mode": "most"}}, "metrics.hit_mode"),
        ({"metrics": {"precision_denominator": "n"}}, "metrics.precision_denominator"),
        ({"selection_backend": {"kind": "grpc"}}, "selection_backend.kind"),
        ({"distill": {"limit": -1}}, "distill.limit"),
        ({"distill": {"variants": ["listwise_rerank"]}}, "distill.variants"),
        ({"chunk_limit": 0}, "chunk_limit"),
        ({"generation_backend": {"kind": "record", "record": True}}, "generation_backend.record"),
        ({"distill": {"expected_candidates": 0}}, "distill.expected_candidates"),
        ({"distill": {"expected_candidates": "20"}}, "distill.expected_candidates"),
        # wrong-typed values, each named by its key
        ({"retriever": {"k1": "abc"}}, "retriever.k1"),
        ({"distill": {"variants": 5}}, "distill.variants"),
        ({"paths": {"corpus": 5}}, "paths.corpus"),
        ({"templates_dir": 5}, "templates_dir"),
        ({"selection_backend": {"kind": "record", "endpoint": 5}}, "selection_backend.endpoint"),
        ({"retriever": {"stopwords": "the"}}, "retriever.stopwords"),
        ({"retriever": {"k": True}}, "retriever.k"),
        ({"selection_backend": {"max_attempts": 0}}, "selection_backend.max_attempts"),
    ],
)
def test_validate_config_rejections(override, field):
    # as load_config does: an unknown key fails the merge, a bad value the validation
    with pytest.raises(ConfigError) as excinfo:
        validate_config(merge_config(default_config(), override))
    assert str(excinfo.value).startswith(f"{field}: ")


def _leaf_keys(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_setting_has_a_check():
    keys = list(_leaf_keys(default_config()))
    assert len(keys) == 56
    for key in keys:
        cfg = merge_config(default_config(), overrides_from_sets([f'{key}={{"bad": 1}}']))
        with pytest.raises(ConfigError) as excinfo:
            validate_config(cfg)
        assert str(excinfo.value).startswith(f"{key}: "), key


def test_wrong_typed_setting_is_a_config_error(capsys):
    assert main(["config", "--set", 'retriever.k1="abc"']) == 2
    assert capsys.readouterr().err.startswith("config error: retriever.k1: ")


def test_expected_candidates_null_accepts_any_count(tmp_path, capsys):
    validate_config(merge_config(default_config(), {"distill": {"expected_candidates": None}}))
    # the one candidate-count setting: the switch that used to sit beside it is gone
    config_path = build_distill_workspace(tmp_path)
    assert main(["distill", "--config", str(config_path), "--set", "distill.strict_count=false"]) == 2
    assert capsys.readouterr().err == "config error: distill.strict_count: unknown configuration key\n"
    assert main(["distill", "--config", str(config_path), "--set", "distill.expected_candidates=9"]) == 0
    assert "rejected[candidate-count]: 4" in capsys.readouterr().out
    assert main(["distill", "--config", str(config_path), "--set", "distill.expected_candidates=null"]) == 0
    assert "labeled 4 queries (0 rejected, 0 already done)" in capsys.readouterr().out


def test_backend_requirements_checked_at_build():
    cfg = merge_config(default_config(), {"selection_backend": {"kind": "http"}})
    validate_config(cfg)  # incomplete sections are fine until used
    with pytest.raises(ConfigError) as excinfo:
        build_backend(cfg, "selection_backend")
    assert "selection_backend.endpoint" in str(excinfo.value)
    cfg = merge_config(cfg, {"selection_backend": {"endpoint": "api.example.com/v1"}})
    with pytest.raises(ConfigError, match=r"selection_backend.endpoint: must be an http\(s\) URL"):
        build_backend(cfg, "selection_backend")
    cfg = default_config()
    with pytest.raises(ConfigError) as excinfo:
        build_backend(cfg, "generation_backend")
    assert "generation_backend.transcript" in str(excinfo.value)


def test_record_backend_needs_an_endpoint_and_a_transcript(tmp_path):
    transcript = tmp_path / "rec.jsonl"
    cfg = merge_config(default_config(), {"generation_backend": {"kind": "record", "transcript": str(transcript)}})
    with pytest.raises(ConfigError, match=r"^generation_backend\.endpoint: required for http or record mode$"):
        build_backend(cfg, "generation_backend")
    assert not transcript.exists()
    cfg = merge_config(cfg, {"generation_backend": {"transcript": None, "endpoint": "http://127.0.0.1:1/v1"}})
    with pytest.raises(ConfigError, match=r"^generation_backend\.transcript: required for transcript or record mode$"):
        build_backend(cfg, "generation_backend")


@pytest.mark.parametrize("section", ["selection_backend", "generation_backend", "embedding_backend"])
@pytest.mark.parametrize("mode", ["http", "record"])
def test_backend_http_settings_reach_client(tmp_path, section, mode):
    settings = {"timeout": 5.0, "max_attempts": 7, "backoff_base": 0.1, "api_key_env": "SOME_KEY_VAR"}
    override = {"kind": mode, "endpoint": "http://127.0.0.1:1/v1/", "transcript": str(tmp_path / "rec.jsonl")}
    cfg = merge_config(default_config(), {section: {**override, **settings}})
    validate_config(cfg)
    backend = build_backend(cfg, section)
    client = backend.record_from if mode == "record" else backend
    assert isinstance(client, HttpEmbedBackend if section == "embedding_backend" else HttpChatBackend)
    assert client.endpoint == "http://127.0.0.1:1/v1"
    assert {key: getattr(client, key) for key in settings} == settings


# --- workspace fixture -----------------------------------------------------------

QUERIES = {
    "q1": {
        "question": "apple search",
        "passages": [
            ("p1a", "apple apple alpha beta"),
            ("p1b", "apple gamma delta epsilon"),
        ],
        "selection": "Step 1. Needs gamma details.\n### Final Selection: [2]",
        "picked": "p1b",
        "answer": "A: answerone",
        "gold": "answerone",
        "evidence": "gamma",
    },
    "q2": {
        "question": "kiwi search",
        "passages": [
            ("p2a", "kiwi kiwi one two"),
            ("p2b", "kiwi three four five"),
        ],
        "selection": "Step 1. First has both mentions.\n### Final Selection: [1]",
        "picked": "p2a",
        "answer": "A: answertwo",
        "gold": "answertwo",
        "evidence": "one two",
    },
}


def build_workspace(tmp_path, skip_generation_for=()):
    corpus_path = tmp_path / "corpus.jsonl"
    questions_path = tmp_path / "questions.jsonl"
    transcript_path = tmp_path / "chat.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for qid, spec in QUERIES.items():
            for pid, text in spec["passages"]:
                fh.write(json.dumps({"id": pid, "doc_id": f"d_{qid}", "text": text}) + "\n")
    with open(questions_path, "w", encoding="utf-8") as fh:
        for qid, spec in QUERIES.items():
            fh.write(
                json.dumps(
                    {
                        "id": qid,
                        "question": spec["question"],
                        "answers": [spec["gold"]],
                        "evidence": [spec["evidence"]],
                        "gold_passage_ids": [spec["picked"]],
                    }
                )
                + "\n"
            )
    # replay entries keyed by the exact prompts the pipeline will build
    store = load_corpus(corpus_path)
    retriever = Bm25Retriever(build_index(store, AnalyzerConfig()))
    entries = []
    for qid, spec in QUERIES.items():
        candidates = retriever.retrieve(spec["question"], 20, query_id=qid)
        texts = [store.get(pid).text for pid in candidates.ids]
        sel_prompt = render_prompt(Strategy.REQUIREMENT_COT, spec["question"], texts)
        sel_req = user_request("selector", sel_prompt)
        entries.append(
            {
                "fingerprint": request_fingerprint(sel_req.model, sel_req.messages),
                "response": spec["selection"],
                "prompt_tokens": 100,
                "completion_tokens": 10,
            },
        )
        if qid in skip_generation_for:
            continue
        gen_prompt = render_answer_prompt(
            PromptStyle.GENERAL, spec["question"], [store.get(spec["picked"])]
        )
        gen_req = user_request("generator", gen_prompt)
        entries.append(
            {
                "fingerprint": request_fingerprint(gen_req.model, gen_req.messages),
                "response": spec["answer"],
                "prompt_tokens": 80,
                "completion_tokens": 4,
            },
        )
    write_jsonl(transcript_path, entries)
    config = {
        "paths": {
            "corpus": str(corpus_path),
            "questions": str(questions_path),
            "output_dir": str(tmp_path / "out"),
        },
        "selection_backend": {"kind": "transcript", "transcript": str(transcript_path)},
        "generation_backend": {"kind": "transcript", "transcript": str(transcript_path)},
        "retriever": {"k": 20},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


# --- command flows ----------------------------------------------------------------


def test_cli_run_eval_report(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "ran 2 queries: 0 failed" in out
    traces_path = tmp_path / "out" / "traces.jsonl"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["query_count"] == 2 and manifest["failure_count"] == 0
    assert manifest["config"]["strategy"] == "requirement_cot"
    assert manifest["backends"]["selection"]["kind"] == "transcript"
    traces = [json.loads(l) for l in traces_path.read_text(encoding="utf-8").splitlines()]
    assert [t["id"] for t in traces] == ["q1", "q2"]
    assert traces[0]["selected_ids"] == ["p1b"]
    assert traces[0]["answer"] == "answerone"

    assert main(["eval", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "evaluated 2 traces" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["aggregate"]["em"] == {"mean": 1.0, "count": 2}
    assert report["aggregate"]["recall@5"] == {"mean": 1.0, "count": 2}
    assert (tmp_path / "out" / "plots" / "hit_at_k.tsv").exists()

    assert main(["report", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "em" in out and "1.0000" in out and "queries: 2" in out


@pytest.mark.parametrize(
    "key,name,writer,reader",
    [("traces", "mytraces.jsonl", "run", "eval"), ("report", "myreport.json", "eval", "report")],
)
def test_cli_reader_finds_what_the_writer_wrote(tmp_path, key, name, writer, reader):
    config_path = build_workspace(tmp_path)
    moved = ["--config", str(config_path), "--set", f"paths.{key}={tmp_path / 'elsewhere' / name}"]
    assert main(["run", *moved]) == 0
    assert main([writer, *moved]) == 0
    assert (tmp_path / "elsewhere" / name).exists()
    if key == "report":  # the plot data sits beside the report it is drawn from
        assert (tmp_path / "elsewhere" / "plots" / "hit_at_k.tsv").exists()
    # the manifest sits beside the traces it describes
    assert (tmp_path / ("elsewhere" if key == "traces" else "out") / "manifest.json").exists()
    assert main([reader, *moved]) == 0


def test_cli_run_is_deterministic(tmp_path):
    config_path = build_workspace(tmp_path)
    blobs = []
    for run_dir in ("out_a", "out_b"):
        code = main(
            ["run", "--config", str(config_path), "--output-dir", str(tmp_path / run_dir)]
        )
        assert code == 0
        blobs.append((tmp_path / run_dir / "traces.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_run_failure_exit_code(tmp_path, capsys):
    config_path = build_workspace(tmp_path, skip_generation_for=("q2",))
    assert main(["run", "--config", str(config_path)]) == 1
    out = capsys.readouterr().out
    assert "1 failed" in out
    traces = [
        json.loads(l)
        for l in (tmp_path / "out" / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert traces[0]["error"] is None
    assert "query q2" in traces[1]["error"]


def test_cli_set_overrides_reach_manifest(tmp_path):
    config_path = build_workspace(tmp_path)
    code = main(
        [
            "run",
            "--config",
            str(config_path),
            "--set",
            "retriever.k=10",
            "--set",
            "concurrency=1",
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["retriever"]["k"] == 10
    assert manifest["config"]["concurrency"] == 1


def test_cli_flag_beats_set(tmp_path):
    config_path = build_workspace(tmp_path)
    code = main(["run", "--config", str(config_path), "--set", "retriever.k=10", "--k", "15"])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["retriever"]["k"] == 15


def test_cli_config_command(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["config", "--config", str(config_path), "--set", "strategy=cot"]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["strategy"] == "cot"
    assert effective["paths"]["corpus"].endswith("corpus.jsonl")


def test_cli_index_and_retrieve(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["index", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "indexed 4 passages" in out
    assert (tmp_path / "out" / "index.npz").exists()

    assert main(["retrieve", "--config", str(config_path), "--query", "apple"]) == 0
    adhoc = json.loads(capsys.readouterr().out)
    assert adhoc["retriever"] == "bm25"
    assert [c["id"] for c in adhoc["items"]] == ["p1a", "p1b"]

    assert main(["retrieve", "--config", str(config_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["query_id"] == "q1"


def test_cli_saved_index_must_match_config_and_corpus(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    index_path = tmp_path / "saved.npz"
    index_set = ["--set", f"paths.index={index_path}"]
    assert main(["index", "--config", str(config_path), *index_set]) == 0
    assert main(["retrieve", "--config", str(config_path), *index_set, "--query", "apple"]) == 0
    capsys.readouterr()
    for override, field in [
        ("retriever.k1=3.0", "retriever.k1"),
        ("retriever.b=0.5", "retriever.b"),
        ("retriever.lowercase=false", "retriever.lowercase"),
        ('retriever.stopwords=["apple"]', "retriever.stopwords"),
    ]:
        argv = ["retrieve", "--config", str(config_path), *index_set, "--set", override, "--query", "apple"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + field) and "ragsel index" in err
    # the same settings over a corpus with one passage more
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "p9", "doc_id": "d9", "text": "apple pie"}) + "\n")
    assert main(["retrieve", "--config", str(config_path), *index_set, "--query", "apple"]) == 2
    assert capsys.readouterr().err.startswith("config error: paths.index")


def test_cli_saved_index_must_match_the_corpus_texts(tmp_path, capsys):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = ["--config", str(tmp_path / "fixtures" / "config.json")]
    query = ["--query", "zebra clue01a"]
    assert main(["index", *config]) == 0
    corpus = tmp_path / "fixtures" / "corpus.jsonl"
    corpus.write_text(corpus.read_text(encoding="utf-8").replace(" clue01a ", " zebra "), encoding="utf-8")
    capsys.readouterr()
    # same ids, one edited text: the saved index would score p01_2 from clue01a
    assert main(["retrieve", *config, *query]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: paths.index") and "ragsel index" in err
    assert main(["index", *config]) == 0
    capsys.readouterr()
    assert main(["retrieve", *config, *query]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    rebuilt = build_index(load_corpus(corpus))
    assert items[0] == {"id": "p01_2", "score": search(rebuilt, "zebra", k=1).scores[0]}


def test_cli_commands_read_the_default_index(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["index", "--config", str(config_path)]) == 0
    (tmp_path / "out" / "index.npz").write_bytes(b"not an index")
    capsys.readouterr()
    assert main(["retrieve", "--config", str(config_path), "--query", "apple"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'out' / 'index.npz'}: not a BM25 index file\n"


@pytest.mark.parametrize(
    "where,value,cause",
    [
        ("version", 99, NotImplementedError),
        ("flags", 1, RuntimeError),
        ("directory-offset", 1, OSError),
        ("member-header-length", 14, tokenize.TokenError),
    ],
)
def test_cli_damaged_zip_directory_is_an_input_error(tmp_path, capsys, where, value, cause):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = ["--config", str(tmp_path / "fixtures" / "config.json")]
    assert main(["index", *config]) == 0
    path = tmp_path / "fixtures" / ".." / "out" / "index.npz"  # as the config names it
    data = bytearray(path.read_bytes())
    # one byte of the zip central directory: rows.npy's entry ("version needed to
    # extract" at +6, flag bits at +8), or the end record's directory offset (at +16..19);
    # or the low byte of rows.npy's .npy header length, 8 bytes into the member's data,
    # which follows its name and extra field in the local header
    rows_entry = data.rindex(b"PK\x01\x02", 0, data.rindex(b"rows.npy"))
    rows_name = data.index(b"rows.npy")
    rows_data = rows_name + len(b"rows.npy") + int.from_bytes(data[rows_name - 2 : rows_name], "little")
    offset = {
        "version": rows_entry + 6,
        "flags": rows_entry + 8,
        "directory-offset": data.rindex(b"PK\x05\x06") + 18,
        "member-header-length": rows_data + 8,
    }
    data[offset[where]] = value
    path.write_bytes(data)
    with pytest.raises(RetrievalError, match="not a BM25 index file") as err:
        load_index(path)
    assert isinstance(err.value.__cause__, cause)
    capsys.readouterr()
    assert main(["retrieve", *config, "--query", "zebra"]) == 2
    assert capsys.readouterr().err == f"error: {path}: not a BM25 index file\n"


def test_cli_select_single_question(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["select", "--config", str(config_path), "--question-id", "q1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["id"] == "q1"
    assert result["selected_ids"] == ["p1b"]
    assert result["outcome"]["indices"] == [2]
    assert main(["select", "--config", str(config_path), "--question-id", "zz"]) == 2
    assert "--question-id" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["{}\n", "not json\n"])
def test_cli_malformed_transcript_is_an_input_error(tmp_path, capsys, content):
    config_path = build_workspace(tmp_path)
    (tmp_path / "chat.jsonl").write_text(content, encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "chat.jsonl: line 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--question-id", "q1", "--strategy", "listwise_rerank"],
        ["retrieve", "--retriever", "dense", "--query", "apple"],
    ],
    ids=["select", "retrieve"],
)
def test_cli_backend_errors_are_input_errors(tmp_path, capsys, argv):
    # neither the listwise prompt nor any embedding request is in its transcript
    config_path = build_workspace(tmp_path)
    (tmp_path / "emb_transcript.jsonl").write_text("", encoding="utf-8")
    dense = ["--set", f"paths.embedding_cache={tmp_path / 'emb.jsonl'}",
             "--set", f"embedding_backend.transcript={tmp_path / 'emb_transcript.jsonl'}"]
    assert main([*argv, "--config", str(config_path), *dense]) == 2
    assert capsys.readouterr().err.startswith("error: no transcript entry for request fingerprint")


@pytest.mark.parametrize("extra", [{}, {"vector": ["x", 1.0]}], ids=["no-vector", "string-in-vector"])
def test_cli_malformed_embed_transcript_is_an_input_error(tmp_path, capsys, extra):
    config_path = build_workspace(tmp_path)
    store = load_corpus(tmp_path / "corpus.jsonl")
    write_jsonl(tmp_path / "emb_transcript.jsonl",
                [{"fingerprint": text_fingerprint("embedder", p.text), **extra} for p in store])
    dense = ["--set", f"paths.embedding_cache={tmp_path / 'emb.jsonl'}",
             "--set", f"embedding_backend.transcript={tmp_path / 'emb_transcript.jsonl'}"]
    assert main(["retrieve", "--retriever", "dense", "--query", "apple", "--config", str(config_path), *dense]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "emb_transcript.jsonl: line 1: embed entry without a non-empty list of numbers as 'vector'" in err
    assert not (tmp_path / "emb.jsonl").exists()


def test_cli_ragged_embeddings_are_an_input_error(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    store = load_corpus(tmp_path / "corpus.jsonl")
    entries = [{"fingerprint": text_fingerprint("embedder", p.text), "vector": [1.0] * (2 + i % 2)}
               for i, p in enumerate(store)]
    write_jsonl(tmp_path / "emb_transcript.jsonl", entries)
    dense = ["--set", f"paths.embedding_cache={tmp_path / 'emb.jsonl'}",
             "--set", f"embedding_backend.transcript={tmp_path / 'emb_transcript.jsonl'}"]
    assert main(["retrieve", "--retriever", "dense", "--query", "apple", "--config", str(config_path), *dense]) == 2
    assert capsys.readouterr().err.startswith("error: passage embeddings differ in dimension [2, 3]")
    assert not (tmp_path / "emb.jsonl").exists()


def test_cli_jsonl_embedding_cache_of_earlier_versions_is_an_input_error(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    store = load_corpus(tmp_path / "corpus.jsonl")
    cache_path = tmp_path / "emb.jsonl"
    write_jsonl(cache_path, [{"fingerprint": text_fingerprint("embedder", p.text), "vector": [1.0]} for p in store])
    before = cache_path.read_bytes()
    (tmp_path / "emb_transcript.jsonl").write_text("", encoding="utf-8")
    dense = ["--set", f"paths.embedding_cache={cache_path}",
             "--set", f"embedding_backend.transcript={tmp_path / 'emb_transcript.jsonl'}"]
    assert main(["retrieve", "--retriever", "dense", "--query", "apple", "--config", str(config_path), *dense]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cache_path}: not an embedding cache; delete it and the next command rebuilds it\n"
    assert cache_path.read_bytes() == before


def _huge_generation_count(blob):
    first, second, *rest = blob.splitlines(True)
    trace = json.loads(second)
    trace["generation_usage"]["completion_tokens"] = 10**400
    return b"".join([first, json.dumps(trace).encode() + b"\n", *rest])


@pytest.mark.parametrize(
    "damage", [lambda blob: blob[:-40], lambda blob: blob.splitlines(True)[0] + b"{}\n", _huge_generation_count]
)
def test_cli_eval_malformed_traces_is_an_input_error(tmp_path, capsys, damage):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    traces_path = tmp_path / "out" / "traces.jsonl"
    traces_path.write_bytes(damage(traces_path.read_bytes()))
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "traces.jsonl: line 2" in err


@pytest.mark.parametrize(
    "damage",
    [
        lambda t: t["question"].update(evidence=[5]),
        lambda t: t["question"].update(answers="Paris"),
        lambda t: t["question"].pop("gold_passage_ids"),
        lambda t: t.update(selected_ids=[1]),
        lambda t: t.update(no_candidates="no"),
        lambda t: t.pop("answer_prompt"),
        lambda t: t.update(schema_version=2),
        # the nested parts: candidates, selection and token counts
        lambda t: t["selection"].update(fallback_applied="no"),
        lambda t: t["candidates"]["items"][0].update(score="x"),
        lambda t: t["selection"].update(indices=["1"]),
        lambda t: t["selection"].pop("dropped_indices"),
        lambda t: t["selection"].update(dropped_indices=True),
        lambda t: t["candidates"]["items"][1].update(id=5),
        lambda t: t["candidates"].update(items={}),
        lambda t: t["selection"]["usage"].update(prompt_tokens=1.5),
        lambda t: t["generation_usage"].pop("completion_tokens"),
        lambda t: t.update(candidates=[]),
    ],
)
def test_cli_eval_rejects_a_mistyped_trace_field(tmp_path, capsys, damage):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    traces_path = tmp_path / "out" / "traces.jsonl"
    first, second, *rest = traces_path.read_text(encoding="utf-8").splitlines(True)
    trace = json.loads(second)
    damage(trace)
    traces_path.write_text("".join([first, json.dumps(trace) + "\n", *rest]), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {traces_path}: line 2: not a trace: ")


def test_cli_eval_names_the_query_whose_passage_left_the_corpus(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    corpus_path = tmp_path / "corpus.jsonl"
    lines = corpus_path.read_text(encoding="utf-8").splitlines(True)
    corpus_path.write_text("".join(line for line in lines if '"p2b"' not in line), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: query q2: passage 'p2b' is not in the corpus\n"


def _drop_per_query(blob):
    return json.dumps({k: v for k, v in json.loads(blob).items() if k != "per_query"}).encode()


def _retype(key, value, entry=None):
    """A damage that sets the report's ``key``, or the ``entry`` of it, to ``value``."""

    def damage(blob):
        report = json.loads(blob)
        if entry is None:
            report[key] = value
        else:
            report[key][entry] = value
        return json.dumps(report).encode()

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[:-40],
        _drop_per_query,
        _retype("aggregate", []),
        _retype("counts", [1]),
        _retype("aggregate", {"mean": "0.5", "count": 2}, "em"),
        _retype("efficiency", "12", "mean_selected_count"),
        _retype("aggregate", {"mean": 10**400, "count": 2}, "em"),
    ],
    ids=["truncated", "no-per-query", "aggregate-list", "counts-list", "string-mean", "string-efficiency",
         "huge-mean"],
)
def test_cli_report_malformed_report_is_an_input_error(tmp_path, capsys, damage):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["eval", "--config", str(config_path)]) == 0
    report_path = tmp_path / "out" / "report.json"
    report_path.write_bytes(damage(report_path.read_bytes()))
    capsys.readouterr()
    assert main(["report", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {report_path}: not a metrics report: ")


def test_cli_select_listwise_keeps_what_run_keeps(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in range(1, 8):
            text = "apple " * i + f"filler{i}"
            fh.write(json.dumps({"id": f"p{i}", "doc_id": "d", "text": text}) + "\n")
    (tmp_path / "questions.jsonl").write_text(
        json.dumps({"id": "q1", "question": "apple", "answers": ["x"]}) + "\n", encoding="utf-8"
    )
    store = load_corpus(corpus_path)
    candidates = Bm25Retriever(build_index(store)).retrieve("apple", 20).ids
    assert len(candidates) == 7
    transcript_path = tmp_path / "chat.jsonl"
    sel_prompt = render_prompt(Strategy.LISTWISE_RERANK, "apple", [store.get(pid).text for pid in candidates])
    kept = [candidates[i - 1] for i in (7, 6, 5, 4, 3)]
    gen_prompt = render_answer_prompt(PromptStyle.GENERAL, "apple", [store.get(pid) for pid in kept])
    replies = [
        (user_request("selector", sel_prompt), "[7] > [6] > [5] > [4] > [3] > [2] > [1]"),
        (user_request("generator", gen_prompt, max_tokens=256), "A: x"),
    ]
    write_jsonl(
        transcript_path,
        [
            {"fingerprint": request_fingerprint(request.model, request.messages), "response": response,
             "prompt_tokens": 1, "completion_tokens": 1}
            for request, response in replies
        ],
    )
    config = {
        "paths": {"corpus": "corpus.jsonl", "questions": "questions.jsonl", "output_dir": "out"},
        "strategy": "listwise_rerank",
        "selection_backend": {"transcript": "chat.jsonl"},
        "generation_backend": {"transcript": "chat.jsonl"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["select", "--config", str(config_path), "--question-id", "q1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["outcome"]["indices"] == [7, 6, 5, 4, 3, 2, 1]
    assert result["selected_ids"] == kept
    assert main(["run", "--config", str(config_path)]) == 0
    trace = json.loads((tmp_path / "out" / "traces.jsonl").read_text(encoding="utf-8"))
    assert trace["error"] is None and trace["selected_ids"] == kept


def test_cli_config_error_exit_codes(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path), "--set", "strategy=topk"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strategy" in err
    assert main(["run", "--config", str(config_path), "--set", "retriever.zzz=1"]) == 2
    assert "unknown configuration key" in capsys.readouterr().err
    # recording is a backend kind, not a switch beside it
    assert main(["run", "--config", str(config_path), "--set", "selection_backend.record=true"]) == 2
    assert capsys.readouterr().err == "config error: selection_backend.record: unknown configuration key\n"
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_eval_without_traces(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["eval", "--config", str(config_path)]) == 2
    assert "paths.traces" in capsys.readouterr().err


def test_cli_missing_input_paths(tmp_path, capsys):
    cfg = {
        "paths": {"questions": str(tmp_path / "q.jsonl"), "output_dir": str(tmp_path / "o")},
        "selection_backend": {"kind": "transcript", "transcript": str(tmp_path / "t.jsonl")},
        "generation_backend": {"kind": "transcript", "transcript": str(tmp_path / "t.jsonl")},
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    assert "paths.corpus" in capsys.readouterr().err


def test_cli_input_path_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["index", "--config", str(config_path), "--set", f"paths.corpus={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("name", ["corpus.jsonl", "questions.jsonl", "chat.jsonl", "out/distill.jsonl.rejects.jsonl"])
def test_cli_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, name):
    path = tmp_path / name
    if name.endswith(".rejects.jsonl"):
        command, config_path, where = "distill", build_distill_workspace(tmp_path), "line 1: "
        path.parent.mkdir()
        path.write_bytes(b'{"query_id": "q\xe9", "reason": "no-marker"}\n')
    else:
        command, config_path, where = "run", build_workspace(tmp_path), "line 2: "
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b'\n{"id": "caf\xe9"}\n' + rest)
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {where}not UTF-8\n"


@pytest.mark.parametrize("command,name,field", [("index", "corpus.jsonl", "text"), ("run", "chat.jsonl", "response")])
def test_cli_input_with_an_unpaired_surrogate_is_an_input_error(tmp_path, capsys, command, name, field):
    # json.loads takes a lone "\ud800" escape, but no UTF-8 writer can write its string back: index
    # died hashing the corpus, and run after answering every query, as it wrote the traces
    config_path = build_workspace(tmp_path)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines(True)
    lines[1] = lines[1].replace(f'"{field}": "', f'"{field}": "alpha \\ud800 ', 1)
    path.write_text("".join(lines), encoding="utf-8")
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: invalid JSON: unpaired surrogate '\\ud800' is not a character\n"
    assert not (tmp_path / "out" / "traces.jsonl").exists()


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config_path = tmp_path / "latin1.json"
    config_path.write_bytes(b'{"strategy": "caf\xe9"}')
    assert main(["config", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"config error: --config: {config_path} is not UTF-8\n"


@pytest.mark.parametrize(
    "text, reason",
    [('{"generation_backend": {"model": "gen\\ud800"}}', "unpaired surrogate '\\ud800' is not a character"),
     ('{"retriever": {"k": NaN}}', "NaN is not a JSON number")],
)
def test_cli_config_that_files_decode_refuses_is_a_config_error(tmp_path, capsys, text, reason):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text, encoding="utf-8")
    assert main(["config", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"config error: --config: invalid JSON in {config_path}: {reason}\n"


# --- distill command ---------------------------------------------------------------


def build_distill_workspace(tmp_path, n=4, missing=()):
    input_path = tmp_path / "distill_input.jsonl"
    transcript_path = tmp_path / "teacher.jsonl"
    with open(input_path, "w", encoding="utf-8") as fh:
        for i in range(1, n + 1):
            fh.write(
                json.dumps(
                    {
                        "id": f"q{i}",
                        "question": f"kw{i} question",
                        "candidates": [
                            {"id": f"q{i}c{j}", "text": f"kw{i} body {j}"} for j in range(1, 5)
                        ],
                    }
                )
                + "\n"
            )
    entries = []
    for i in range(1, n + 1):
        if f"q{i}" in missing:
            continue
        prompt = render_prompt(
            Strategy.REQUIREMENT_COT,
            f"kw{i} question",
            [f"kw{i} body {j}" for j in range(1, 5)],
        )
        req = user_request("selector", prompt)
        entries.append(
            {
                "fingerprint": request_fingerprint(req.model, req.messages),
                "response": f"Step 1. kw{i} needs body 2.\n### Final Selection: [2]",
                "prompt_tokens": 120,
                "completion_tokens": 15,
            },
        )
    write_jsonl(transcript_path, entries)
    config = {
        "paths": {
            "distill_input": str(input_path),
            "output_dir": str(tmp_path / "out"),
        },
        "selection_backend": {"kind": "transcript", "transcript": str(transcript_path)},
        "distill": {"expected_candidates": 4},
    }
    config_path = tmp_path / "distill_config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


def test_cli_distill(tmp_path, capsys):
    config_path = build_distill_workspace(tmp_path)
    assert main(["distill", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "labeled 4 queries (0 rejected, 0 already done)" in out
    records = [
        json.loads(l)
        for l in (tmp_path / "out" / "distill.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [r["query_id"] for r in records] == ["q1", "q2", "q3", "q4"]
    assert all(r["teacher_model"] == "selector" for r in records)
    assert out.endswith(
        f"records -> {tmp_path / 'out' / 'distill.jsonl'}\n"
        f"rejects -> {tmp_path / 'out' / 'distill.jsonl.rejects.jsonl'}\n"
    )
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["distill.jsonl", "distill.jsonl.rejects.jsonl"]
    # second invocation is a no-op: every query is in the records
    assert main(["distill", "--config", str(config_path)]) == 0
    assert "0 rejected, 4 already done" in capsys.readouterr().out


def test_cli_distill_resumes_a_job_begun_with_a_checkpoint_file(tmp_path, capsys):
    # the layout of earlier versions: records, rejects and <output>.checkpoint. The
    # transcript lacks q1-q3, so asking the teacher for any done query is a transport reject
    config_path = build_distill_workspace(tmp_path, n=5, missing=("q1", "q2", "q3"))
    out = tmp_path / "out"
    out.mkdir()
    records = "".join(json.dumps({"query_id": q, "strategy": "requirement_cot"}) + "\n" for q in ("q1", "q2"))
    (out / "distill.jsonl").write_text(records, encoding="utf-8")
    rejects = [{"query_id": "q3", "reason": "no-marker", "detail": "x"}, {"query_id": "q4", "reason": "transport"}]
    (out / "distill.jsonl.rejects.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rejects), encoding="utf-8")
    checkpoint = out / "distill.jsonl.checkpoint"
    checkpoint.write_bytes(b"q1\nq2\nq3\n")
    before = checkpoint.stat().st_mtime_ns
    assert main(["distill", "--config", str(config_path)]) == 0
    assert "labeled 2 queries (0 rejected, 3 already done)" in capsys.readouterr().out
    ids = [json.loads(l)["query_id"] for l in (out / "distill.jsonl").read_text(encoding="utf-8").splitlines()]
    assert ids == ["q1", "q2", "q4", "q5"]
    assert checkpoint.read_bytes() == b"q1\nq2\nq3\n" and checkpoint.stat().st_mtime_ns == before


def test_cli_distill_limit_flag(tmp_path, capsys):
    config_path = build_distill_workspace(tmp_path)
    assert main(["distill", "--config", str(config_path), "--limit", "3"]) == 0
    assert "labeled 3 queries" in capsys.readouterr().out


def test_cli_distill_retries_is_an_unknown_key(tmp_path, capsys):
    # the teacher is asked once per query: chat calls are greedy, so a re-ask repeats the request
    config_path = build_distill_workspace(tmp_path)
    assert main(["distill", "--config", str(config_path), "--set", "distill.retries=1"]) == 2
    assert capsys.readouterr().err == "config error: distill.retries: unknown configuration key\n"


def test_cli_distill_transport_exit_code(tmp_path, capsys):
    config_path = build_distill_workspace(tmp_path, missing=("q2",))
    assert main(["distill", "--config", str(config_path)]) == 1
    out = capsys.readouterr().out
    assert "rejected[transport]: 1" in out
    rejects = (tmp_path / "out" / "distill.jsonl.rejects.jsonl").read_text(encoding="utf-8")
    assert "q2" in rejects


# --- fixture outputs ------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_fixture_outputs_are_pinned(tmp_path):
    config = ["--config", str(FIXTURES / "config.json")]
    # relative paths resolve against the config's directory, so every output path is absolute
    assert main(["run", *config, "--output-dir", str(tmp_path / "run")]) == 0
    assert main(["eval", *config, "--output-dir", str(tmp_path / "run")]) == 0
    teacher = ["--set", f"selection_backend.transcript={FIXTURES / 'distill_transcript.jsonl'}"]
    for name, variants in (("plain", "[]"), ("variants", '["cot","selection_only"]')):
        out = ["--output-dir", str(tmp_path / name), "--set", f"distill.variants={variants}"]
        assert main(["distill", *config, *teacher, *out]) == 0

    def digest(*parts):
        return hashlib.sha256(tmp_path.joinpath(*parts).read_bytes()).hexdigest()

    assert digest("run", "traces.jsonl") == "239d6f7af5e75a1d4aed680185f00d58b9af890ee9d1b46e97d5f5767b5b9be8"
    assert digest("run", "report.json") == "17544a80ea87655de51a7ec9afc6ab12b1a64262f93f694777a835de0fb479e6"
    assert digest("run", "plots", "hit_at_k.tsv") == "aeccbf543b9672e134472bb50f166b4af37431163fee221879a3a4d3d008df8f"
    assert digest("run", "plots", "ic_at_k.tsv") == "ec80e072efae45f79c88b1f9d810dc06c17167388a2e5e35baedeb1b1ab64b08"
    assert digest("plain", "distill.jsonl") == "873bb4360e766521e07010166fc2f20ae2373f29c2e807b580fb77f9aa19342c"
    assert digest("variants", "distill.jsonl") == "d48d6ac35c7ee6316351a108cd92d2a2be207c2e1592ae29e1c62f6b4d9c7a06"
    for name in ("plain", "variants"):
        assert (tmp_path / name / "distill.jsonl.rejects.jsonl").read_bytes() == b""


# --- packaging ---------------------------------------------------------------------


def test_module_entrypoint_version():
    proc = subprocess.run(
        [sys.executable, "-m", "ragsel.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "ragsel" in proc.stdout and "0.1.0" in proc.stdout
