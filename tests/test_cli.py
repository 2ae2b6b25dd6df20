"""Tests for the command-line interface."""

import json
import subprocess
import sys

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
from ragsel.gateway import (
    HttpChatBackend,
    HttpEmbedBackend,
    append_transcript_entry,
    request_fingerprint,
    user_request,
)
from ragsel.pipeline import PromptStyle, render_answer_prompt
from ragsel.retrieval import AnalyzerConfig, Bm25Retriever, build_index
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
            "distill_checkpoint": None,
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
                "record": False,
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
            "strict_count": True,
            "retries": 0,
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
        ({"distill": {"retries": -1}}, "distill.retries"),
        ({"distill": {"variants": ["listwise_rerank"]}}, "distill.variants"),
        ({"chunk_limit": 0}, "chunk_limit"),
        ({"generation_backend": {"kind": "http", "record": True}}, "generation_backend.record"),
    ],
)
def test_validate_config_rejections(override, field):
    cfg = merge_config(default_config(), override)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(cfg)
    assert field in str(excinfo.value)


def test_backend_requirements_checked_at_build():
    cfg = merge_config(default_config(), {"selection_backend": {"kind": "http"}})
    validate_config(cfg)  # incomplete sections are fine until used
    with pytest.raises(ConfigError) as excinfo:
        build_backend(cfg, "selection_backend")
    assert "selection_backend.endpoint" in str(excinfo.value)
    cfg = default_config()
    with pytest.raises(ConfigError) as excinfo:
        build_backend(cfg, "generation_backend")
    assert "generation_backend.transcript" in str(excinfo.value)


@pytest.mark.parametrize("section", ["selection_backend", "generation_backend", "embedding_backend"])
@pytest.mark.parametrize("mode", ["http", "record"])
def test_backend_http_settings_reach_client(tmp_path, section, mode):
    settings = {"timeout": 5.0, "max_attempts": 7, "backoff_base": 0.1, "api_key_env": "SOME_KEY_VAR"}
    override = {"endpoint": "http://127.0.0.1:1/v1/", **settings}
    if mode == "record":
        override.update(kind="transcript", record=True, transcript=str(tmp_path / "rec.jsonl"))
    else:
        override.update(kind="http")
    cfg = merge_config(default_config(), {section: override})
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
    for qid, spec in QUERIES.items():
        candidates = retriever.retrieve(spec["question"], 20, query_id=qid)
        texts = [store.get(pid).text for pid in candidates.ids]
        sel_prompt = render_prompt(Strategy.REQUIREMENT_COT, spec["question"], texts)
        sel_req = user_request("selector", sel_prompt)
        append_transcript_entry(
            transcript_path,
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
        append_transcript_entry(
            transcript_path,
            {
                "fingerprint": request_fingerprint(gen_req.model, gen_req.messages),
                "response": spec["answer"],
                "prompt_tokens": 80,
                "completion_tokens": 4,
            },
        )
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


def test_cli_commands_read_the_default_index(tmp_path, capsys):
    config_path = build_workspace(tmp_path)
    assert main(["index", "--config", str(config_path)]) == 0
    (tmp_path / "out" / "index.npz").write_bytes(b"not an index")
    capsys.readouterr()
    assert main(["retrieve", "--config", str(config_path), "--query", "apple"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'out' / 'index.npz'}: not a BM25 index file\n"


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
    # neither the listwise prompt nor any embedding request is in the transcript
    config_path = build_workspace(tmp_path)
    dense = ["--set", f"paths.embedding_cache={tmp_path / 'emb.jsonl'}",
             "--set", f"embedding_backend.transcript={tmp_path / 'chat.jsonl'}"]
    assert main([*argv, "--config", str(config_path), *dense]) == 2
    assert capsys.readouterr().err.startswith("error: no transcript entry for request fingerprint")


@pytest.mark.parametrize("damage", [lambda blob: blob[:-40], lambda blob: blob.splitlines(True)[0] + b"{}\n"])
def test_cli_eval_malformed_traces_is_an_input_error(tmp_path, capsys, damage):
    config_path = build_workspace(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    traces_path = tmp_path / "out" / "traces.jsonl"
    traces_path.write_bytes(damage(traces_path.read_bytes()))
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "traces.jsonl: line 2" in err


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
    for request, response in [
        (user_request("selector", sel_prompt), "[7] > [6] > [5] > [4] > [3] > [2] > [1]"),
        (user_request("generator", gen_prompt, max_tokens=256), "A: x"),
    ]:
        entry = {"fingerprint": request_fingerprint(request.model, request.messages), "response": response}
        append_transcript_entry(transcript_path, {**entry, "prompt_tokens": 1, "completion_tokens": 1})
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
    for i in range(1, n + 1):
        if f"q{i}" in missing:
            continue
        prompt = render_prompt(
            Strategy.REQUIREMENT_COT,
            f"kw{i} question",
            [f"kw{i} body {j}" for j in range(1, 5)],
        )
        req = user_request("selector", prompt)
        append_transcript_entry(
            transcript_path,
            {
                "fingerprint": request_fingerprint(req.model, req.messages),
                "response": f"Step 1. kw{i} needs body 2.\n### Final Selection: [2]",
                "prompt_tokens": 120,
                "completion_tokens": 15,
            },
        )
    if not transcript_path.exists():
        transcript_path.write_text("", encoding="utf-8")
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
    # second invocation is a no-op thanks to the checkpoint
    assert main(["distill", "--config", str(config_path)]) == 0
    assert "0 rejected, 4 already done" in capsys.readouterr().out


def test_cli_distill_limit_flag(tmp_path, capsys):
    config_path = build_distill_workspace(tmp_path)
    assert main(["distill", "--config", str(config_path), "--limit", "3"]) == 0
    assert "labeled 3 queries" in capsys.readouterr().out


def test_cli_distill_transport_exit_code(tmp_path, capsys):
    config_path = build_distill_workspace(tmp_path, missing=("q2",))
    assert main(["distill", "--config", str(config_path)]) == 1
    out = capsys.readouterr().out
    assert "rejected[transport]: 1" in out
    rejects = (tmp_path / "out" / "distill.jsonl.rejects.jsonl").read_text(encoding="utf-8")
    assert "q2" in rejects


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
