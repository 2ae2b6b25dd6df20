"""Tests for teacher labeling and training-record construction."""

import json
import threading

import pytest

from ragsel.gateway import HttpChatBackend, TransportError, Usage
from ragsel.distill import (
    DistillError,
    LabelingStats,
    build_record,
    derive_variant_record,
    label_query,
    load_label_queries,
    run_labeling,
)
from ragsel.selection import SELECTION_MARKER, Strategy, parse_selection, sanitize_indices

GOOD = "Step 1. Needs the founding date.\nStep 2. [2] and [4] carry it.\n### Final Selection: [2] [4]"


class ScriptedTeacher:
    """Returns queued responses per routing keyword; thread-safe."""

    def __init__(self, scripts, default=GOOD, usage=Usage(120, 15)):
        # scripts: {keyword: [completion-or-exception, ...]}
        self.scripts = {k: list(v) for k, v in scripts.items()}
        self.default = default
        self.usage = usage
        self.calls = []
        self._lock = threading.Lock()

    def chat(self, request):
        content = request.messages[0]["content"]
        with self._lock:
            self.calls.append(content)
            for keyword, queue in self.scripts.items():
                if keyword in content:
                    item = queue.pop(0) if len(queue) > 1 else queue[0]
                    if isinstance(item, Exception):
                        raise item
                    return item, self.usage
        return self.default, self.usage

    def describe(self):
        return {"kind": "scripted-teacher"}


def write_input(path, n=10, candidates=4):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(1, n + 1):
            record = {
                "id": f"q{i}",
                "question": f"kw{i} question",
                "candidates": [
                    {"id": f"q{i}c{j}", "doc_id": f"d{i}", "text": f"kw{i} candidate body {j}"}
                    for j in range(1, candidates + 1)
                ],
            }
            fh.write(json.dumps(record) + "\n")
    return path


# --- input loading -----------------------------------------------------------


def test_load_label_queries(tmp_path):
    path = write_input(tmp_path / "in.jsonl", n=3)
    queries = load_label_queries(path)
    assert [q.id for q in queries] == ["q1", "q2", "q3"]
    assert queries[0].question == "kw1 question"
    assert len(queries[0].candidate_texts) == 4


def test_load_label_queries_cleans_text(tmp_path):
    path = tmp_path / "in.jsonl"
    record = {
        "id": "q1",
        "question": "what\x07 is this",
        "candidates": [{"id": "c1", "text": "see [12] for  more"}],
    }
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    q = load_label_queries(path)[0]
    assert q.question == "what is this"
    assert q.candidate_texts == ("see (12) for more",)


@pytest.mark.parametrize(
    "record,fragment",
    [
        ({"question": "q", "candidates": [{"id": "c", "text": "t"}]}, "missing query id"),
        ({"id": "q1", "question": "", "candidates": [{"id": "c", "text": "t"}]}, "empty question"),
        ({"id": "q1", "question": "q", "candidates": []}, "no candidates"),
        ({"id": "q1", "question": "q", "candidates": [{"id": "c", "text": "  "}]}, "empty candidate text"),
    ],
)
def test_load_label_queries_validation(tmp_path, record, fragment):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DistillError) as excinfo:
        load_label_queries(path)
    assert fragment in str(excinfo.value)
    assert ": line 1:" in str(excinfo.value)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('["q1", "q", []]', "expected an object"),
        ('"q1"', "expected an object"),
        ('{"id": "q1", "question": "q", "candidates": ["text"]}', "candidate is not an object"),
        ('{"id": "q1", "question": "q", "candidates": [{"text": "t"}, null]}', "candidate is not an object"),
    ],
    ids=["list-line", "string-line", "string-candidate", "null-candidate"],
)
def test_load_label_queries_rejects_non_objects(tmp_path, line, fragment):
    path = tmp_path / "in.jsonl"
    good = json.dumps({"id": "q0", "question": "q", "candidates": [{"id": "c", "text": "t"}]})
    path.write_text(good + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DistillError) as excinfo:
        load_label_queries(path)
    assert fragment in str(excinfo.value) and ": line 2:" in str(excinfo.value)


def test_load_label_queries_duplicate_id(tmp_path):
    path = tmp_path / "in.jsonl"
    line = json.dumps({"id": "q1", "question": "q", "candidates": [{"id": "c", "text": "t"}]})
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DistillError) as excinfo:
        load_label_queries(path)
    assert "duplicate query id" in str(excinfo.value) and ": line 2:" in str(excinfo.value)


# --- single-query labeling ------------------------------------------------------


def test_label_query_renders_and_returns():
    teacher = ScriptedTeacher({})
    result = label_query(teacher, "teacher-xl", "kw1 question", ["a", "b", "c", "d"], 4)
    assert "I will provide you with 4 passages" in result.prompt
    assert "kw1 question" in result.prompt
    assert result.completion == GOOD
    assert result.usage == Usage(120, 15)
    assert teacher.calls == [result.prompt]


def test_label_query_strict_count():
    teacher = ScriptedTeacher({})
    with pytest.raises(DistillError) as excinfo:
        label_query(teacher, "m", "q", ["a", "b"], expected_candidates=4)
    assert "expected 4 candidates, got 2" in str(excinfo.value)
    assert teacher.calls == []
    result = label_query(teacher, "m", "q", ["a", "b"], expected_candidates=4, strict=False)
    assert result.completion == GOOD


# --- record construction ---------------------------------------------------------


def test_build_record_good():
    record = build_record("PROMPT", GOOD, "q1", "teacher-xl", 4)
    assert record.to_dict()["messages"] == [
        {"role": "user", "content": "PROMPT"},
        {"role": "assistant", "content": GOOD},
    ]
    assert record.selected_indices == (2, 4)
    assert record.dropped_indices == 0
    assert record.to_dict()["strategy"] == "requirement_cot"


def test_build_record_rejects():
    with pytest.raises(DistillError) as excinfo:
        build_record("P", "no structured selection here", "q1", "m", 4)
    assert str(excinfo.value) == "no-marker"
    with pytest.raises(DistillError) as excinfo:
        build_record("P", "### Final Selection: [9] [12]", "q1", "m", 4)
    assert str(excinfo.value) == "empty-after-sanitize"


def test_build_record_partial_out_of_range():
    record = build_record("P", "### Final Selection: [2] [9] [1]", "q1", "m", 4)
    assert record.selected_indices == (2, 1)
    assert record.dropped_indices == 1


# --- variants -------------------------------------------------------------------


def test_derive_variant_records():
    record = build_record("P", GOOD, "q1", "teacher-xl", 4)
    texts = ["a", "b", "c", "d"]
    cot = derive_variant_record(record, Strategy.COT, "kw1 question", texts)
    assert cot.completion == GOOD
    assert cot.prompt.endswith("Let's think step by step.")
    only = derive_variant_record(record, Strategy.SELECTION_ONLY, "kw1 question", texts)
    assert only.completion == "### Final Selection: [2] [4]"
    assert "do not say any word" in only.prompt
    assert only.selected_indices == (2, 4)
    with pytest.raises(DistillError):
        derive_variant_record(record, Strategy.LISTWISE_RERANK, "kw1 question", texts)


# --- end-to-end labeling runs -----------------------------------------------------


def run(tmp_path, teacher, n=10, **kwargs):
    input_path = tmp_path / "in.jsonl"
    if not input_path.exists():
        write_input(input_path, n=n)
    defaults = dict(expected_candidates=4, concurrency=3)
    defaults.update(kwargs)
    return run_labeling(
        input_path,
        teacher,
        "teacher-xl",
        tmp_path / "out.jsonl",
        tmp_path / "ck.txt",
        **defaults,
    )


def read_records(tmp_path):
    out = tmp_path / "out.jsonl"
    if not out.exists():
        return []
    return [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines() if l.strip()]


def test_run_labeling_full(tmp_path):
    teacher = ScriptedTeacher({})
    stats = run(tmp_path, teacher)
    assert stats.accepted == 10 and stats.rejected == 0 and stats.skipped == 0
    records = read_records(tmp_path)
    assert [r["query_id"] for r in records] == [f"q{i}" for i in range(1, 11)]
    assert stats.teacher_usage == Usage(1200, 150)
    checkpoint = (tmp_path / "ck.txt").read_text(encoding="utf-8").split()
    assert checkpoint == [f"q{i}" for i in range(1, 11)]
    for r in records:
        assistant = r["messages"][1]["content"]
        parsed = parse_selection(assistant)
        assert parsed is not None
        assert sanitize_indices(parsed, 4) == parsed


def test_run_labeling_limit_then_resume(tmp_path):
    teacher = ScriptedTeacher({})
    first = run(tmp_path, teacher, limit=6)
    assert first.accepted == 6 and first.skipped == 0
    second = run(tmp_path, teacher)
    assert second.accepted == 4 and second.skipped == 6
    ids = [r["query_id"] for r in read_records(tmp_path)]
    assert len(ids) == 10 and len(set(ids)) == 10
    third = run(tmp_path, teacher)
    assert third.accepted == 0 and third.skipped == 10


def test_run_labeling_writes_each_completion_before_a_crash(tmp_path):
    # the teacher dies on q4 of 5: q1-q3 were paid for and must not be lost
    teacher = ScriptedTeacher({"kw4 ": [RuntimeError("teacher died")]})
    with pytest.raises(RuntimeError, match="teacher died"):
        run(tmp_path, teacher, n=5, concurrency=1)
    assert [r["query_id"] for r in read_records(tmp_path)] == ["q1", "q2", "q3"]
    assert (tmp_path / "ck.txt").read_text(encoding="utf-8").split() == ["q1", "q2", "q3"]
    resumed = ScriptedTeacher({})
    stats = run(tmp_path, resumed, n=5, concurrency=1)
    assert stats.accepted == 2 and stats.skipped == 3
    assert [[i for i in range(1, 6) if f"kw{i} question" in c] for c in resumed.calls] == [[4], [5]]
    assert [r["query_id"] for r in read_records(tmp_path)] == [f"q{i}" for i in range(1, 6)]


@pytest.mark.parametrize(
    "damage,fragment",
    [
        (lambda text: text[:-20], "line 3: invalid JSON"),  # an interrupted write cuts the last line
        (lambda text: text + '{"messages": []}\n', "line 4: missing string field 'query_id'"),
    ],
    ids=["truncated-line", "no-query-id"],
)
def test_run_labeling_resume_rejects_malformed_records(tmp_path, damage, fragment):
    run(tmp_path, ScriptedTeacher({}), limit=3)
    out = tmp_path / "out.jsonl"
    out.write_text(damage(out.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DistillError, match=f"out.jsonl: {fragment}"):
        run(tmp_path, ScriptedTeacher({}))


def test_run_labeling_parse_reject_is_final(tmp_path):
    teacher = ScriptedTeacher({"kw4 ": ["I refuse to answer in the requested format."]})
    stats = run(tmp_path, teacher)
    assert stats.accepted == 9 and stats.rejected == 1
    assert stats.reject_reasons == {"no-marker": 1}
    rejects = [
        json.loads(l)
        for l in (tmp_path / "out.jsonl.rejects.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert rejects[0]["query_id"] == "q4" and rejects[0]["reason"] == "no-marker"
    assert all(r["query_id"] != "q4" for r in read_records(tmp_path))
    again = run(tmp_path, teacher)
    assert again.skipped == 10 and again.accepted == 0 and again.rejected == 0


def test_run_labeling_transport_reject_retried_on_resume(tmp_path):
    flaky = ScriptedTeacher({"kw7 ": [TransportError("socket reset"), GOOD]})
    stats = run(tmp_path, flaky)
    assert stats.accepted == 9 and stats.rejected == 1
    assert stats.reject_reasons == {"transport": 1}
    resumed = run(tmp_path, flaky)
    assert resumed.accepted == 1 and resumed.skipped == 9
    ids = [r["query_id"] for r in read_records(tmp_path)]
    assert sorted(ids) == sorted(f"q{i}" for i in range(1, 11))


def test_run_labeling_retries_on_parse_failure(tmp_path):
    teacher = ScriptedTeacher({"kw2 ": ["gibberish first try", GOOD]})
    stats = run(tmp_path, teacher, n=3, retries=1)
    assert stats.accepted == 3 and stats.rejected == 0
    # q2 took two teacher calls, q1 and q3 one each
    assert stats.teacher_usage == Usage(480, 60)


def test_run_labeling_sanitize_reject(tmp_path):
    teacher = ScriptedTeacher({"kw1 ": ["### Final Selection: [99]"]})
    stats = run(tmp_path, teacher, n=2)
    assert stats.accepted == 1 and stats.reject_reasons == {"empty-after-sanitize": 1}


def test_run_labeling_candidate_count_reject(tmp_path):
    teacher = ScriptedTeacher({})
    stats = run(tmp_path, teacher, n=2, expected_candidates=9)
    assert stats.accepted == 0 and stats.rejected == 2
    assert stats.reject_reasons == {"candidate-count": 2}
    assert teacher.calls == []
    relaxed = run(tmp_path, teacher, n=2, expected_candidates=9, strict_count=False)
    assert relaxed.accepted == 2


def test_run_labeling_with_variants(tmp_path):
    teacher = ScriptedTeacher({})
    stats = run(
        tmp_path, teacher, n=4, variants=(Strategy.COT, Strategy.SELECTION_ONLY)
    )
    assert stats.accepted == 4
    records = read_records(tmp_path)
    assert len(records) == 12
    by_strategy = {}
    for r in records:
        by_strategy.setdefault(r["strategy"], []).append(r)
    assert sorted(by_strategy) == ["cot", "requirement_cot", "selection_only"]
    for r in by_strategy["selection_only"]:
        assert r["messages"][1]["content"].startswith(SELECTION_MARKER)
    for r in records:
        parsed = parse_selection(r["messages"][1]["content"])
        assert parsed and sanitize_indices(parsed, 4) == parsed
    prompts = {s: rs[0]["messages"][0]["content"] for s, rs in by_strategy.items()}
    assert len(set(prompts.values())) == 3


def test_run_labeling_malformed_reply_is_transport_reject(tmp_path, scripted_server):
    good = {"choices": [{"message": {"content": GOOD}}], "usage": {"prompt_tokens": 5, "completion_tokens": 2}}
    # q1 gets a 200 without choices, q2 a good reply; one worker keeps the order
    with scripted_server([(200, {"id": "x"}), (200, good)]) as (endpoint, log):
        stats = run(tmp_path, HttpChatBackend(endpoint, backoff_base=0.001), n=2, concurrency=1)
    assert len(log) == 2
    assert stats.accepted == 1 and stats.rejected == 1
    assert stats.reject_reasons == {"transport": 1}
    assert [r["query_id"] for r in read_records(tmp_path)] == ["q2"]
    assert (tmp_path / "ck.txt").read_text(encoding="utf-8").split() == ["q2"]


def test_run_labeling_bad_input_aborts(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DistillError):
        run_labeling(
            path,
            ScriptedTeacher({}),
            "m",
            tmp_path / "out.jsonl",
            tmp_path / "ck.txt",
        )
    assert not (tmp_path / "out.jsonl").exists()


def test_stats_default_shape():
    stats = LabelingStats()
    assert stats.accepted == 0 and stats.rejected == 0 and stats.skipped == 0
    assert stats.teacher_usage == Usage(0, 0)
