"""Tests for teacher labeling and training-record construction."""

import json
import random
import threading

import pytest

from ragsel import selection
from ragsel.gateway import HttpChatBackend, TransportError, Usage
from ragsel.distill import DistillError, LabelingStats, load_label_queries, run_labeling
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
        ({"id": "q1", "question": None, "candidates": [{"text": "t"}]}, "'question' must be a string"),
        ({"id": "q1", "question": 42, "candidates": [{"text": "t"}]}, "'question' must be a string"),
        ({"id": "q1", "question": ["q"], "candidates": [{"text": "t"}]}, "'question' must be a string"),
        ({"id": "q1", "question": "q", "candidates": [{"text": None}]}, "'text' must be a string"),
        ({"id": "q1", "question": "q", "candidates": [{"text": "t"}, {"text": 42}]}, "'text' must be a string"),
        ({"id": "q1", "question": "q", "candidates": [{"text": ["t"]}]}, "'text' must be a string"),
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
        tmp_path / "out.jsonl.rejects.jsonl",
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
    assert (tmp_path / "out.jsonl.rejects.jsonl").read_bytes() == b""
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
    resumed = ScriptedTeacher({})
    stats = run(tmp_path, resumed, n=5, concurrency=1)
    assert stats.accepted == 2 and stats.skipped == 3
    assert [[i for i in range(1, 6) if f"kw{i} question" in c] for c in resumed.calls] == [[4], [5]]
    assert [r["query_id"] for r in read_records(tmp_path)] == [f"q{i}" for i in range(1, 6)]


REJECT = '{"query_id": "q9", "reason": "no-marker", "detail": ""}\n'


@pytest.mark.parametrize(
    "name,damage,fragment",
    [
        ("out.jsonl", lambda text: text[:-20] + "\n", "line 3: invalid JSON"),  # ends in a newline, so not a torn tail
        ("out.jsonl", lambda text: text + '{"messages": []}\n', "line 4: missing string field 'query_id'"),
        # the rejects file of that run is empty; a good line comes before the bad one
        ("out.jsonl.rejects.jsonl", lambda _: REJECT + '["q1", "no-marker"]\n', "line 2: expected an object"),
        ("out.jsonl.rejects.jsonl", lambda _: REJECT + '{"query_id": 7}\n', "line 2: missing string field 'query_id'"),
    ],
    ids=["truncated-line", "no-query-id", "reject-list-line", "reject-number-query-id"],
)
def test_run_labeling_resume_rejects_malformed_records(tmp_path, name, damage, fragment):
    run(tmp_path, ScriptedTeacher({}), limit=3)
    path = tmp_path / name
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DistillError, match=f"{name}: {fragment}"):
        run(tmp_path, ScriptedTeacher({}))


def test_run_labeling_cuts_a_trailing_group_short_of_its_variants(tmp_path):
    # the records end with q2's base record alone: a kill came between the
    # lines of its group, so q2 is cut and labeled again, whole
    run(tmp_path, ScriptedTeacher({}), n=2, variants=(Strategy.COT,))
    want = (tmp_path / "out.jsonl").read_bytes()
    lines = want.splitlines(keepends=True)
    assert [json.loads(l)["strategy"] for l in lines] == ["requirement_cot", "cot"] * 2
    (tmp_path / "out.jsonl").write_bytes(b"".join(lines[:3]))
    teacher = ScriptedTeacher({})
    stats = run(tmp_path, teacher, n=2, variants=(Strategy.COT,))
    assert stats.accepted == 1 and stats.skipped == 1
    assert len(teacher.calls) == 1 and "kw2 question" in teacher.calls[0]
    assert (tmp_path / "out.jsonl").read_bytes() == want


def _appends_of(run_dir, n):
    """The appends one labeling run made, in order: per query its records
    group or its reject line."""
    by_id = {}
    for name in ("out.jsonl", "out.jsonl.rejects.jsonl"):
        for line in (run_dir / name).read_bytes().splitlines(keepends=True):
            by_id.setdefault((name, json.loads(line)["query_id"]), []).append(line)
    appends = []
    for qid in (f"q{i}" for i in range(1, n + 1)):
        for name in ("out.jsonl", "out.jsonl.rejects.jsonl"):
            if (name, qid) in by_id:
                appends.append((name, b"".join(by_id[name, qid])))
    return appends


def test_run_labeling_resume_after_a_kill_is_exact(tmp_path):
    # a kill leaves every earlier append whole and a prefix of the current
    # one; resuming from any such state gives the uninterrupted run's files
    variants = (Strategy.COT, Strategy.SELECTION_ONLY)
    whole = tmp_path / "whole"
    whole.mkdir()
    run(whole, ScriptedTeacher({"kw3 ": ["no selection line"]}), n=5, variants=variants)
    names = ("out.jsonl", "out.jsonl.rejects.jsonl")
    want = {name: (whole / name).read_bytes() for name in names}
    appends = _appends_of(whole, 5)
    for name in names:
        assert b"".join(chunk for n, chunk in appends if n == name) == want[name]
    rng = random.Random(11)
    kills = []
    for i, (_, chunk) in enumerate(appends):
        lines = chunk.splitlines(keepends=True)
        offsets = {sum(map(len, lines[:j])) for j in range(len(lines))} | {len(chunk) - 1}
        kills += [(i, cut) for cut in sorted(offsets | {rng.randrange(1, len(chunk)) for _ in range(3)})]
    kills.append((len(appends), 0))
    for k, (i, cut) in enumerate(kills):
        state = tmp_path / f"kill{k}"
        state.mkdir()
        for name in names:
            done = b"".join(chunk for n, chunk in appends[:i] if n == name)
            if i < len(appends) and appends[i][0] == name:
                done += appends[i][1][:cut]
            (state / name).write_bytes(done)
        run(state, ScriptedTeacher({"kw3 ": ["no selection line"]}), n=5, variants=variants)
        got = {name: (state / name).read_bytes() for name in names}
        assert got == want, (i, cut)


def test_run_labeling_parses_each_completion_once(tmp_path, monkeypatch):
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_selection(text)

    monkeypatch.setattr(selection, "parse_selection", counting_parse)
    teacher = ScriptedTeacher({"kw2 ": ["gibberish first try", GOOD]})
    stats = run(tmp_path, teacher, n=3)
    # one teacher call per query: a completion that fails to parse is a reject, not a second ask
    assert stats.accepted == 2 and stats.reject_reasons == {"no-marker": 1}
    assert len(teacher.calls) == 3 and stats.teacher_usage == Usage(360, 45)
    assert len(parsed) == 3


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


def test_run_labeling_sanitize_reject(tmp_path):
    teacher = ScriptedTeacher(
        {"kw1 ": ["### Final Selection: [99]"], "kw2 ": ["### Final Selection: [2] [9] [1]"]}
    )
    stats = run(tmp_path, teacher, n=2)
    assert stats.accepted == 1 and stats.reject_reasons == {"empty-after-sanitize": 1}
    # a partly out-of-range selection keeps its in-range part
    (record,) = read_records(tmp_path)
    assert record["query_id"] == "q2"
    assert record["selected_indices"] == [2, 1] and record["dropped_indices"] == 1


def test_run_labeling_candidate_count_reject(tmp_path):
    teacher = ScriptedTeacher({})
    stats = run(tmp_path, teacher, n=2, expected_candidates=9)
    assert stats.accepted == 0 and stats.rejected == 2
    assert stats.reject_reasons == {"candidate-count": 2}
    assert teacher.calls == []
    rejects = (tmp_path / "out.jsonl.rejects.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(rejects[0])["detail"] == "expected 9 candidates, got 4"
    relaxed = run(tmp_path, teacher, n=2, expected_candidates=None)
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


def test_run_labeling_record_shape(tmp_path):
    teacher = ScriptedTeacher({})
    stats = run(tmp_path, teacher, n=1, variants=(Strategy.COT, Strategy.SELECTION_ONLY))
    assert stats.teacher_usage == Usage(120, 15)
    base, cot, only = read_records(tmp_path)
    # the base record carries the very prompt the teacher answered
    assert teacher.calls == [base["messages"][0]["content"]]
    for record, strategy in ((base, "requirement_cot"), (cot, "cot"), (only, "selection_only")):
        user, assistant = record["messages"]
        assert (user["role"], assistant["role"]) == ("user", "assistant")
        assert "I will provide you with 4 passages" in user["content"]
        assert "kw1 question" in user["content"]
        assert {k: v for k, v in record.items() if k != "messages"} == {
            "query_id": "q1",
            "teacher_model": "teacher-xl",
            "strategy": strategy,
            "selected_indices": [2, 4],
            "dropped_indices": 0,
        }
    assert base["messages"][1]["content"] == cot["messages"][1]["content"] == GOOD
    assert cot["messages"][0]["content"].endswith("Let's think step by step.")
    assert only["messages"][1]["content"] == "### Final Selection: [2] [4]"
    assert "do not say any word" in only["messages"][0]["content"]


def test_run_labeling_rejects_bad_variants_before_any_work(tmp_path):
    teacher = ScriptedTeacher({"kw1 ": ["no selection line"]})
    # requirement_cot is the teacher's own prompt: as a variant it would write each record twice
    for variant in (Strategy.LISTWISE_RERANK, Strategy.REQUIREMENT_COT):
        with pytest.raises(DistillError, match=f"not a labeling variant: {variant.value} "):
            run(tmp_path, teacher, n=2, variants=(Strategy.COT, variant))
    assert teacher.calls == []
    for name in ("out.jsonl", "out.jsonl.rejects.jsonl"):
        assert not (tmp_path / name).exists()


def test_run_labeling_malformed_reply_is_transport_reject(tmp_path, scripted_server):
    good = {"choices": [{"message": {"content": GOOD}}], "usage": {"prompt_tokens": 5, "completion_tokens": 2}}
    # q1 gets a 200 without choices, q2 a good reply; one worker keeps the order
    with scripted_server([(200, {"id": "x"}), (200, good)]) as (endpoint, log):
        stats = run(tmp_path, HttpChatBackend(endpoint, backoff_base=0.001), n=2, concurrency=1)
    assert len(log) == 2
    assert stats.accepted == 1 and stats.rejected == 1
    assert stats.reject_reasons == {"transport": 1}
    assert [r["query_id"] for r in read_records(tmp_path)] == ["q2"]
    (reject,) = (tmp_path / "out.jsonl.rejects.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(reject)["query_id"] == "q1"


def test_run_labeling_bad_input_aborts(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DistillError):
        run_labeling(
            path,
            ScriptedTeacher({}),
            "m",
            tmp_path / "out.jsonl",
            tmp_path / "out.jsonl.rejects.jsonl",
        )
    assert not (tmp_path / "out.jsonl").exists()


def test_stats_default_shape():
    stats = LabelingStats()
    assert stats.accepted == 0 and stats.rejected == 0 and stats.skipped == 0
    assert stats.teacher_usage == Usage(0, 0)
