import random
from pathlib import Path

import pytest

from ragsel.gateway import TransportError, Usage
from ragsel.selection import (
    SELECTION_MARKER,
    SelectionError,
    SelectionOutcome,
    Strategy,
    fallback_indices,
    load_template,
    parse_ranking,
    parse_selection,
    read_selection,
    render_context,
    render_prompt,
    sanitize_indices,
    select,
    split_selection,
)


class StubChat:
    def __init__(self, text="", usage=Usage(5, 7), error=None):
        self.text = text
        self.usage = usage
        self.error = error
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        if self.error is not None:
            raise self.error
        return self.text, self.usage


def test_render_requirement_cot_two_candidates():
    question = "who built the aqueduct"
    prompt = render_prompt(Strategy.REQUIREMENT_COT, question, ["first text", "second text"])
    assert "I will provide you with 2 passages" in prompt
    assert prompt.count(question) == 2
    assert "Search Query: who built the aqueduct" in prompt
    assert "Step 1." in prompt and "Step 2." in prompt and "Step 3." in prompt
    assert "[1] first text" in prompt
    assert "[2] second text" in prompt
    assert SELECTION_MARKER in prompt  # format example inside the instructions


def test_render_cot_ends_with_step_by_step():
    prompt = render_prompt(Strategy.COT, "q", ["only text"])
    assert prompt.endswith("Let's think step by step.")


def test_render_selection_only_instruction():
    prompt = render_prompt(Strategy.SELECTION_ONLY, "q", ["a", "b", "c"])
    assert "Only respond with the selection results, do not say any word or explain." in prompt


def test_render_listwise_rerank_instruction():
    prompt = render_prompt(Strategy.LISTWISE_RERANK, "q", ["a", "b"])
    assert "Rank the passages based on their relevance" in prompt
    assert "[1] > [2]" in prompt
    assert "I will provide you with 2 passages" in prompt


def test_render_context_numbers_in_order():
    ctx = render_context(["alpha", "beta", "gamma"])
    assert ctx.splitlines() == ["[1] alpha", "[2] beta", "[3] gamma"]


def test_render_context_rewrites_bracket_ids():
    assert render_context(["cites [3] inline"]) == "[1] cites (3) inline"


def test_render_prompt_rejects_empty_candidates():
    with pytest.raises(SelectionError, match="non-empty"):
        render_prompt(Strategy.COT, "q", [])


def test_render_prompt_permutation_changes_only_context():
    a = render_prompt(Strategy.COT, "q", ["one", "two"])
    b = render_prompt(Strategy.COT, "q", ["two", "one"])
    assert a != b
    assert a.replace("[1] one", "X").replace("[2] two", "Y") == b.replace(
        "[1] two", "X"
    ).replace("[2] one", "Y")


def test_template_override_dir(tmp_path):
    (tmp_path / "cot.txt").write_text("custom {num} {question} {context}", encoding="utf-8")
    prompt = render_prompt(Strategy.COT, "why", ["t"], templates_dir=tmp_path)
    assert prompt == "custom 1 why [1] t"
    # other templates still come from the package
    assert "Only respond" in load_template("selection_only", templates_dir=tmp_path)


def test_templates_are_read_once_per_directory(tmp_path, monkeypatch):
    one, two = tmp_path / "one", tmp_path / "two"
    for directory, text in ((one, "first {context}"), (two, "second {context}")):
        directory.mkdir()
        (directory / "cot.txt").write_text(text, encoding="utf-8")
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **kw: reads.append(self) or read_text(self, *a, **kw))
    for _ in range(100):
        assert render_prompt(Strategy.COT, "q", ["t"], templates_dir=one) == "first [1] t"
    assert reads == [one / "cot.txt"]
    assert render_prompt(Strategy.COT, "q", ["t"], templates_dir=two) == "second [1] t"
    assert render_prompt(Strategy.COT, "q", ["t"], templates_dir=one) == "first [1] t"


def test_unknown_template_errors():
    with pytest.raises(SelectionError, match="no template"):
        load_template("nonexistent_template")


def test_parse_selection_examples():
    assert parse_selection("### Final Selection: [3] [3] [1]") == [3, 1]
    assert parse_selection("reasoning first\n### Final Selection: [2] [1]") == [2, 1]
    assert parse_selection("no marker anywhere") is None


def test_parse_selection_last_marker_wins():
    text = "### Final Selection: [1]\nwait, reconsidering\n### Final Selection: [4] [2]"
    assert parse_selection(text) == [4, 2]


def test_parse_selection_marker_without_integers_fails():
    assert parse_selection("### Final Selection: none") is None
    assert parse_selection("### Final Selection:") is None
    assert parse_selection("### Final Selection: [x]") is None


def test_split_selection_takes_the_last_marker_line():
    text = "a\n### Final Selection: [1]\nb\n### Final Selection: [2]\n"
    assert split_selection(text) == ("a\n### Final Selection: [1]\nb", "### Final Selection: [2]")
    assert split_selection("  no marker \n") == ("no marker", None)


def test_parse_selection_tolerates_inner_whitespace():
    assert parse_selection("### Final Selection: [ 2 ] [1 ]") == [2, 1]


def test_parse_ranking_examples():
    assert parse_ranking("[2] > [1] > [3]") == [2, 1, 3]
    assert parse_ranking("[4]>[4]>[2]") == [4, 2]
    assert parse_ranking("no ranking here") is None


def test_sanitize_examples():
    assert sanitize_indices([2, 9, 1], 5) == [2, 1]
    assert sanitize_indices([], 5) == []
    assert sanitize_indices([7, 8], 5) == []
    assert sanitize_indices([1, 5], 5) == [1, 5]
    assert sanitize_indices([0, -2, 1], 5) == [1]


def test_fallback_indices_rule():
    assert fallback_indices(20) == [1, 2, 3, 4, 5]
    assert fallback_indices(5) == [1, 2, 3, 4, 5]
    assert fallback_indices(4) == [1]
    assert fallback_indices(1) == [1]
    with pytest.raises(SelectionError):
        fallback_indices(0)


def test_select_happy_path_records_everything():
    backend = StubChat(text="I think [2] covers it.\n### Final Selection: [2]", usage=Usage(40, 12))
    outcome = select("q", ["a", "b", "c"], Strategy.REQUIREMENT_COT, backend, model="m")
    assert outcome.indices == [2]
    assert outcome.fallback_applied is False
    assert outcome.reasoning == "I think [2] covers it."
    assert outcome.raw_completion.endswith("[2]")
    assert outcome.usage == Usage(40, 12)
    assert outcome.strategy is Strategy.REQUIREMENT_COT
    sent = backend.requests[0]
    assert sent.model == "m"
    assert "I will provide you with 3 passages" in sent.messages[0]["content"]


def test_select_fallback_no_marker_20_candidates():
    backend = StubChat(text="I cannot find a selection.")
    outcome = select("q", [f"t{i}" for i in range(20)], Strategy.REQUIREMENT_COT, backend, model="m")
    assert outcome.indices == [1, 2, 3, 4, 5]
    assert outcome.fallback_applied is True


def test_select_fallback_fewer_than_five_candidates():
    backend = StubChat(text="nothing parseable")
    outcome = select("q", ["a", "b", "c"], Strategy.COT, backend, model="m")
    assert outcome.indices == [1]
    assert outcome.fallback_applied is True


def test_select_fallback_when_all_indices_out_of_range():
    backend = StubChat(text="### Final Selection: [99] [42]")
    outcome = select("q", ["a", "b", "c", "d", "e", "f"], Strategy.COT, backend, model="m")
    assert outcome.indices == [1, 2, 3, 4, 5]
    assert outcome.fallback_applied is True


def test_select_partial_out_of_range_is_not_fallback():
    backend = StubChat(text="### Final Selection: [4] [4] [99] [2]")
    outcome = select("q", ["a", "b", "c", "d"], Strategy.COT, backend, model="m")
    assert outcome.indices == [4, 2]
    assert outcome.fallback_applied is False
    assert outcome.dropped_indices == 1


def test_select_listwise_parses_ranking():
    backend = StubChat(text="[2] > [3] > [1]")
    outcome = select("q", ["a", "b", "c"], Strategy.LISTWISE_RERANK, backend, model="m")
    assert outcome.indices == [2, 3, 1]
    assert outcome.reasoning == ""
    assert outcome.fallback_applied is False


def test_select_listwise_fallback_on_unparseable():
    backend = StubChat(text="I refuse to rank.")
    outcome = select("q", [f"t{i}" for i in range(8)], Strategy.LISTWISE_RERANK, backend, model="m")
    assert outcome.indices == [1, 2, 3, 4, 5]
    assert outcome.fallback_applied is True


def test_select_transport_error_propagates():
    backend = StubChat(error=TransportError("boom"))
    with pytest.raises(TransportError):
        select("q", ["a"], Strategy.COT, backend, model="m")


def test_selection_roundtrip_random():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randrange(1, 21)
        size = rng.randrange(1, n + 1)
        indices = rng.sample(range(1, n + 1), size)
        line = SELECTION_MARKER + " " + " ".join(f"[{i}]" for i in indices)
        assert parse_selection("preamble\n" + line) == indices


def _adversarial_completion(rng):
    fragments = []
    for _ in range(rng.randrange(0, 6)):
        fragments.append(
            rng.choice(
                [
                    "Step 1. think about it",
                    "### Final Selection:",
                    "### Final Selection: [0]",
                    f"### Final Selection: [{rng.randrange(1, 30)}] [{rng.randrange(1, 30)}]",
                    f"### Final Selection: [{rng.randrange(1, 30)}] [{rng.randrange(1, 30)}] "
                    f"[{rng.randrange(1, 30)}]",
                    "[3] > [1]",
                    "no selection today",
                    "### final selection: [2]",  # wrong case: not the marker
                    f"[{rng.randrange(1, 30)}]",
                ]
            )
        )
    return "\n".join(fragments)


def test_select_invariants_on_adversarial_completions():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randrange(1, 21)
        text = _adversarial_completion(rng)
        backend = StubChat(text=text)
        outcome = select("q", [f"t{i}" for i in range(n)], Strategy.REQUIREMENT_COT, backend, model="m")
        assert outcome.indices, "selection must never be empty"
        assert len(set(outcome.indices)) == len(outcome.indices)
        assert all(1 <= i <= n for i in outcome.indices)
        parsed = parse_selection(text)
        should_fall_back = parsed is None or not sanitize_indices(parsed, n)
        assert outcome.fallback_applied == should_fall_back
        if should_fall_back:
            assert outcome.indices == fallback_indices(n)
        assert read_selection(Strategy.REQUIREMENT_COT, text, n, backend.usage) == outcome
    # read_selection alone: no marker, every index out of range, listwise
    cases = [
        (Strategy.REQUIREMENT_COT, "no marker at all", 8, [1, 2, 3, 4, 5], True, 0),
        (Strategy.COT, "### Final Selection: [9] [12]", 4, [1], True, 2),
        (Strategy.LISTWISE_RERANK, "[3] > [9] > [1]", 4, [3, 1], False, 1),
    ]
    for strategy, text, n, indices, fallback, dropped in cases:
        outcome = read_selection(strategy, text, n, Usage(1, 2))
        assert (outcome.indices, outcome.fallback_applied, outcome.dropped_indices) == (indices, fallback, dropped)
        assert outcome.raw_completion == text and outcome.usage == Usage(1, 2)


def test_outcome_dict_roundtrip():
    outcome = SelectionOutcome(
        strategy=Strategy.COT,
        indices=[2, 1],
        raw_completion="### Final Selection: [2] [1]",
        reasoning="",
        usage=Usage(3, 4),
        fallback_applied=False,
        dropped_indices=0,
    )
    again = SelectionOutcome.from_dict(outcome.to_dict())
    assert again == outcome
