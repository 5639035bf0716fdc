import json

import pytest

from complab.corpus import (
    CompletionEvent,
    EvalExample,
    FileRecord,
    event_from_record,
    event_to_record,
    events_to_examples,
    load_events,
    load_file_corpus,
    sample_identifier_targets,
    save_events,
    save_file_corpus,
    split,
)
from complab.lexer import Token, TokenKind, tokenize


def _file(file_id, source, last_modified=0.0):
    return FileRecord(
        file_id=file_id, tokens=tuple(tokenize(source)), last_modified=last_modified
    )


def _event(dev="d1", ts=1000.0, accepted="foo", context="$x ="):
    return CompletionEvent(
        context=tuple(context.split()),
        accepted=Token(accepted, TokenKind.IDENTIFIER),
        developer_id=dev,
        timestamp=ts,
        file_id="f1",
    )


def test_split_proportions_and_partition():
    files = [_file(f"f{i}", "$a = 1;") for i in range(1000)]
    for seed in (0, 7, 12345):
        train, valid, test = split(files, seed)
        assert len(train) + len(valid) + len(test) == 1000
        assert 760 <= len(train) <= 840
        assert 80 <= len(valid) <= 120
        assert 80 <= len(test) <= 120
        ids = {f.file_id for f in train} | {f.file_id for f in valid} | {
            f.file_id for f in test
        }
        assert len(ids) == 1000


def test_split_deterministic():
    files = [_file(f"f{i}", "$a = 1;") for i in range(200)]
    first = split(files, seed=42)
    second = split(files, seed=42)
    assert [[f.file_id for f in part] for part in first] == [
        [f.file_id for f in part] for part in second
    ]


def test_split_empty():
    assert split([], seed=1) == ([], [], [])


def test_split_events_by_identity():
    events = [_event(dev=f"d{i}", ts=float(i)) for i in range(300)]
    train, valid, test = split(events, seed=3)
    assert len(train) + len(valid) + len(test) == 300


def test_sample_identifier_targets_eligibility():
    # $a at position 0 is excluded (no preceding token); f is eligible.
    files = [_file("f0", "$a = f(1);")]
    examples = sample_identifier_targets(files, n=10, seed=0)
    assert [e.target.text for e in examples] == ["f"]
    assert examples[0].context_texts == ("$a", "=")
    assert examples[0].file_id == "f0"


def test_sample_identifier_targets_no_duplicates():
    files = [_file("f0", "$a = f($b, $c);")]
    examples = sample_identifier_targets(files, n=100, seed=0)
    # A position is its target and the length of the context before it.
    positions = [(e.target.text, len(e.context_texts)) for e in examples]
    assert len(positions) == len(set(positions)) == 3  # f, $b, $c


def test_sample_identifier_targets_deterministic():
    files = [_file(f"f{i}", "$a = f($b); return g($a);") for i in range(30)]
    a = sample_identifier_targets(files, n=10, seed=5)
    b = sample_identifier_targets(files, n=10, seed=5)
    assert [(e.target.text, len(e.context_texts)) for e in a] == [
        (e.target.text, len(e.context_texts)) for e in b
    ]


def test_sample_identifier_targets_warns_when_empty(caplog):
    files = [_file("f0", "1 + 2;")]
    with caplog.at_level("WARNING"):
        assert sample_identifier_targets(files, n=5, seed=0) == []
    assert "no eligible" in caplog.text


def test_context_capped_at_100():
    source = " ".join(["$a ="] * 120) + " target"
    files = [_file("f0", source)]
    examples = sample_identifier_targets(files, n=500, seed=0)
    assert all(len(e.context_texts) <= 100 for e in examples)


def test_events_to_examples():
    events = [_event()]
    examples, skipped = events_to_examples(events)
    assert skipped == 0
    assert examples[0].target.text == "foo"
    assert examples[0].context_texts == ("$x", "=")
    assert examples[0].file_id == "f1"


def test_events_to_examples_skips_empty_context():
    good = _event()
    empty = CompletionEvent(
        context=(),
        accepted=Token("foo", TokenKind.IDENTIFIER),
        developer_id="d",
        timestamp=0.0,
        file_id="f",
    )
    examples, skipped = events_to_examples([empty, good])
    assert len(examples) == 1 and skipped == 1
    assert events_to_examples([]) == ([], 0)


def test_event_requires_identifier_like_accepted():
    with pytest.raises(ValueError):
        CompletionEvent(
            context=("$x", "="),
            accepted=Token(";", TokenKind.PUNCTUATION),
            developer_id="d",
            timestamp=0.0,
            file_id="f",
        )


def test_eval_example_requires_context():
    with pytest.raises(ValueError):
        EvalExample(context_texts=(), target=Token("x", TokenKind.IDENTIFIER), file_id="f")


def test_event_record_round_trip():
    event = _event()
    record = event_to_record(event)
    assert record["accepted"] == "foo"
    assert record["accepted_kind"] == "identifier"
    back = event_from_record(json.loads(json.dumps(record)))
    assert back.accepted.text == event.accepted.text
    assert back.context == event.context
    assert back.developer_id == event.developer_id


def test_event_file_round_trip(tmp_path):
    events = [_event(dev=f"d{i}", ts=float(i)) for i in range(5)]
    path = tmp_path / "events.jsonl"
    save_events(events, path)
    loaded = load_events(path)
    assert len(loaded) == 5
    assert [e.accepted.text for e in loaded] == ["foo"] * 5


def test_file_corpus_round_trip(tmp_path):
    files = [
        _file("f0", "$a = f(1);", last_modified=123.0),
        _file("f1", 'return g("ok");', last_modified=456.0),
    ]
    save_file_corpus(files, tmp_path)
    loaded = load_file_corpus(tmp_path)
    assert [f.file_id for f in loaded] == ["f0", "f1"]
    assert [t.text for t in loaded[0].tokens] == [t.text for t in files[0].tokens]
    assert loaded[1].last_modified == 456.0
