import dataclasses

import pytest

from complab import corpus as corpus_mod
from complab import pipeline
from complab.corpus import (
    WINDOW,
    CompletionEvent,
    FileRecord,
    save_events,
    save_file_corpus,
    tokens_from_texts,
)
from complab.datagen import default_profiles, generate
from complab.lexer import tokenize

SEED = 3


def _files(prefix, n, source):
    return [
        FileRecord(f"{prefix}-{i:03d}", tuple(tokenize(source)), last_modified=0.0)
        for i in range(n)
    ]


def _events(n, context_texts, accepted):
    context = tokens_from_texts(context_texts)
    return [
        CompletionEvent(
            context=context,
            accepted=tokens_from_texts([accepted])[0],
            developer_id=f"dev{i % 7}",
            timestamp=1000.0 + i,
            file_id=f"completion-{i % 5:03d}",
        )
        for i in range(n)
    ]


def _workspace(root, events=True):
    """committed: 40 files `$a = foo`, 30 files `$c = baz` and an event log
    of `$c = qux`; completion: 40 files `$b = bar ;` and, unless `events`
    is false, 60 events whose stream is `$a = foo`."""
    committed = pipeline.data_dir(root, "committed")
    files = _files("committed", 40, "$a = foo") + _files("other", 30, "$c = baz")
    save_file_corpus(files, committed)
    save_events(_events(20, ["$c", "="], "qux"), committed / "events.jsonl")
    completion = pipeline.data_dir(root, "completion")
    save_file_corpus(_files("completion", 40, "$b = bar ;"), completion)
    if events:
        save_events(_events(60, ["$a", "="], "foo"), completion / "events.jsonl")
    return root


def test_union_streams_are_committed_then_completion_with_duplicates(tmp_path):
    root = _workspace(tmp_path)
    duplicate = ["$a", "=", "foo"]
    for use in ("train", "valid"):
        committed, completion, union = (
            pipeline.training_streams(pipeline.training_splits(root, name, SEED), use)
            for name in ("committed", "completion", "union")
        )
        assert union == committed + completion
        assert ["$c", "=", "baz"] in committed
        # Most committed files and every completion event have the same
        # texts; the union keeps each copy.
        assert union.count(duplicate) == committed.count(duplicate) + len(completion)
        assert committed.count(duplicate) and completion


def test_completion_with_events_never_loads_files(tmp_path, monkeypatch):
    root = _workspace(tmp_path)

    def no_files(path):
        raise AssertionError(f"load_file_corpus called for {path}")

    monkeypatch.setattr(corpus_mod, "load_file_corpus", no_files)
    split = pipeline.load_split(root, "completion", SEED)
    records = split.train + split.valid + split.test
    assert len(records) == 60
    assert all(isinstance(r, CompletionEvent) for r in records)
    assert split.valid and split.test
    for use in ("train", "valid"):
        streams = pipeline.training_streams([split], use)
        assert streams == [["$a", "=", "foo"]] * len(getattr(split, use))
    examples = pipeline.eval_examples(split, 1000, SEED)
    assert len(examples) == len(split.test)
    assert all(ex.context_texts == ["$a", "="] and ex.target.text == "foo" for ex in examples)
    with pytest.raises(AssertionError, match="load_file_corpus"):
        pipeline.load_split(root, "committed", SEED)


def test_other_corpora_load_files_even_with_an_event_log(tmp_path):
    root = _workspace(tmp_path)
    split = pipeline.load_split(root, "committed", SEED)
    records = split.train + split.valid + split.test
    assert len(records) == 70 and all(isinstance(r, FileRecord) for r in records)
    assert {ex.target.text for ex in pipeline.eval_examples(split, 1000, SEED)} <= {"foo", "baz"}


def test_completion_without_events_uses_files(tmp_path):
    root = _workspace(tmp_path, events=False)
    split = pipeline.load_split(root, "completion", SEED)
    assert all(isinstance(r, FileRecord) for r in split.train + split.valid + split.test)
    assert pipeline.training_streams([split]) == [["$b", "=", "bar", ";"]] * len(split.train)
    examples = pipeline.eval_examples(split, 1000, SEED)
    assert {ex.target.text for ex in examples} == {"bar"}
    assert len(examples) == len(split.test)


def test_streams_and_contexts_are_capped_at_window(tmp_path):
    long_texts = [f"v{i}" for i in range(WINDOW + 50)]
    (event,) = _events(1, long_texts, "foo")
    assert [t.text for t in event.context] == long_texts[-WINDOW:]
    assert pipeline.training_streams([pipeline.Split([event], [], [])]) == [
        long_texts[-(WINDOW - 1) :] + ["foo"]
    ]

    record = FileRecord("f", tokens_from_texts(long_texts * 2), 0.0)
    examples = pipeline.eval_examples(pipeline.Split([], [], [record]), 50, SEED)
    assert examples and max(len(ex.context) for ex in examples) == WINDOW

    profile = dataclasses.replace(default_profiles()[1], files=3, tokens_per_file=3 * WINDOW)
    files, events = generate(profile, SEED, event_rate=0.5)
    assert max(len(e.context) for e in events) == WINDOW
    tokens = {f.file_id: f.tokens for f in files}
    for e in events:
        # Positions whose target and context length match the event's.
        positions = [
            p for p, t in enumerate(tokens[e.file_id])
            if t.text == e.accepted.text and min(p, WINDOW) == len(e.context)
        ]
        assert any(
            e.context == tokens[e.file_id][max(0, pos - WINDOW) : pos] for pos in positions
        )
