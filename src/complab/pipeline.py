"""Shared plumbing between the CLI and the tests: the one place that decides
which records a corpus name stands for, plus training-stream, window and
evaluation-example construction.

Corpora are referred to by name: "committed", "completion", "edit", or
"union" (committed plus completion, no dedup) for training. The completion
corpus is studied through its logged completion events: when its
events.jsonl exists, only the events are loaded, and they are what its
models train and validate on and what it is evaluated on. Every other
corpus, and a completion corpus without an event log, is loaded as files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import corpus as corpus_mod
from .corpus import WINDOW, CompletionEvent, EvalExample, FileRecord
from .vocab import PAD_ID, Vocabulary, encode

UNION = "union"
UNION_PARTS = ("committed", "completion")


@dataclass(frozen=True, slots=True)
class Split:
    """Train, valid and test records of one corpus, all of one kind:
    completion events or files."""

    train: list[FileRecord] | list[CompletionEvent]
    valid: list[FileRecord] | list[CompletionEvent]
    test: list[FileRecord] | list[CompletionEvent]


def data_dir(out_root: str | Path, name: str) -> Path:
    return Path(out_root) / "data" / name


def models_dir(out_root: str | Path, train_name: str) -> Path:
    return Path(out_root) / "models" / train_name


def reports_dir(out_root: str | Path) -> Path:
    return Path(out_root) / "reports"


def load_split(out_root: str | Path, name: str, seed: int) -> Split:
    """Load the records corpus `name` is studied through and split them."""
    root = data_dir(out_root, name)
    if not root.exists():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    events_path = root / "events.jsonl"
    if name == "completion" and events_path.exists():
        records = corpus_mod.load_events(events_path)
    else:
        records = corpus_mod.load_file_corpus(root)
    return Split(*corpus_mod.split(records, seed))


def training_splits(out_root: str | Path, name: str, seed: int) -> list[Split]:
    """The splits a model trained on `name` learns from: the union's parts
    in order, or the one corpus."""
    parts = UNION_PARTS if name == UNION else (name,)
    return [load_split(out_root, part, seed) for part in parts]


def _stream(record: FileRecord | CompletionEvent) -> list[str]:
    if isinstance(record, FileRecord):
        return [t.text for t in record.tokens]
    return [*record.context[-(WINDOW - 1) :], record.accepted.text]


def training_streams(splits: Sequence[Split], use: str = "train") -> list[list[str]]:
    """Token-text streams of one part ("train" or "valid") of each split, in
    order: one per file, or context plus target per event."""
    return [_stream(record) for split in splits for record in getattr(split, use)]


def encode_windows(
    streams: Sequence[Sequence[str]], vocab: Vocabulary
) -> list[list[int]]:
    windows: list[list[int]] = []
    for stream in streams:
        windows.extend(encode(stream, vocab, WINDOW))
    return windows


def non_pad_tokens(windows: Sequence[Sequence[int]]) -> int:
    return sum(sum(1 for t in w if t != PAD_ID) for w in windows)


def trim_to_budget(
    windows: Sequence[Sequence[int]], budget_tokens: int
) -> list[list[int]]:
    """Keep windows in order until the non-pad token budget is reached."""
    out: list[list[int]] = []
    used = 0
    for w in windows:
        if used >= budget_tokens:
            break
        out.append(list(w))
        used += sum(1 for t in w if t != PAD_ID)
    return out


def eval_examples(split: Split, n: int, seed: int) -> list[EvalExample]:
    """Held-out evaluation examples from the test records: sampled
    identifier targets for files, accepted completions for events."""
    if split.test and isinstance(split.test[0], FileRecord):
        return corpus_mod.sample_identifier_targets(split.test, n, seed)
    examples, _ = corpus_mod.events_to_examples(split.test)
    if len(examples) > n:
        examples = random.Random(seed).sample(examples, n)
    return examples
