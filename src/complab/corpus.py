"""Corpus records, split/sampling operations, and corpus file formats.

Three corpora flow through the lab: committed-like source files, logged
completion acceptance events, and edit snapshots. Files and edit snapshots
are `FileRecord`s, events are `CompletionEvent`s, and an `EvalExample` is a
context and its target, whichever corpus it came from. A context is a tuple
of token texts, because models read only texts. A target stays a `Token`,
because its kind decides what may be a target and what the drift tables
count. Splitting is a deterministic hash of record identity so reruns and
cross-process invocations agree byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .lexer import Token, TokenKind, classify_text, is_identifier_like

log = logging.getLogger(__name__)

# Events and evaluation examples keep at most this many context tokens, and
# training streams are cut into windows of this many token ids.
WINDOW = 100


@dataclass(frozen=True, slots=True)
class FileRecord:
    file_id: str
    tokens: tuple[Token, ...]
    last_modified: float


@dataclass(frozen=True, slots=True)
class CompletionEvent:
    context: tuple[str, ...]
    accepted: Token
    developer_id: str
    timestamp: float
    file_id: str

    def __post_init__(self):
        if not is_identifier_like(self.accepted.kind):
            raise ValueError(
                f"accepted token {self.accepted.text!r} is not identifier-like"
            )
        if len(self.context) > WINDOW:
            object.__setattr__(self, "context", self.context[-WINDOW:])


@dataclass(frozen=True, slots=True)
class EvalExample:
    context_texts: tuple[str, ...]
    target: Token
    file_id: str

    def __post_init__(self):
        if not self.context_texts:
            raise ValueError("evaluation example needs a non-empty context")


def _record_id(record: FileRecord | CompletionEvent) -> str:
    if isinstance(record, FileRecord):
        return record.file_id
    return f"{record.developer_id}|{record.timestamp!r}|{record.accepted.text}"


def _bucket(seed: int, record_id: str) -> float:
    digest = hashlib.sha256(f"{seed}|{record_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def split(
    corpus: Sequence[FileRecord | CompletionEvent], seed: int
) -> tuple[list, list, list]:
    """Deterministic 8:1:1 train/valid/test split keyed on record identity."""
    train: list = []
    valid: list = []
    test: list = []
    for record in corpus:
        u = _bucket(seed, _record_id(record))
        if u < 0.8:
            train.append(record)
        elif u < 0.9:
            valid.append(record)
        else:
            test.append(record)
    return train, valid, test


def sample_identifier_targets(
    files: Sequence[FileRecord], n: int, seed: int
) -> list[EvalExample]:
    """Uniformly sample identifier-like positions with at least one
    preceding token; context is capped at the most recent WINDOW
    tokens. Without replacement, so at most the number of eligible
    positions is returned."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eligible: list[tuple[int, int]] = []
    for fi, record in enumerate(files):
        for pos in range(1, len(record.tokens)):
            if is_identifier_like(record.tokens[pos].kind):
                eligible.append((fi, pos))
    if not eligible:
        log.warning("no eligible identifier targets in %d files", len(files))
        return []
    rng = random.Random(seed)
    chosen = eligible if n >= len(eligible) else rng.sample(eligible, n)
    examples = []
    for fi, pos in sorted(chosen):
        tokens = files[fi].tokens
        context = tuple(t.text for t in tokens[max(0, pos - WINDOW) : pos])
        examples.append(EvalExample(context, tokens[pos], files[fi].file_id))
    return examples


def events_to_examples(
    events: Iterable[CompletionEvent],
) -> tuple[list[EvalExample], int]:
    """One example per event; empty-context events are skipped and counted."""
    examples: list[EvalExample] = []
    skipped = 0
    for event in events:
        if not event.context:
            skipped += 1
            continue
        examples.append(EvalExample(event.context, event.accepted, event.file_id))
    return examples, skipped


# --------------------------------------------------------------------------
# File formats
# --------------------------------------------------------------------------


def event_to_record(event: CompletionEvent) -> dict:
    return {
        "developer_id": event.developer_id,
        "timestamp": event.timestamp,
        "file_id": event.file_id,
        "context": list(event.context),
        "accepted": event.accepted.text,
        "accepted_kind": event.accepted.kind.value,
    }


def tokens_from_texts(texts: Iterable[str]) -> tuple[Token, ...]:
    return tuple(Token(text, classify_text(text)) for text in texts)


def event_from_record(record: dict) -> CompletionEvent:
    context = tuple(record["context"])
    if not all(isinstance(text, str) and text for text in context):
        raise ValueError("context entries must be non-empty strings")
    accepted_text = record["accepted"]
    kind = TokenKind(record.get("accepted_kind", classify_text(accepted_text).value))
    return CompletionEvent(
        context=context,
        accepted=Token(accepted_text, kind),
        developer_id=record["developer_id"],
        timestamp=float(record["timestamp"]),
        file_id=record["file_id"],
    )


def save_events(events: Iterable[CompletionEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for event in events:
            fp.write(json.dumps(event_to_record(event), ensure_ascii=False))
            fp.write("\n")


def read_jsonl(path: str | Path, parse: Callable[[dict], object], what: str) -> list:
    """`parse` of each JSON line of `path`, blank lines skipped; ValueError
    naming the file and line at the first line that is not JSON or that
    `parse` rejects."""
    parsed = []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed.append(parse(json.loads(line)))
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed {what} ({type(exc).__name__}: {exc})"
                ) from exc
    return parsed


def load_events(path: str | Path) -> list[CompletionEvent]:
    """The events logged at `path`, one JSON record a line."""
    return read_jsonl(path, event_from_record, "event record")


def save_file_corpus(files: Sequence[FileRecord], root: str | Path) -> None:
    """Directory tree of source files plus a manifest.jsonl index."""
    root = Path(root)
    src_dir = root / "files"
    src_dir.mkdir(parents=True, exist_ok=True)
    from .lexer import join_tokens

    with open(root / "manifest.jsonl", "w", encoding="utf-8") as manifest:
        for record in files:
            rel = f"files/{record.file_id}.src"
            (root / rel).write_text(join_tokens(record.tokens), encoding="utf-8")
            manifest.write(
                json.dumps(
                    {
                        "file_id": record.file_id,
                        "path": rel,
                        "last_modified": record.last_modified,
                    }
                )
            )
            manifest.write("\n")


def _manifest_entry(meta: dict) -> tuple[str, str, float]:
    return str(meta["file_id"]), str(meta["path"]), float(meta["last_modified"])


def load_file_corpus(root: str | Path) -> list[FileRecord]:
    """The files `root`'s manifest.jsonl indexes, one JSON entry a line."""
    from .lexer import tokenize

    root = Path(root)
    entries = read_jsonl(root / "manifest.jsonl", _manifest_entry, "manifest entry")
    return [
        FileRecord(
            file_id=file_id,
            tokens=tuple(tokenize((root / rel).read_text(encoding="utf-8"))),
            last_modified=last_modified,
        )
        for file_id, rel, last_modified in entries
    ]
