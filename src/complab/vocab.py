"""Whole-token vocabularies and id-sequence encoding.

A vocabulary keeps the `max_size` most frequent token texts plus the two
specials, which every vocabulary holds at fixed ids: `<unk>` is `UNK_ID` (0)
and `<pad>` is `PAD_ID` (1). Sequences are encoded as fixed-length
non-overlapping windows with out-of-vocabulary texts mapped to `<unk>` and
the final short window right-padded with `<pad>`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

UNK = "<unk>"
PAD = "<pad>"
UNK_ID = 0
PAD_ID = 1


@dataclass(frozen=True, slots=True)
class Vocabulary:
    id_of: dict[str, int]
    max_size: int
    text_of: dict[int, str] = field(init=False, repr=False, compare=False)
    _lex_rank: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.id_of.get(UNK) != UNK_ID or self.id_of.get(PAD) != PAD_ID:
            raise ValueError(f"specials must be {UNK}={UNK_ID} and {PAD}={PAD_ID}")
        text_of = {i: t for t, i in self.id_of.items()}
        if sorted(text_of) != list(range(len(self.id_of))):
            raise ValueError(f"ids must be 0..{len(self.id_of) - 1}, each used once")
        object.__setattr__(self, "text_of", text_of)

    def __len__(self) -> int:
        return len(self.id_of)

    def __contains__(self, text: str) -> bool:
        # Specials are not ordinary members; OOV checks must not treat a
        # literal "<unk>" text as covered.
        return text in self.id_of and text not in (UNK, PAD)

    def id(self, text: str) -> int:
        return self.id_of.get(text, UNK_ID)

    def text(self, token_id: int) -> str:
        return self.text_of[token_id]

    def lex_rank(self) -> np.ndarray:
        """Rank of each id's text in ascending text order, the tie-break of
        every top-k; built on first use."""
        if self._lex_rank is None:
            order = sorted(range(len(self)), key=self.text)
            rank = np.empty(len(self), dtype=np.int64)
            rank[order] = np.arange(len(self))
            object.__setattr__(self, "_lex_rank", rank)
        return self._lex_rank


def build_vocab(corpus: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Build a vocabulary from token streams.

    Keeps the `max_size` most frequent texts; ties broken by ascending
    lexicographic order. Order-independent in the counts, so deterministic
    for any iteration order of equal corpora.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    counts: Counter[str] = Counter()
    for stream in corpus:
        counts.update(stream)
    counts.pop(UNK, None)
    counts.pop(PAD, None)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    id_of = {UNK: UNK_ID, PAD: PAD_ID}
    for text, _ in ordered:
        id_of[text] = len(id_of)
    return Vocabulary(id_of=id_of, max_size=max_size)


def encode(texts: Sequence[str], vocab: Vocabulary, window: int) -> list[list[int]]:
    """Encode a token-text stream as non-overlapping windows of ids.

    OOV texts map to UNK_ID; the final short window is right-padded with
    PAD_ID so every window has exactly `window` ids.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    ids = [vocab.id(t) for t in texts]
    out: list[list[int]] = []
    for start in range(0, len(ids), window):
        chunk = ids[start : start + window]
        if len(chunk) < window:
            chunk = chunk + [PAD_ID] * (window - len(chunk))
        out.append(chunk)
    return out


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """Write `token<TAB>id` lines sorted by id."""
    with open(path, "w", encoding="utf-8") as fp:
        for token_id in sorted(vocab.text_of):
            fp.write(f"{vocab.text_of[token_id]}\t{token_id}\n")


def load_vocab(path: str | Path) -> Vocabulary:
    """The vocabulary `save_vocab` wrote to `path`; ValueError naming the
    file, and the line where there is one, when it is malformed."""
    id_of: dict[str, int] = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            text, tab, raw_id = line.rpartition("\t")
            try:
                if not tab:
                    raise ValueError("no tab")
                if text in id_of:
                    raise ValueError(f"repeated text {text!r}")
                id_of[text] = int(raw_id)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed vocabulary line ({exc})"
                ) from exc
    try:
        return Vocabulary(id_of=id_of, max_size=max(len(id_of) - 2, 1))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
