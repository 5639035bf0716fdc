"""The scoring interface shared by every whole-token model.

A `Completer` answers one question: `distribution(context_texts)`, the
next-token probabilities over its vocabulary as a fresh float64 array. Top-k
lists, the probability of one candidate and the scores of a whole candidate
list are all read from that one array, so ranking a request costs one model
evaluation however many candidates it carries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .vocab import PAD_ID, UNK_ID, Vocabulary


def top_ids(probs: np.ndarray, vocab: Vocabulary, k: int) -> list[tuple[int, float]]:
    """The k most probable ids of a next-token distribution, `<unk>` and
    `<pad>` excluded, ties broken by ascending token text. Writes into
    `probs`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    probs[[UNK_ID, PAD_ID]] = -1.0
    order = np.lexsort((vocab.lex_rank(), -probs))
    return [(int(i), float(probs[i])) for i in order[: min(k, len(vocab) - 2)]]


class Completer(ABC):
    """A next-token model over whole-token texts."""

    vocab: Vocabulary

    @abstractmethod
    def distribution(self, context_texts: Sequence[str]) -> np.ndarray:
        """Next-token probabilities after the context, indexed by vocabulary
        id; a fresh array the caller may write into."""

    def topk(self, context_texts: Sequence[str], k: int) -> list[tuple[str, float]]:
        return [
            (self.vocab.text(i), p)
            for i, p in top_ids(self.distribution(context_texts), self.vocab, k)
        ]

    def scores(
        self, context_texts: Sequence[str], candidates: Sequence[str]
    ) -> list[float]:
        """Probability of each candidate after the context. A candidate
        outside the vocabulary, a literal special included, scores 0; when
        no candidate is in it, the model is not run."""
        ids = [self.vocab.id(c) if c in self.vocab else None for c in candidates]
        if all(i is None for i in ids):
            return [0.0] * len(ids)
        probs = self.distribution(context_texts)
        return [0.0 if i is None else float(probs[i]) for i in ids]

    def prob(self, context_texts: Sequence[str], candidate: str) -> float:
        return self.scores(context_texts, [candidate])[0]
