"""Count-based n-gram language model with interpolated modified Kneser-Ney
smoothing, no pruning.

Counting uses raw occurrences at the highest order and continuation counts
(number of distinct preceding token types) at every lower order. Discounts
D1/D2/D3+ are estimated per order from the count-of-counts of the adjusted
counts used at that order:

    Y   = n1 / (n1 + 2*n2)
    D_k = k - (k+1) * Y * n_{k+1} / n_k      for k in {1, 2, 3}

clamped to [0, k]; the ratio term is taken as 0 when n_{k+1} is zero, and an
order where n1 or n2 is zero falls back to a fixed 0.75 discount. The
recursion terminates at a unigram distribution over continuation counts
interpolated with the uniform distribution over non-special vocabulary ids,
so every conditional distribution sums to one. A non-special token is
positive unless a seen context level has backoff weight 0, which happens
when the discounts of all the counts after that context clamp to 0.

One step, `_interpolate`, serves every level, the unigram one included. The
model keeps only what it reads: the adjusted counts after each seen context,
the discounts and the unigram-level vector. `ngram_prob` is one entry of
`ngram_distribution`; the tests' brute-force oracle and the benchmark's own
Kneser-Ney check are the independent references.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .completer import Completer, top_ids
from .vocab import Vocabulary

log = logging.getLogger(__name__)

FALLBACK_DISCOUNT = 0.75


@dataclass(slots=True)
class NgramModel:
    order: int
    vocab_ref: Vocabulary
    raw_counts: list[dict[tuple[int, ...], int]]  # index k-1: raw k-gram counts
    # Adjusted counts of the k-grams after each seen (k-1)-id context, for
    # every order k >= 2; context lengths tell the orders apart.
    contexts: dict[tuple[int, ...], dict[int, int]]
    discounts: dict[int, tuple[float, float, float]]  # by order k
    unigram: np.ndarray  # the unigram level of every distribution


def _strip_pads(seq: Sequence[int], pad_id: int) -> Sequence[int]:
    for i, token_id in enumerate(seq):
        if token_id == pad_id:
            return seq[:i]
    return seq


def _estimate_discounts(
    adjusted_counts: Iterable[int], order_label: int
) -> tuple[float, float, float]:
    coc: Counter[int] = Counter()
    for c in adjusted_counts:
        if 1 <= c <= 4:
            coc[c] += 1
    n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
    if n1 == 0 or n2 == 0:
        log.warning(
            "order %d: count-of-counts too sparse (n1=%d, n2=%d); "
            "using fixed discount %.2f",
            order_label,
            n1,
            n2,
            FALLBACK_DISCOUNT,
        )
        return (FALLBACK_DISCOUNT,) * 3
    y = n1 / (n1 + 2.0 * n2)
    d1 = min(max(1.0 - 2.0 * y * (n2 / n1), 0.0), 1.0)
    d2 = min(max(2.0 - 3.0 * y * (n3 / n2), 0.0), 2.0)
    d3 = min(max(3.0 - 4.0 * y * (n4 / n3), 0.0), 3.0) if n3 > 0 else 3.0
    return d1, d2, d3


def _interpolate(
    vec: np.ndarray, counts: dict[int, int], d: tuple[float, float, float]
) -> None:
    """One Kneser-Ney level, in place: scale `vec`, the lower-order
    distribution, by the level's backoff weight and add the level's
    discounted counts."""
    c = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    capped = np.minimum(c, 3)  # stored counts are >= 1
    n1, n2, n3p = np.bincount(capped, minlength=4)[1:].tolist()
    total = int(c.sum())
    vec *= (d[0] * n1 + d[1] * n2 + d[2] * n3p) / total
    ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vec[ids] += np.maximum(c - np.array(d)[capped - 1], 0.0) / total


def _derive(
    raw: list[dict[tuple[int, ...], int]], order: int, vocab: Vocabulary
) -> NgramModel:
    """Build smoothed model state from raw k-gram count tables."""
    # Index k-1: k-gram counts, raw at the top order and, below it, the
    # number of distinct raw (k+1)-grams each k-gram ends.
    adjusted = [Counter(gram[1:] for gram in raw[k]) for k in range(1, order)]
    adjusted.append(raw[order - 1])

    contexts: dict[tuple[int, ...], dict[int, int]] = {}
    discounts: dict[int, tuple[float, float, float]] = {}
    for k in range(2, order + 1):
        for gram, c in adjusted[k - 1].items():
            contexts.setdefault(gram[:-1], {})[gram[-1]] = c
        discounts[k] = _estimate_discounts(adjusted[k - 1].values(), k)

    unigram_counts = {gram[0]: c for gram, c in adjusted[0].items()}
    unigram_counts.pop(vocab.pad_id, None)
    discounts[1] = _estimate_discounts(unigram_counts.values(), 1)
    unigram = np.full(len(vocab), 1.0 / max(len(vocab) - 2, 1))
    unigram[[vocab.unk_id, vocab.pad_id]] = 0.0
    if unigram_counts:
        _interpolate(unigram, unigram_counts, discounts[1])
    return NgramModel(order, vocab, raw, contexts, discounts, unigram)


def train_ngram(
    sequences: Iterable[Sequence[int]], order: int, vocab: Vocabulary
) -> NgramModel:
    """Count k-grams of every order up to `order` and derive the smoothed
    model state. Pad ids never enter the counts."""
    if order < 2:
        raise ValueError("order must be >= 2")
    raw: list[dict[tuple[int, ...], int]] = [dict() for _ in range(order)]
    for seq in sequences:
        seq = _strip_pads(seq, vocab.pad_id)
        n = len(seq)
        for k in range(1, order + 1):
            counts_k = raw[k - 1]
            for i in range(n - k + 1):
                gram = tuple(seq[i : i + k])
                counts_k[gram] = counts_k.get(gram, 0) + 1
    return _derive(raw, order, vocab)


def ngram_distribution(model: NgramModel, context: Sequence[int]) -> np.ndarray:
    """Full next-token distribution, vectorized over the vocabulary; a fresh
    array on every call. The context is truncated to the most recent
    order-1 ids; levels whose context never occurred interpolate through
    with weight one."""
    h = tuple(context)[-(model.order - 1) :]
    vec = model.unigram.copy()
    for s in range(1, len(h) + 1):
        counts = model.contexts.get(h[-s:])
        if counts is not None:
            _interpolate(vec, counts, model.discounts[s + 1])
    return vec


def ngram_prob(model: NgramModel, context: Sequence[int], token: int) -> float:
    """Interpolated modified-KN probability of `token` after `context`."""
    if not 0 <= token < len(model.vocab_ref):
        raise ValueError(f"token id {token} outside vocabulary")
    return float(ngram_distribution(model, context)[token])


def ngram_topk(
    model: NgramModel, context: Sequence[int], k: int
) -> list[tuple[int, float]]:
    """Top-k candidates by probability; ties broken by ascending token
    text; `<unk>` and `<pad>` are never proposed."""
    return top_ids(ngram_distribution(model, context), model.vocab_ref, k)


class NgramCompleter(Completer):
    """Text-level adapter: encodes contexts with the model's vocabulary."""

    def __init__(self, model: NgramModel):
        self.model = model
        self.vocab = model.vocab_ref

    def _ids(self, context_texts: Sequence[str]) -> list[int]:
        return [self.vocab.id(t) for t in context_texts]

    def distribution(self, context_texts: Sequence[str]) -> np.ndarray:
        return ngram_distribution(self.model, self._ids(context_texts))

    def topk(self, context_texts: Sequence[str], k: int) -> list[tuple[str, float]]:
        # Through ngram_topk, the id-level query, which the benchmark's
        # trace splits into distribution build and top-k selection.
        return [
            (self.vocab.text(i), p)
            for i, p in ngram_topk(self.model, self._ids(context_texts), k)
        ]


# --------------------------------------------------------------------------
# Persistence: JSON dump of the raw counts plus the vocabulary; derived
# structures are rebuilt on load, which reproduces the model exactly.
# --------------------------------------------------------------------------


def save_ngram(model: NgramModel, path: str | Path) -> None:
    payload = {
        "version": 1,
        "order": model.order,
        "vocab": [model.vocab_ref.text(i) for i in range(len(model.vocab_ref))],
        "max_size": model.vocab_ref.max_size,
        "raw_counts": [
            {" ".join(map(str, gram)): c for gram, c in sorted(level.items())}
            for level in model.raw_counts
        ],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, ensure_ascii=False, sort_keys=True)


def load_ngram(path: str | Path) -> NgramModel:
    """The model saved at `path`; ValueError naming the file when it is not
    a version 1 n-gram model."""
    try:
        with open(path, encoding="utf-8") as fp:
            payload = json.load(fp)
        if payload["version"] != 1:
            raise ValueError(f"unsupported version {payload['version']!r}")
        order = payload["order"]
        vocab = Vocabulary(
            id_of={t: i for i, t in enumerate(payload["vocab"])},
            max_size=payload["max_size"],
        )
        raw = [
            {tuple(int(x) for x in gram.split()): c for gram, c in level.items()}
            for level in payload["raw_counts"]
        ]
        if not isinstance(order, int) or not 2 <= order == len(raw):
            raise ValueError(f"order {order!r} with {len(raw)} count tables")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(
            f"{path}: malformed n-gram model ({type(exc).__name__}: {exc})"
        ) from exc
    return _derive(raw, order, vocab)
