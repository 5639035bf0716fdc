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
so every conditional distribution sums to one exactly and every non-special
token has positive probability.

`ngram_distribution` builds the whole next-token vector from per-context
arrays (backoff weight, token ids, discounted counts), made with numpy from
the count tables on every call and not kept. `ngram_prob` computes one
probability by the direct formula; it is the reference the vector is tested
against.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .completer import Completer, top_ids
from .vocab import Vocabulary

log = logging.getLogger(__name__)

FALLBACK_DISCOUNT = 0.75


@dataclass(slots=True)
class _Level:
    """Adjusted counts for one k-gram order, keyed by (k-1)-id context."""

    contexts: dict[tuple[int, ...], dict[int, int]]
    totals: dict[tuple[int, ...], int]
    type_counts: dict[tuple[int, ...], tuple[int, int, int]]  # N1, N2, N3+


@dataclass(slots=True)
class NgramModel:
    order: int
    vocab_ref: Vocabulary
    raw_counts: list[dict[tuple[int, ...], int]]  # index k-1: raw k-gram counts
    levels: dict[int, _Level]
    unigram_counts: dict[int, int]
    unigram_total: int
    unigram_type_counts: tuple[int, int, int]
    discounts: dict[int, tuple[float, float, float]]
    _unigram_vec: np.ndarray | None = field(default=None, repr=False)

    @property
    def base_size(self) -> int:
        return len(self.vocab_ref) - 2

    def unigram_vector(self) -> np.ndarray:
        if self._unigram_vec is None:
            self._unigram_vec = _unigram_distribution(self)
        return self._unigram_vec


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


def _type_counts(ws: dict[int, int]) -> tuple[int, int, int]:
    n1 = n2 = n3p = 0
    for c in ws.values():
        if c == 1:
            n1 += 1
        elif c == 2:
            n2 += 1
        elif c >= 3:
            n3p += 1
    return n1, n2, n3p


def _derive(
    raw: list[dict[tuple[int, ...], int]], order: int, vocab: Vocabulary
) -> NgramModel:
    """Build smoothed model state from raw k-gram count tables."""
    adjusted: list[dict[tuple[int, ...], int]] = [dict() for _ in range(order)]
    adjusted[order - 1] = raw[order - 1]
    for k in range(order - 1, 0, -1):
        cont: dict[tuple[int, ...], int] = {}
        for gram in raw[k]:  # distinct raw (k+1)-grams
            suffix = gram[1:]
            cont[suffix] = cont.get(suffix, 0) + 1
        adjusted[k - 1] = cont

    levels: dict[int, _Level] = {}
    discounts: dict[int, tuple[float, float, float]] = {}
    for k in range(2, order + 1):
        contexts: dict[tuple[int, ...], dict[int, int]] = {}
        for gram, c in adjusted[k - 1].items():
            contexts.setdefault(gram[:-1], {})[gram[-1]] = c
        totals = {ctx: sum(ws.values()) for ctx, ws in contexts.items()}
        type_counts = {ctx: _type_counts(ws) for ctx, ws in contexts.items()}
        levels[k] = _Level(contexts=contexts, totals=totals, type_counts=type_counts)
        discounts[k] = _estimate_discounts(adjusted[k - 1].values(), k)

    unigram_counts = {gram[0]: c for gram, c in adjusted[0].items()}
    unigram_counts.pop(vocab.pad_id, None)
    discounts[1] = _estimate_discounts(unigram_counts.values(), 1)
    return NgramModel(
        order=order,
        vocab_ref=vocab,
        raw_counts=raw,
        levels=levels,
        unigram_counts=unigram_counts,
        unigram_total=sum(unigram_counts.values()),
        unigram_type_counts=_type_counts(unigram_counts),
        discounts=discounts,
    )


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


def _discount_for(c: int, d: tuple[float, float, float]) -> float:
    if c <= 0:
        return 0.0
    if c == 1:
        return d[0]
    if c == 2:
        return d[1]
    return d[2]


def _backoff_weight(
    d: tuple[float, float, float], type_counts: tuple[int, int, int], total: int
) -> float:
    n1, n2, n3p = type_counts
    return (d[0] * n1 + d[1] * n2 + d[2] * n3p) / total


def _base_prob(model: NgramModel, token: int) -> float:
    if token in (model.vocab_ref.unk_id, model.vocab_ref.pad_id):
        return 0.0
    if model.base_size <= 0:
        raise ValueError("vocabulary has no non-special entries")
    return 1.0 / model.base_size


def _unigram_prob(model: NgramModel, token: int) -> float:
    if model.unigram_total == 0:
        return _base_prob(model, token)
    d = model.discounts[1]
    c = model.unigram_counts.get(token, 0)
    gamma = _backoff_weight(d, model.unigram_type_counts, model.unigram_total)
    return (
        max(c - _discount_for(c, d), 0.0) / model.unigram_total
        + gamma * _base_prob(model, token)
    )


def ngram_prob(model: NgramModel, context: Sequence[int], token: int) -> float:
    """Interpolated modified-KN probability of `token` after `context`.

    The context is truncated to the most recent order-1 ids; levels whose
    context never occurred interpolate through with weight one.
    """
    if token >= len(model.vocab_ref):
        raise ValueError(f"token id {token} outside vocabulary")
    h = tuple(context)[-(model.order - 1) :]
    p = _unigram_prob(model, token)
    for s in range(1, len(h) + 1):
        ctx = h[-s:]
        level = model.levels[s + 1]
        ws = level.contexts.get(ctx)
        if ws is None:
            continue
        total = level.totals[ctx]
        d = model.discounts[s + 1]
        gamma = _backoff_weight(d, level.type_counts[ctx], total)
        c = ws.get(token, 0)
        p = max(c - _discount_for(c, d), 0.0) / total + gamma * p
    return p


def _unigram_distribution(model: NgramModel) -> np.ndarray:
    size = len(model.vocab_ref)
    base = np.zeros(size, dtype=np.float64)
    if model.base_size > 0:
        base[:] = 1.0 / model.base_size
    base[model.vocab_ref.unk_id] = 0.0
    base[model.vocab_ref.pad_id] = 0.0
    if model.unigram_total == 0:
        return base
    d = model.discounts[1]
    gamma = _backoff_weight(d, model.unigram_type_counts, model.unigram_total)
    vec = gamma * base
    for token, c in model.unigram_counts.items():
        vec[token] += max(c - _discount_for(c, d), 0.0) / model.unigram_total
    return vec


def _context_arrays(
    model: NgramModel, ctx: tuple[int, ...]
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(gamma, ids, discounted) of a context seen in training, None for one
    never seen. Same arithmetic as `ngram_prob`, elementwise."""
    level = model.levels[len(ctx) + 1]
    ws = level.contexts.get(ctx)
    if ws is None:
        return None
    total = level.totals[ctx]
    d = model.discounts[len(ctx) + 1]
    counts = np.fromiter(ws.values(), dtype=np.int64, count=len(ws))
    discount = np.array(d)[np.minimum(counts, 3) - 1]  # stored counts are >= 1
    return (
        _backoff_weight(d, level.type_counts[ctx], total),
        np.fromiter(ws.keys(), dtype=np.int64, count=len(ws)),
        np.maximum(counts - discount, 0.0) / total,
    )


def ngram_distribution(model: NgramModel, context: Sequence[int]) -> np.ndarray:
    """Full next-token distribution, vectorized over the vocabulary; a fresh
    array on every call. Each seen context level, shortest first, scales
    the vector by its backoff weight and adds its discounted counts."""
    h = tuple(context)[-(model.order - 1) :]
    vec = model.unigram_vector().copy()
    for s in range(1, len(h) + 1):
        arrays = _context_arrays(model, h[-s:])
        if arrays is None:
            continue
        gamma, ids, discounted = arrays
        vec *= gamma
        vec[ids] += discounted
    return vec


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
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    if payload.get("version") != 1:
        raise ValueError(f"unsupported ngram model version: {payload.get('version')}")
    vocab = Vocabulary(
        id_of={t: i for i, t in enumerate(payload["vocab"])},
        max_size=payload["max_size"],
    )
    raw = [
        {tuple(int(x) for x in gram.split()): c for gram, c in level.items()}
        for level in payload["raw_counts"]
    ]
    return _derive(raw, payload["order"], vocab)
