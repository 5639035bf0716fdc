"""Offline evaluation: top-1 accuracy and mean reciprocal rank with a
top-10 cutoff, over evaluation examples and the
topk(context_texts, k) -> [(text, prob), ...] of any `Completer`.

A target whose rank exceeds the cutoff, or that the model cannot emit at
all (out of vocabulary), scores zero and is recorded as a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import EvalExample

TopkFn = Callable[[Sequence[str], int], list[tuple[str, float]]]


@dataclass(frozen=True, slots=True)
class EvalReport:
    top1: float
    mrr: float
    n: int
    per_example_ranks: tuple[int | None, ...]  # None marks a miss


def report_from_ranks(
    ranks: Sequence[int | None], cutoff: int = 10
) -> EvalReport:
    """Metrics from per-example ranks; rank > cutoff counts as a miss."""
    if not ranks:
        raise ValueError("metrics undefined for zero examples")
    norm: list[int | None] = [
        r if (r is not None and r <= cutoff) else None for r in ranks
    ]
    n = len(norm)
    top1 = sum(1 for r in norm if r == 1) / n
    mrr = sum(1.0 / r for r in norm if r is not None) / n
    return EvalReport(top1=top1, mrr=mrr, n=n, per_example_ranks=tuple(norm))


def evaluate(
    topk_fn: TopkFn, examples: Sequence[EvalExample], cutoff: int = 10
) -> EvalReport:
    """Score each example by the rank of its target among the model's top
    `cutoff` candidates."""
    if not examples:
        raise ValueError("metrics undefined for zero examples")
    ranks: list[int | None] = []
    for example in examples:
        candidates = topk_fn(example.context_texts, cutoff)[:cutoff]
        rank = None
        for position, (text, _) in enumerate(candidates, start=1):
            if text == example.target.text:
                rank = position
                break
        ranks.append(rank)
    return report_from_ranks(ranks, cutoff=cutoff)
