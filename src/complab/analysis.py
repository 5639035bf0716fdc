"""Corpus-drift characterization: OOV rates, target-length distributions,
token-kind shares, and accuracy conditioned on length or context OOV.

Every table is a plain list of rows, reproducible bit-exactly from its
inputs, and can be written as CSV for external plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from .corpus import EvalExample
from .lexer import TokenKind, is_identifier_like
from .vocab import Vocabulary

LENGTH_CDF_MAX = 40


def oov_rate_targets(vocab: Vocabulary, examples: Sequence[EvalExample]) -> float:
    """Fraction of target tokens outside the vocabulary."""
    if not examples:
        raise ValueError("OOV rate undefined for zero examples")
    misses = sum(1 for ex in examples if ex.target.text not in vocab)
    return misses / len(examples)


def oov_rate_context(vocab: Vocabulary, examples: Sequence[EvalExample]) -> float:
    """Fraction of context token occurrences outside the vocabulary.

    Examples with empty contexts contribute nothing to the denominator
    (the EvalExample invariant forbids them anyway).
    """
    total = 0
    misses = 0
    for ex in examples:
        for text in ex.context_texts:
            total += 1
            if text not in vocab:
                misses += 1
    if total == 0:
        raise ValueError("OOV rate undefined without context tokens")
    return misses / total


def length_cdf(examples: Sequence[EvalExample]) -> list[tuple[int, float]]:
    """Cumulative fraction of target lengths for L = 1..40; lengths beyond
    40 are pooled into the final row, so it always reads 1.0."""
    if not examples:
        raise ValueError("CDF undefined for zero examples")
    n = len(examples)
    counts = [0] * (LENGTH_CDF_MAX + 1)
    for ex in examples:
        counts[min(len(ex.target.text), LENGTH_CDF_MAX)] += 1
    rows = []
    acc = 0
    for length in range(1, LENGTH_CDF_MAX + 1):
        acc += counts[length]
        rows.append((length, acc / n))
    return rows


def accuracy_by_length(
    ranks: Sequence[int | None],
    examples: Sequence[EvalExample],
    bin_width: int = 4,
) -> list[tuple[str, float, int]]:
    """Top-1 accuracy per target-length bin; empty bins are omitted.

    Rows are (bin label "lo-hi", top1, count).
    """
    if len(ranks) != len(examples):
        raise ValueError(
            f"ranks ({len(ranks)}) misaligned with examples ({len(examples)})"
        )
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for rank, ex in zip(ranks, examples):
        b = (len(ex.target.text) - 1) // bin_width
        totals[b] = totals.get(b, 0) + 1
        if rank == 1:
            hits[b] = hits.get(b, 0) + 1
    rows = []
    for b in sorted(totals):
        lo = b * bin_width + 1
        hi = (b + 1) * bin_width
        rows.append((f"{lo}-{hi}", hits.get(b, 0) / totals[b], totals[b]))
    return rows


def accuracy_by_context_oov(
    ranks: Sequence[int | None],
    examples: Sequence[EvalExample],
    vocab: Vocabulary,
    fraction_bins: int = 10,
) -> dict[str, list[tuple[str, float, int]]]:
    """Top-1 accuracy grouped by the number of OOV context tokens, and by
    the OOV fraction of the context (both groupings are emitted)."""
    if len(ranks) != len(examples):
        raise ValueError(
            f"ranks ({len(ranks)}) misaligned with examples ({len(examples)})"
        )
    by_count: dict[int, list[int]] = {}
    by_frac: dict[int, list[int]] = {}
    for rank, ex in zip(ranks, examples):
        oov = sum(1 for text in ex.context_texts if text not in vocab)
        frac = oov / len(ex.context_texts)
        fbin = min(int(frac * fraction_bins), fraction_bins - 1)
        by_count.setdefault(oov, []).append(1 if rank == 1 else 0)
        by_frac.setdefault(fbin, []).append(1 if rank == 1 else 0)
    count_rows = [
        (str(k), sum(v) / len(v), len(v)) for k, v in sorted(by_count.items())
    ]
    frac_rows = [
        (
            f"{k / fraction_bins:.1f}-{(k + 1) / fraction_bins:.1f}",
            sum(v) / len(v),
            len(v),
        )
        for k, v in sorted(by_frac.items())
    ]
    return {"count": count_rows, "fraction": frac_rows}


def kind_distribution(
    examples: Sequence[EvalExample],
) -> dict[TokenKind, float]:
    """Share of each identifier-like kind among identifier-like targets."""
    counts: dict[TokenKind, int] = {}
    total = 0
    for ex in examples:
        if is_identifier_like(ex.target.kind):
            counts[ex.target.kind] = counts.get(ex.target.kind, 0) + 1
            total += 1
    if total == 0:
        return {}
    return {kind: c / total for kind, c in sorted(counts.items(), key=lambda kv: kv[0].value)}


# --------------------------------------------------------------------------
# CSV emission (fixed file names so figures can be re-plotted externally)
# --------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        writer.writerows(rows)


def write_accuracy_by_length_csv(
    out_dir: str | Path, labeled_tables: dict[str, list[tuple[str, float, int]]]
) -> Path:
    path = Path(out_dir) / "fig4_accuracy_by_length.csv"
    rows = [
        (label, b, f"{top1:.6f}", count)
        for label, table in labeled_tables.items()
        for b, top1, count in table
    ]
    _write_csv(path, ["model", "length_bin", "top1", "count"], rows)
    return path


def write_length_cdf_csv(
    out_dir: str | Path, labeled_cdfs: dict[str, list[tuple[int, float]]]
) -> Path:
    path = Path(out_dir) / "fig5_length_cdf.csv"
    rows = [
        (label, length, f"{frac:.6f}")
        for label, cdf in labeled_cdfs.items()
        for length, frac in cdf
    ]
    _write_csv(path, ["corpus", "length_le", "cumulative_fraction"], rows)
    return path


def write_accuracy_by_oov_csv(
    out_dir: str | Path,
    labeled_tables: dict[str, dict[str, list[tuple[str, float, int]]]],
) -> Path:
    path = Path(out_dir) / "fig6_accuracy_by_oov.csv"
    rows = []
    for label, groupings in labeled_tables.items():
        for grouping, table in groupings.items():
            for bucket, top1, count in table:
                rows.append((label, grouping, bucket, f"{top1:.6f}", count))
    _write_csv(path, ["model", "grouping", "bucket", "top1", "count"], rows)
    return path


def write_kind_distribution_csv(
    out_dir: str | Path, labeled_dists: dict[str, dict[TokenKind, float]]
) -> Path:
    path = Path(out_dir) / "kind_distribution.csv"
    rows = [
        (label, kind.value, f"{frac:.6f}")
        for label, dist in labeled_dists.items()
        for kind, frac in dist.items()
    ]
    _write_csv(path, ["corpus", "kind", "fraction"], rows)
    return path


def write_oov_rates_csv(
    out_dir: str | Path, rows: list[tuple[str, str, float, float]]
) -> Path:
    """Rows: (train_corpus, eval_corpus, target_oov, context_oov)."""
    path = Path(out_dir) / "oov_rates.csv"
    _write_csv(
        path,
        ["train_corpus", "eval_corpus", "target_oov", "context_oov"],
        [(t, e, f"{a:.6f}", f"{b:.6f}") for t, e, a, b in rows],
    )
    return path
