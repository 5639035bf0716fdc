"""Reference computations for the benchmark's correctness checks.

Nothing here imports `complab`: the generated corpora are read straight
from disk (datagen writes each file as its token texts joined by single
spaces), splits and training streams are rebuilt from their definitions,
and the models are recomputed from their defining formulas.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

UNK, PAD = "<unk>", "<pad>"
UNK_ID, PAD_ID = 0, 1
WINDOW = 100
KEYWORDS = frozenset(
    "function return if else elseif while for foreach do switch case break "
    "continue class interface trait extends implements new null true false "
    "public private protected static final abstract use namespace".split()
)


# --------------------------------------------------------------------------
# Corpora, splits and training streams
# --------------------------------------------------------------------------


def is_identifier(text: str) -> bool:
    """Completion-target tokens: `$locals` and non-keyword names."""
    if text.startswith("$"):
        return True
    return (text[:1].isalpha() or text[:1] == "_") and text not in KEYWORDS


@functools.cache
def read_files(data_dir: Path) -> list[tuple[str, list[str]]]:
    """(file_id, token texts) for every file of a generated corpus. Cached:
    callers must not modify the result."""
    out = []
    with open(data_dir / "manifest.jsonl", encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                meta = json.loads(line)
                text = (data_dir / meta["path"]).read_text(encoding="utf-8")
                out.append((meta["file_id"], text.split()))
    return out


@functools.cache
def read_events(data_dir: Path) -> list[dict]:
    with open(data_dir / "events.jsonl", encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _bucket(seed: int, record_id: str) -> float:
    digest = hashlib.sha256(f"{seed}|{record_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def split(records: list, seed: int, key) -> dict[str, list]:
    """Hash-keyed 8:1:1 split of records into train / valid / test."""
    parts: dict[str, list] = {"train": [], "valid": [], "test": []}
    for record in records:
        u = _bucket(seed, key(record))
        parts["train" if u < 0.8 else "valid" if u < 0.9 else "test"].append(record)
    return parts


def file_key(record) -> str:
    return record[0]


def event_key(event: dict) -> str:
    return f"{event['developer_id']}|{float(event['timestamp'])!r}|{event['accepted']}"


def streams(data_root: Path, corpus: str, seed: int, use: str = "train") -> list[list[str]]:
    """Training texts: one stream per file, or context + target per event
    for the completion corpus; union is committed followed by completion."""
    if corpus == "union":
        return streams(data_root, "committed", seed, use) + streams(
            data_root, "completion", seed, use
        )
    if corpus == "completion":
        events = split(read_events(data_root / corpus), seed, event_key)[use]
        return [e["context"][-(WINDOW - 1) :] + [e["accepted"]] for e in events]
    files = split(read_files(data_root / corpus), seed, file_key)[use]
    return [texts for _, texts in files]


def vocab_texts(stream_list: list[list[str]], max_size: int) -> list[str]:
    """Vocabulary by id: the specials, then the `max_size` most frequent
    texts, ties by ascending text."""
    counts = Counter(t for s in stream_list for t in s)
    counts.pop(UNK, None)
    counts.pop(PAD, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    return [UNK, PAD] + [t for t, _ in ranked]


def windows(stream_list: list[list[str]], id_of: dict[str, int]) -> list[list[int]]:
    """Non-overlapping WINDOW-id windows, the last one right-padded."""
    out = []
    for stream in stream_list:
        ids = [id_of.get(t, UNK_ID) for t in stream]
        for start in range(0, len(ids), WINDOW):
            chunk = ids[start : start + WINDOW]
            out.append(chunk + [PAD_ID] * (WINDOW - len(chunk)))
    return out


def trim_to_budget(wins: list[list[int]], budget: int) -> list[list[int]]:
    out, used = [], 0
    for w in wins:
        if used >= budget:
            break
        out.append(w)
        used += sum(1 for t in w if t != PAD_ID)
    return out


# --------------------------------------------------------------------------
# Interpolated modified Kneser-Ney
# --------------------------------------------------------------------------


def _discount(c: int, d: tuple[float, float, float]) -> float:
    return 0.0 if c <= 0 else d[0] if c == 1 else d[1] if c == 2 else d[2]


def _discounts(counts) -> tuple[float, float, float]:
    coc = Counter(c for c in counts if 1 <= c <= 4)
    n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
    if n1 == 0 or n2 == 0:
        return 0.75, 0.75, 0.75
    y = n1 / (n1 + 2 * n2)
    d1 = min(max(1 - 2 * y * n2 / n1, 0.0), 1.0)
    d2 = min(max(2 - 3 * y * n3 / n2, 0.0), 2.0)
    d3 = min(max(3 - 4 * y * n4 / n3, 0.0), 3.0) if n3 > 0 else 3.0
    return d1, d2, d3


class ReferenceKN:
    """Interpolated modified Kneser-Ney over a vocabulary of `vocab_size`
    ids, with the formulas of the test suite's brute-force oracle but its
    tables built once: raw counts at the top order, continuation counts
    below it, count-of-count discounts per order, and a unigram level
    interpolated with the uniform distribution over non-special ids."""

    def __init__(self, sequences, order: int, vocab_size: int):
        self.order = order
        self.vocab_size = vocab_size
        raw = {k: Counter() for k in range(1, order + 1)}
        for seq in sequences:
            clean = seq[: seq.index(PAD_ID)] if PAD_ID in seq else seq
            for k in range(1, order + 1):
                table = raw[k]
                for i in range(len(clean) - k + 1):
                    table[tuple(clean[i : i + k])] += 1
        adjusted = {order: raw[order]}
        for k in range(order - 1, 0, -1):
            adjusted[k] = Counter(g[1:] for g in raw[k + 1])
        self.levels: dict[int, dict] = {}
        self.discounts: dict[int, tuple[float, float, float]] = {}
        for k in range(2, order + 1):
            by_ctx: dict[tuple, dict[int, int]] = {}
            for gram, c in adjusted[k].items():
                by_ctx.setdefault(gram[:-1], {})[gram[-1]] = c
            self.levels[k] = by_ctx
            self.discounts[k] = _discounts(adjusted[k].values())
        unigram = {g[0]: c for g, c in adjusted[1].items() if g[0] != PAD_ID}
        self.discounts[1] = _discounts(unigram.values())
        base = np.full(vocab_size, 1.0 / (vocab_size - 2))
        base[UNK_ID] = base[PAD_ID] = 0.0
        self.unigram = base
        if unigram:
            gamma, total = self._weights(unigram, self.discounts[1])
            self.unigram = gamma * base + self._discounted(unigram, self.discounts[1], total)
        self._cache: dict[tuple, tuple[float, float]] = {}

    @staticmethod
    def _weights(table: dict[int, int], d) -> tuple[float, int]:
        """(backoff weight gamma, total count) of one context's table."""
        total = sum(table.values())
        n1 = sum(1 for c in table.values() if c == 1)
        n2 = sum(1 for c in table.values() if c == 2)
        n3p = sum(1 for c in table.values() if c >= 3)
        return (d[0] * n1 + d[1] * n2 + d[2] * n3p) / total, total

    def _discounted(self, table: dict[int, int], d, total: int) -> np.ndarray:
        out = np.zeros(self.vocab_size)
        for w, c in table.items():
            out[w] = max(c - _discount(c, d), 0.0) / total
        return out

    def _levels(self, context_ids):
        """(order k, table, gamma, total) for each context suffix that
        occurred, shortest first."""
        h = tuple(context_ids)[-(self.order - 1) :]
        for s in range(1, len(h) + 1):
            ctx = h[-s:]
            table = self.levels[s + 1].get(ctx)
            if table is not None:
                key = (s + 1, ctx)
                if key not in self._cache:
                    self._cache[key] = self._weights(table, self.discounts[s + 1])
                yield (s + 1, table, *self._cache[key])

    def distribution(self, context_ids) -> np.ndarray:
        """Next-id distribution after the last order-1 context ids."""
        p = self.unigram.copy()
        for k, table, gamma, total in self._levels(context_ids):
            p = gamma * p + self._discounted(table, self.discounts[k], total)
        return p

    def prob(self, context_ids, w: int) -> float:
        p = float(self.unigram[w])
        for k, table, gamma, total in self._levels(context_ids):
            c = table.get(w, 0)
            p = max(c - _discount(c, self.discounts[k]), 0.0) / total + gamma * p
        return p


# --------------------------------------------------------------------------
# Transformer forward pass
# --------------------------------------------------------------------------


def load_transformer(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    """Parameter arrays (as float64) and the config of a saved model."""
    with np.load(path) as data:
        header = json.loads(bytes(data["__header__"]).decode())
        params = {k: data[k].astype(np.float64) for k in data.files if k != "__header__"}
    return params, header["config"]


def _layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + eps) + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def transformer_logits(params, config: dict, ids) -> np.ndarray:
    """Logits (L, V) of a pre-LN causal decoder for one id sequence:
    token + position embeddings, masked multi-head attention that ignores
    pad keys, tanh-GELU feed-forward, final layer norm and output head."""
    ids = np.asarray(ids, dtype=np.int64)
    length, d, nh = len(ids), config["d_model"], config["n_heads"]
    dh = d // nh
    x = params["tok_emb"][ids] + params["pos_emb"][:length]
    blocked = np.triu(np.ones((length, length), dtype=bool), k=1) | (ids == PAD_ID)[None, :]
    for i in range(config["n_layers"]):
        p = {name[len(f"h{i}.") :]: v for name, v in params.items() if name.startswith(f"h{i}.")}
        a = _layer_norm(x, p["ln1.g"], p["ln1.b"])
        heads = []
        for w in ("q", "k", "v"):
            proj = a @ p[f"attn.w{w}"] + p[f"attn.b{w}"]
            heads.append(proj.reshape(length, nh, dh).transpose(1, 0, 2))
        q, k, v = heads
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        scores = np.where(blocked[None], -1e30, scores)
        ctx = (_softmax(scores) @ v).transpose(1, 0, 2).reshape(length, d)
        x = x + ctx @ p["attn.wo"] + p["attn.bo"]
        f = _gelu(_layer_norm(x, p["ln2.g"], p["ln2.b"]) @ p["ff.w1"] + p["ff.b1"])
        x = x + f @ p["ff.w2"] + p["ff.b2"]
    return _layer_norm(x, params["lnf.g"], params["lnf.b"]) @ params["w_out"]


def next_distribution(params, config: dict, ids) -> np.ndarray:
    return _softmax(transformer_logits(params, config, ids)[-1])


def mean_loss(params, config: dict, wins: list[list[int]]) -> float:
    """Mean next-token cross-entropy over every non-pad target."""
    total, count = 0.0, 0
    for w in wins:
        logits = transformer_logits(params, config, w[:-1])
        logp = logits - logits.max(axis=-1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
        for pos, target in enumerate(w[1:]):
            if target != PAD_ID:
                total -= logp[pos, target]
                count += 1
    return total / count


# --------------------------------------------------------------------------
# Ranks and A/B statistics
# --------------------------------------------------------------------------


def rank_band(
    probs: np.ndarray, texts: list[str], target: str, id_of: dict, tie: float, rel: float = 0.0
) -> tuple[int, int, int]:
    """1-based ranks of `target` among non-special ids by descending
    probability, with probabilities within `tie` plus `rel` times the
    target's of it counted as ties: (first rank among the ties, rank with
    ties in ascending text order, last rank among the ties). Out of
    vocabulary ranks last."""
    t = id_of.get(target)
    if t is None or t in (UNK_ID, PAD_ID):
        return (len(texts),) * 3
    p = probs[t]
    tie += rel * p
    above = tied = tied_before = 0
    for w in np.flatnonzero(probs >= p - tie):
        if w in (UNK_ID, PAD_ID, t):
            continue
        if probs[w] > p + tie:
            above += 1
        else:
            tied += 1
            tied_before += texts[w] < target
    return above + 1, above + tied_before + 1, above + tied + 1


def ab_groups(records: list[dict]) -> dict[str, dict]:
    """Per A/B group: acceptance counts per (developer, UTC day) as
    `values`, and the statistics the report gives for them."""
    cells = Counter()
    for r in records:
        day = datetime.fromtimestamp(float(r["timestamp"]), tz=timezone.utc).date()
        cells[(r["group"], str(r["developer_id"]), day.isoformat())] += 1
    groups: dict[str, dict] = {}
    for (group, dev, _), c in sorted(cells.items()):
        g = groups.setdefault(group, {"values": [], "developers": set()})
        g["values"].append(c)
        g["developers"].add(dev)
    for g in groups.values():
        values, n = g["values"], len(g["values"])
        mean = sum(values) / n
        g["observations"] = n
        g["mean"] = mean
        g["std_dev"] = (
            math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        )
        g["unique_developers"] = len(g.pop("developers"))
    return groups
