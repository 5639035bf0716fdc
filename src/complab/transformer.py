"""Decoder-only transformer language model built on the local autograd
engine: token + learned positional embeddings, pre-layer-norm causal
self-attention blocks with GELU feed-forward, and an untied softmax head.

Training runs Adam with linear warmup and gradient clipping, early-stopped
on validation loss with patience 2 and a hard cap of 15 epochs, in single
precision by default. Inference and validation forwards run on a detached
view of the parameters, so they record no autograd graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .completer import Completer
from .vocab import Vocabulary

MAX_EPOCHS = 15
NEG_INF = -1e30


class DivergenceError(RuntimeError):
    def __init__(self, message: str, log: "TrainLog | None" = None):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True, slots=True)
class TransformerConfig:
    vocab_size: int
    context_len: int = 100
    d_model: int = 128
    n_layers: int = 6
    n_heads: int = 4
    d_ff: int = 512
    dropout: float = 0.0
    seed: int = 0
    batch_size: int = 32
    lr: float = 6e-4
    warmup_steps: int = 100
    clip_norm: float = 1.0
    max_epochs: int = MAX_EPOCHS
    patience: int = 2

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.context_len < 2:
            raise ValueError("context_len must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.max_epochs > MAX_EPOCHS:
            raise ValueError(f"max_epochs capped at {MAX_EPOCHS}")


def small_config(vocab_size: int, context_len: int = 100, seed: int = 0, **kw) -> TransformerConfig:
    """Small configuration for fast CPU checks."""
    kw.setdefault("d_model", 16)
    kw.setdefault("n_layers", 2)
    kw.setdefault("n_heads", 2)
    kw.setdefault("d_ff", 64)
    return TransformerConfig(
        vocab_size=vocab_size, context_len=context_len, seed=seed, **kw
    )


# Parameters are a flat name -> Tensor dict; block tensors are prefixed
# "h<i>." so the whole set serializes and checksums uniformly.
TransformerParams = dict[str, Tensor]


def init_params(config: TransformerConfig, dtype=np.float32) -> TransformerParams:
    rng = np.random.default_rng(config.seed)
    d, ff, v, c = config.d_model, config.d_ff, config.vocab_size, config.context_len

    def normal(*shape):
        return Tensor(
            (rng.standard_normal(shape) * 0.02).astype(dtype), requires_grad=True
        )

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    params: TransformerParams = {
        "tok_emb": normal(v, d),
        "pos_emb": normal(c, d),
        "lnf.g": ones(d),
        "lnf.b": zeros(d),
        "w_out": normal(d, v),
    }
    for i in range(config.n_layers):
        p = f"h{i}."
        params[p + "ln1.g"] = ones(d)
        params[p + "ln1.b"] = zeros(d)
        params[p + "attn.wq"] = normal(d, d)
        params[p + "attn.bq"] = zeros(d)
        params[p + "attn.wk"] = normal(d, d)
        params[p + "attn.bk"] = zeros(d)
        params[p + "attn.wv"] = normal(d, d)
        params[p + "attn.bv"] = zeros(d)
        params[p + "attn.wo"] = normal(d, d)
        params[p + "attn.bo"] = zeros(d)
        params[p + "ln2.g"] = ones(d)
        params[p + "ln2.b"] = zeros(d)
        params[p + "ff.w1"] = normal(d, ff)
        params[p + "ff.b1"] = zeros(ff)
        params[p + "ff.w2"] = normal(ff, d)
        params[p + "ff.b2"] = zeros(d)
    return params


def _attention_mask(ids: np.ndarray, pad_id: int, dtype) -> np.ndarray:
    """Additive mask (B, 1, L, L): causal plus pad-key exclusion."""
    b, length = ids.shape
    causal = np.triu(np.full((length, length), NEG_INF, dtype=dtype), k=1)
    mask = np.broadcast_to(causal, (b, 1, length, length)).copy()
    pad_keys = ids == pad_id
    mask[pad_keys[:, None, None, :].repeat(length, axis=2)] = NEG_INF
    return mask


def _dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    if rng is None or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return ag.mul_const(x, keep)


def _logits(
    params: TransformerParams,
    ids: np.ndarray,
    config: TransformerConfig,
    pad_id: int = 1,
    rng: np.random.Generator | None = None,
) -> Tensor:
    b, length = ids.shape
    if length == 0:
        raise ValueError("empty id sequence")
    if length > config.context_len:
        raise ValueError(
            f"sequence length {length} exceeds context_len {config.context_len}"
        )
    if ids.max() >= config.vocab_size:
        raise ValueError("token id outside vocab_size")
    dtype = params["tok_emb"].data.dtype
    h = config.n_heads
    dh = config.d_model // h

    positions = np.arange(length)
    x = ag.add(
        ag.embedding(params["tok_emb"], ids),
        ag.embedding(params["pos_emb"], positions),
    )
    x = _dropout(x, config.dropout, rng)
    mask = _attention_mask(ids, pad_id, dtype)

    for i in range(config.n_layers):
        p = f"h{i}."
        ln1 = ag.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        q = ag.add(ag.matmul(ln1, params[p + "attn.wq"]), params[p + "attn.bq"])
        k = ag.add(ag.matmul(ln1, params[p + "attn.wk"]), params[p + "attn.bk"])
        v = ag.add(ag.matmul(ln1, params[p + "attn.wv"]), params[p + "attn.bv"])
        q = ag.transpose(ag.reshape(q, (b, length, h, dh)), (0, 2, 1, 3))
        k = ag.transpose(ag.reshape(k, (b, length, h, dh)), (0, 2, 1, 3))
        v = ag.transpose(ag.reshape(v, (b, length, h, dh)), (0, 2, 1, 3))
        scores = ag.scale(
            ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh)
        )
        weights = ag.softmax(ag.add_const(scores, mask))
        ctx = ag.matmul(weights, v)
        ctx = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (b, length, config.d_model))
        attn_out = ag.add(ag.matmul(ctx, params[p + "attn.wo"]), params[p + "attn.bo"])
        x = ag.add(x, _dropout(attn_out, config.dropout, rng))

        ln2 = ag.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        ff = ag.gelu(ag.add(ag.matmul(ln2, params[p + "ff.w1"]), params[p + "ff.b1"]))
        ff = ag.add(ag.matmul(ff, params[p + "ff.w2"]), params[p + "ff.b2"])
        x = ag.add(x, _dropout(ff, config.dropout, rng))

    x = ag.layer_norm(x, params["lnf.g"], params["lnf.b"])
    return ag.matmul(x, params["w_out"])


def _detached(params: TransformerParams) -> TransformerParams:
    """The same arrays as plain tensors: ops on them record no graph."""
    return {name: Tensor(p.data) for name, p in params.items()}


def forward(
    params: TransformerParams,
    ids: Sequence[int],
    config: TransformerConfig,
    pad_id: int = 1,
) -> np.ndarray:
    """Next-token probability rows for one id sequence: shape (L, vocab)."""
    arr = np.asarray(ids, dtype=np.int64)[None, :]
    logits = _logits(_detached(params), arr, config, pad_id=pad_id).data[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss(
    params: TransformerParams,
    batch: Sequence[Sequence[int]] | np.ndarray,
    config: TransformerConfig,
    pad_id: int = 1,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean token-level cross-entropy over non-pad target positions."""
    ids = np.asarray(batch, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2D id array")
    inputs, targets = ids[:, :-1], ids[:, 1:]
    target_mask = targets != pad_id
    n_real = int(target_mask.sum())
    if n_real == 0:
        raise ValueError("loss undefined: batch contains only pad targets")
    logits = _logits(params, inputs, config, pad_id=pad_id, rng=rng)
    dtype = params["tok_emb"].data.dtype
    nll = ag.cross_entropy(logits, targets, target_mask.astype(dtype))
    return ag.scale(nll, 1.0 / n_real)


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------


@dataclass(slots=True)
class TrainLog:
    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    param_checksum: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "train_losses": self.train_losses,
                "valid_losses": self.valid_losses,
                "stopped_epoch": self.stopped_epoch,
                "best_epoch": self.best_epoch,
                "param_checksum": self.param_checksum,
            },
            sort_keys=True,
        )


class EarlyStopper:
    """Patience-based stopping on validation loss: improvement means
    strictly lower than the best seen; stop after `patience` consecutive
    non-improving epochs or at the epoch cap."""

    def __init__(self, patience: int = 2, max_epochs: int = MAX_EPOCHS):
        self.patience = patience
        self.max_epochs = max_epochs
        self.best_value = math.inf
        self.best_epoch = 0
        self.epoch = 0
        self.bad = 0

    def update(self, valid_loss: float) -> bool:
        """Record one epoch's validation loss; True means stop now."""
        self.epoch += 1
        if valid_loss < self.best_value:
            self.best_value = valid_loss
            self.best_epoch = self.epoch
            self.bad = 0
        else:
            self.bad += 1
        return self.bad >= self.patience or self.epoch >= self.max_epochs


def param_checksum(params: TransformerParams) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(str(params[name].data.dtype).encode())
        digest.update(np.ascontiguousarray(params[name].data).tobytes())
    return digest.hexdigest()


def _batches(
    sequences: np.ndarray, batch_size: int, rng: np.random.Generator | None
) -> list[np.ndarray]:
    order = np.arange(len(sequences))
    if rng is not None:
        rng.shuffle(order)
    return [
        sequences[order[i : i + batch_size]]
        for i in range(0, len(order), batch_size)
    ]


def _mean_valid_loss(
    params: TransformerParams,
    valid: np.ndarray,
    config: TransformerConfig,
    pad_id: int,
) -> float:
    detached = _detached(params)
    total = 0.0
    weight = 0
    for batch in _batches(valid, config.batch_size, rng=None):
        n_real = int((batch[:, 1:] != pad_id).sum())
        if n_real == 0:
            continue
        total += float(loss(detached, batch, config, pad_id=pad_id).data) * n_real
        weight += n_real
    if weight == 0:
        raise ValueError("validation split contains only pad targets")
    return total / weight


def _train_step(
    params: TransformerParams,
    opt: ag.Adam,
    batch: np.ndarray,
    config: TransformerConfig,
    pad_id: int,
    rng: np.random.Generator | None = None,
) -> float:
    """One optimizer step on one batch; returns its loss, and skips the
    update when that loss is not finite. The step's graph dies with this
    frame, so it is not kept alive while the next graph is built."""
    opt.zero_grad()
    out = loss(params, batch, config, pad_id=pad_id, rng=rng)
    value = float(out.data)
    if math.isfinite(value):
        out.backward()
        opt.step()
    return value


def train(
    config: TransformerConfig,
    train_sequences: Sequence[Sequence[int]],
    valid_sequences: Sequence[Sequence[int]],
    pad_id: int = 1,
    dtype=np.float32,
) -> tuple[TransformerParams, TrainLog]:
    """Early-stopped Adam training; returns parameters from the best epoch.

    Deterministic for identical (config, data, dtype).
    """
    train_arr = np.asarray(train_sequences, dtype=np.int64)
    valid_arr = np.asarray(valid_sequences, dtype=np.int64)
    if train_arr.size == 0 or valid_arr.size == 0:
        raise ValueError("train and valid splits must be non-empty")
    params = init_params(config, dtype=dtype)
    opt = ag.Adam(
        params,
        lr=config.lr,
        warmup_steps=config.warmup_steps,
        clip_norm=config.clip_norm,
    )
    stopper = EarlyStopper(patience=config.patience, max_epochs=config.max_epochs)
    log = TrainLog()
    best_snapshot = {k: p.data.copy() for k, p in params.items()}
    dropout_rng = np.random.default_rng(config.seed + 101)

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng = np.random.default_rng((config.seed, epoch))
        epoch_total = 0.0
        epoch_weight = 0
        for batch in _batches(train_arr, config.batch_size, shuffle_rng):
            n_real = int((batch[:, 1:] != pad_id).sum())
            if n_real == 0:
                continue
            value = _train_step(
                params,
                opt,
                batch,
                config,
                pad_id,
                rng=dropout_rng if config.dropout > 0 else None,
            )
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}", log
                )
            epoch_total += value * n_real
            epoch_weight += n_real
        train_loss = epoch_total / max(epoch_weight, 1)
        valid_loss = _mean_valid_loss(params, valid_arr, config, pad_id)
        if not math.isfinite(valid_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}", log)
        log.train_losses.append(train_loss)
        log.valid_losses.append(valid_loss)
        stop = stopper.update(valid_loss)
        if stopper.best_epoch == stopper.epoch:
            best_snapshot = {k: p.data.copy() for k, p in params.items()}
        if stop:
            break

    log.stopped_epoch = stopper.epoch
    log.best_epoch = stopper.best_epoch
    for key, data in best_snapshot.items():
        params[key].data = data
    log.param_checksum = param_checksum(params)
    return params, log


# --------------------------------------------------------------------------
# Candidate scoring
# --------------------------------------------------------------------------


class TransformerCompleter(Completer):
    """Whole-token transformer behind the Completer interface: one forward
    per distribution."""

    def __init__(
        self, params: TransformerParams, config: TransformerConfig, vocab: Vocabulary
    ):
        self.params = params
        self.config = config
        self.vocab = vocab

    def distribution(self, context_texts: Sequence[str]) -> np.ndarray:
        ids = [self.vocab.id(t) for t in context_texts][-self.config.context_len :]
        return forward(self.params, ids, self.config, pad_id=self.vocab.pad_id)[
            -1
        ].astype(np.float64)


# --------------------------------------------------------------------------
# Persistence: versioned npz with a JSON config header.
# --------------------------------------------------------------------------


def save_params(
    params: TransformerParams, config: TransformerConfig, path: str | Path
) -> None:
    header = json.dumps(
        {"version": 1, "config": dataclasses.asdict(config)}, sort_keys=True
    )
    arrays = {name: p.data for name, p in params.items()}
    buffer = io.BytesIO()
    np.savez(buffer, __header__=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)
    Path(path).write_bytes(buffer.getvalue())


def load_params(path: str | Path) -> tuple[TransformerParams, TransformerConfig]:
    """The parameters and config saved at `path`; ValueError naming the
    file when it is not a version 1 parameter file."""
    try:
        with open(path, "rb") as fp, np.load(fp) as data:
            header = json.loads(bytes(data["__header__"]).decode())
            if header["version"] != 1:
                raise ValueError(f"unsupported version {header['version']!r}")
            config = TransformerConfig(**header["config"])
            params = {
                name: Tensor(data[name].copy(), requires_grad=True)
                for name in data.files
                if name != "__header__"
            }
    except (KeyError, TypeError, AttributeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"{path}: malformed transformer parameter file ({type(exc).__name__}: {exc})"
        ) from exc
    return params, config
