import io
import json
import math

import numpy as np
import pytest

from complab import autograd as ag
from complab import transformer as tf
from complab.ranker import serve_stream
from complab.transformer import (
    DivergenceError,
    EarlyStopper,
    TransformerConfig,
    forward,
    init_params,
    load_params,
    loss,
    param_checksum,
    save_params,
    small_config,
    train,
)
from complab.vocab import PAD_ID, Vocabulary
from oracles import GradCheckError, grad_check


def _vocab(words):
    id_of = {"<unk>": 0, "<pad>": 1}
    for w in words:
        id_of[w] = len(id_of)
    return Vocabulary(id_of=id_of, max_size=100)


CONFIG = small_config(vocab_size=50, context_len=16, seed=3)


def test_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        TransformerConfig(vocab_size=10, context_len=1)
    with pytest.raises(ValueError):
        TransformerConfig(vocab_size=10, max_epochs=16)


def test_forward_rows_sum_to_one():
    params = init_params(CONFIG, dtype=np.float64)
    rng = np.random.default_rng(0)
    probs = forward(params, list(rng.integers(2, 50, size=9)), CONFIG)
    assert probs.shape == (9, 50)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_forward_rejects_overlong_input():
    params = init_params(CONFIG, dtype=np.float64)
    with pytest.raises(ValueError):
        forward(params, [2] * 17, CONFIG)


def test_forward_uniform_with_zero_params():
    params = init_params(CONFIG, dtype=np.float64)
    for p in params.values():
        p.data[:] = 0.0
    probs = forward(params, [2, 3, 4], CONFIG)
    np.testing.assert_allclose(probs, 1.0 / 50, atol=1e-12)


def test_causality_exact():
    params = init_params(CONFIG, dtype=np.float64)
    rng = np.random.default_rng(1)
    ids = list(rng.integers(2, 50, size=10))
    base = forward(params, ids, CONFIG)
    for j in (5, 7, 9):
        perturbed = list(ids)
        perturbed[j] = (perturbed[j] + 13) % 48 + 2
        rows = forward(params, perturbed, CONFIG)
        assert np.abs(rows[:j] - base[:j]).max() <= 1e-12


def test_pad_keys_masked_out_of_attention():
    params = init_params(CONFIG, dtype=np.float64)
    ids = [4, 5, 6, 1, 1]  # right-padded
    base = forward(params, ids, CONFIG)
    # Changing a pad to a different id changes nothing for earlier rows
    # only if pads carry no attention mass; rows 0..2 must be identical.
    np.testing.assert_allclose(
        base[:3], forward(params, [4, 5, 6, 1, 1], CONFIG)[:3], atol=0
    )
    other = forward(params, [4, 5, 6, 7, 1], CONFIG)
    assert np.abs(base[:3] - other[:3]).max() <= 1e-12


def test_loss_uniform_equals_log_vocab():
    params = init_params(CONFIG, dtype=np.float64)
    for p in params.values():
        p.data[:] = 0.0
    rng = np.random.default_rng(2)
    batch = rng.integers(2, 50, size=(3, 9))
    value = float(loss(params, batch, CONFIG).data)
    assert value == pytest.approx(math.log(50), abs=1e-6)


def test_loss_excludes_pad_targets():
    params = init_params(CONFIG, dtype=np.float64)
    batch_plain = np.array([[2, 3, 4, 5]])
    batch_padded = np.array([[2, 3, 4, 5, 1, 1, 1]])
    a = float(loss(params, batch_plain, CONFIG).data)
    b = float(loss(params, batch_padded, CONFIG).data)
    assert a == pytest.approx(b, rel=1e-12)


def _composite_loss(params, batch, config):
    """The unfused loss: log_softmax, gather, pad mask, sum."""
    inputs, targets = batch[:, :-1], batch[:, 1:]
    mask = (targets != PAD_ID).astype(np.float64)
    logp = ag.log_softmax(tf._logits(params, inputs, config))
    picked = ag.mul_const(ag.gather_last(logp, targets), mask)
    return ag.scale(ag.tsum(picked), -1.0 / mask.sum())


def test_loss_equals_unfused_composite():
    params = init_params(CONFIG, dtype=np.float64)
    rng = np.random.default_rng(6)
    batch = rng.integers(2, 50, size=(3, 11))
    batch[0, 6:] = 1
    batch[2, 9:] = 1
    fused = loss(params, batch, CONFIG)
    fused.backward()
    fused_grads = {k: p.grad for k, p in params.items()}
    for p in params.values():
        p.grad = None
    composite = _composite_loss(params, batch, CONFIG)
    composite.backward()
    assert abs(float(fused.data) - float(composite.data)) <= 1e-12
    for name, p in params.items():
        np.testing.assert_allclose(fused_grads[name], p.grad, rtol=1e-9, atol=1e-14)


def test_serve_transformer_empty_context_keeps_going():
    vocab = _vocab(["a", "b", "c"])
    config = small_config(vocab_size=len(vocab), context_len=8, seed=0)
    completer = tf.TransformerCompleter(
        init_params(config, dtype=np.float32), config, vocab
    )
    lines = [
        {"request_id": "empty", "context": [], "candidates": ["a", "b"]},
        {"request_id": "ok", "context": ["a"], "candidates": ["b", "c"]},
    ]
    reader = io.StringIO("".join(json.dumps(l) + "\n" for l in lines))
    writer = io.StringIO()
    assert serve_stream(completer.scores, reader, writer) == 2
    first, second = [json.loads(l) for l in writer.getvalue().splitlines()]
    assert first == {"error": "model", "detail": "empty id sequence", "request_id": "empty"}
    assert second["request_id"] == "ok"
    assert sorted(second["ranked"]) == ["b", "c"]


def test_serve_transformer_empty_context_oov_candidates_run_no_forward(monkeypatch):
    vocab = _vocab(["a", "b", "c"])
    config = small_config(vocab_size=len(vocab), context_len=8, seed=0)
    completer = tf.TransformerCompleter(
        init_params(config, dtype=np.float32), config, vocab
    )
    forwards = []
    monkeypatch.setattr(tf, "forward", lambda *a, **k: forwards.append(a))
    line = {"request_id": "oov", "context": [], "candidates": ["zz", "<unk>", "<pad>"]}
    reader = io.StringIO(json.dumps(line) + "\n")
    writer = io.StringIO()
    assert serve_stream(completer.scores, reader, writer) == 1
    answer = json.loads(writer.getvalue())
    assert answer["scores"] == {"zz": 0.0, "<unk>": 0.0, "<pad>": 0.0}
    assert answer["ranked"] == ["<pad>", "<unk>", "zz"]
    assert forwards == []


def test_inference_records_no_graph(monkeypatch):
    params = init_params(CONFIG, dtype=np.float32)
    ids = [2, 9, 4, 17, 3]
    logits = tf._logits(params, np.array([ids]), CONFIG).data[0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want_rows = e / e.sum(axis=-1, keepdims=True)
    valid = np.random.default_rng(8).integers(2, 50, size=(5, 9))
    valid[1, 5:] = 1
    want_loss = float(loss(params, valid, CONFIG).data)  # one batch

    graph_built = []
    needs_graph = ag._needs_graph

    def recording(*tensors):
        graph_built.append(needs_graph(*tensors))
        return graph_built[-1]

    monkeypatch.setattr(ag, "_needs_graph", recording)
    rows = forward(params, ids, CONFIG)
    valid_loss = tf._mean_valid_loss(params, valid, CONFIG)
    assert graph_built and not any(graph_built)
    assert np.array_equal(rows, want_rows)
    assert valid_loss == want_loss
    assert all(p.grad is None for p in params.values())
    assert all(p.requires_grad for p in params.values())


def test_loss_all_pad_targets_error():
    params = init_params(CONFIG, dtype=np.float64)
    with pytest.raises(ValueError):
        loss(params, np.array([[2, 1, 1]]), CONFIG)  # every target is pad


def test_pad_id_is_accepted_only_as_the_constant():
    params = init_params(CONFIG, dtype=np.float64)
    batch = np.array([[2, 3, 4, 1]])
    assert np.array_equal(forward(params, [2, 3], CONFIG, pad_id=PAD_ID), forward(params, [2, 3], CONFIG))
    assert float(loss(params, batch, CONFIG, pad_id=PAD_ID).data) == float(loss(params, batch, CONFIG).data)
    with pytest.raises(ValueError, match="pad_id"):
        forward(params, [2, 3], CONFIG, pad_id=0)
    with pytest.raises(ValueError, match="pad_id"):
        loss(params, batch, CONFIG, pad_id=0)


def test_loss_permutation_invariant():
    params = init_params(CONFIG, dtype=np.float64)
    rng = np.random.default_rng(3)
    batch = rng.integers(2, 50, size=(4, 8))
    a = float(loss(params, batch, CONFIG).data)
    b = float(loss(params, batch[::-1].copy(), CONFIG).data)
    assert a == pytest.approx(b, rel=1e-12)


def test_grad_check_small_config():
    params = init_params(CONFIG, dtype=np.float64)
    rng = np.random.default_rng(4)
    batch = rng.integers(2, 50, size=(2, 10))
    batch[1, 7:] = 1
    err = grad_check(params, batch, CONFIG, h=1e-5, n_coords=200, seed=1)
    assert err < 1e-4


def test_grad_check_deterministic():
    params = init_params(CONFIG, dtype=np.float64)
    rng = np.random.default_rng(4)
    batch = rng.integers(2, 50, size=(2, 8))
    a = grad_check(params, batch, CONFIG, n_coords=50, seed=9)
    b = grad_check(params, batch, CONFIG, n_coords=50, seed=9)
    assert a == b


def test_grad_check_requires_float64():
    params = init_params(CONFIG, dtype=np.float32)
    with pytest.raises(GradCheckError):
        grad_check(params, np.array([[2, 3, 4]]), CONFIG)


def _stop_on(valid_losses):
    """(stopped_epoch, best_epoch) of a default stopper fed the trace."""
    stopper = EarlyStopper()
    for v in valid_losses:
        if stopper.update(v):
            break
    return stopper.epoch, stopper.best_epoch


def test_early_stopping_patience_trace():
    assert _stop_on([5.0, 4.0, 4.1, 4.2]) == (4, 2)


def test_early_stopping_strictly_decreasing_hits_cap():
    losses = [10.0 - 0.5 * i for i in range(20)]
    assert _stop_on(losses) == (15, 15)


def test_early_stopping_never_stops_before_three_epochs():
    stopper = EarlyStopper(patience=2, max_epochs=15)
    assert not stopper.update(5.0)
    assert not stopper.update(6.0)
    assert stopper.update(7.0)
    assert stopper.epoch == 3


def test_train_early_stops_and_returns_best_params():
    rng = np.random.default_rng(7)
    config = small_config(vocab_size=20, context_len=12, seed=1, batch_size=8)
    seqs = rng.integers(2, 20, size=(24, 10)).tolist()
    valid = rng.integers(2, 20, size=(8, 10)).tolist()
    params, log = train(config, seqs, valid)
    assert log.stopped_epoch <= 15
    assert 1 <= log.best_epoch <= log.stopped_epoch
    assert log.param_checksum == param_checksum(params)
    assert len(log.train_losses) == log.stopped_epoch


def test_train_deterministic():
    rng = np.random.default_rng(8)
    config = small_config(
        vocab_size=16, context_len=10, seed=2, batch_size=8, max_epochs=3
    )
    seqs = rng.integers(2, 16, size=(16, 8)).tolist()
    valid = rng.integers(2, 16, size=(6, 8)).tolist()
    params_a, log_a = train(config, seqs, valid)
    params_b, log_b = train(config, seqs, valid)
    assert log_a.to_json() == log_b.to_json()
    assert param_checksum(params_a) == param_checksum(params_b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reports_last_state():
    config = small_config(
        vocab_size=16, context_len=10, seed=2, batch_size=4, lr=1e9, warmup_steps=0
    )
    rng = np.random.default_rng(9)
    seqs = rng.integers(2, 16, size=(8, 8)).tolist()
    with pytest.raises(DivergenceError):
        train(config, seqs, seqs[:2])


def _fit(params, batch, config, steps):
    """`steps` Adam steps on one batch; the per-step losses."""
    opt = ag.Adam(
        params,
        lr=config.lr,
        warmup_steps=config.warmup_steps,
        clip_norm=config.clip_norm,
    )
    batch = np.asarray(batch, dtype=np.int64)
    return [tf._train_step(params, opt, batch, config) for _ in range(steps)]


def test_overfit_smoke():
    rng = np.random.default_rng(2)
    seq = list(rng.integers(2, 24, size=8))
    config = small_config(vocab_size=24, context_len=16, seed=0)
    params = init_params(config, dtype=np.float32)
    losses = _fit(params, [seq] * 32, config, steps=500)
    assert min(losses) < 0.1


def test_topk_after_memorization():
    # Alternating "a b a b ..." - after a the model must put b on top.
    vocab = _vocab(["a", "b"])
    config = small_config(vocab_size=len(vocab), context_len=12, seed=1)
    params = init_params(config, dtype=np.float32)
    seq = [vocab.id("a"), vocab.id("b")] * 5
    _fit(params, [seq] * 8, config, steps=200)
    top = tf.TransformerCompleter(params, config, vocab).topk(["a"], 2)
    assert top[0][0] == "b"
    probs = [p for _, p in top]
    assert probs == sorted(probs, reverse=True)


def test_topk_excludes_specials():
    vocab = _vocab(["a", "b", "c"])
    config = small_config(vocab_size=len(vocab), context_len=8, seed=0)
    params = init_params(config, dtype=np.float64)
    top = tf.TransformerCompleter(params, config, vocab).topk(["a"], 99)
    assert len(top) == len(vocab) - 2
    assert all(text not in ("<unk>", "<pad>") for text, _ in top)


def test_save_load_round_trip(tmp_path):
    config = small_config(vocab_size=20, context_len=10, seed=5)
    params = init_params(config, dtype=np.float32)
    path = tmp_path / "model.npz"
    save_params(params, config, path)
    loaded, loaded_config = load_params(path)
    assert loaded_config == config
    assert param_checksum(loaded) == param_checksum(params)
