"""Tests of the benchmark's own code on tiny inputs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import reference as ref  # noqa: E402
import run  # noqa: E402
from complab import transformer as tf  # noqa: E402
from oracles import BruteForceKN  # noqa: E402


@pytest.mark.parametrize("order", [2, 3, 4])
def test_reference_kn_matches_brute_force(order):
    rng = random.Random(order)
    vocab_size = 9
    sequences = [
        [rng.randrange(2, vocab_size) for _ in range(rng.randrange(3, 30))]
        + [ref.PAD_ID] * rng.randrange(0, 3)
        for _ in range(6)
    ]
    sequences.append([ref.UNK_ID, 3, 4, ref.UNK_ID, 3])
    kn = ref.ReferenceKN(sequences, order, vocab_size)
    oracle = BruteForceKN(sequences, order=order, vocab_size=vocab_size)
    for context in ([], [3], [0, 3], [2, 3, 4], [5, 5, 5, 5], [8, 7]):
        dist = kn.distribution(context)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        for w in range(vocab_size):
            assert dist[w] == pytest.approx(oracle.prob(context, w), abs=1e-12)


def test_reference_forward_matches_transformer_forward():
    config = tf.small_config(vocab_size=13, context_len=12, seed=3)
    params = tf.init_params(config, dtype=np.float64)
    for p in params.values():  # move off the ones/zeros initialisation
        p.data += np.random.default_rng(4).normal(0.0, 0.3, p.data.shape)
    plain = {k: p.data for k, p in params.items()}
    settings = {"d_model": config.d_model, "n_heads": config.n_heads, "n_layers": config.n_layers}
    for ids in ([2, 5, 7, 3, 11], [4, 9, 2, 8, 6, 10, 3, 1, 1, 1], [6]):
        want = tf.forward(params, ids, config, pad_id=ref.PAD_ID)
        logits = ref.transformer_logits(plain, settings, ids)
        got = np.exp(logits - logits.max(axis=-1, keepdims=True))
        got /= got.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ref.next_distribution(plain, settings, ids), want[-1], rtol=1e-10)


def test_reference_loss_matches_transformer_loss():
    config = tf.small_config(vocab_size=11, context_len=8, seed=5)
    params = tf.init_params(config, dtype=np.float64)
    plain = {k: p.data for k, p in params.items()}
    settings = {"d_model": config.d_model, "n_heads": config.n_heads, "n_layers": config.n_layers}
    windows = [[2, 3, 4, 5, 6, 7, 8, 9], [3, 3, 10, 2, 1, 1, 1, 1]]
    want = float(tf.loss(params, windows, config, pad_id=ref.PAD_ID).data)
    assert ref.mean_loss(plain, settings, windows) == pytest.approx(want, rel=1e-12)


def test_rank_band_orders_ties_by_text():
    texts = ["<unk>", "<pad>", "b", "a", "c", "d"]
    id_of = {t: i for i, t in enumerate(texts)}
    probs = np.array([0.5, 0.5, 0.3, 0.3, 0.3, 0.1])
    assert ref.rank_band(probs, texts, "b", id_of, 1e-9) == (1, 2, 3)
    assert ref.rank_band(probs, texts, "d", id_of, 1e-9) == (4, 4, 4)
    assert ref.rank_band(probs, texts, "zz", id_of, 1e-9) == (6, 6, 6)


def test_error_answers_count_as_failed_operations():
    ops = run.Ops()
    for answer in (
        {"request_id": "r1", "ranked": ["a"], "promoted_count": 0, "scores": {"a": 0.0}},
        {"logged": True},
        {"error": "protocol", "detail": "candidates must be non-empty"},
        None,
    ):
        ops.add(run.response_ok(answer))
    assert (ops.attempted, ops.failed) == (4, 2)


def test_nonzero_exit_counts_as_failed_operation(tmp_path):
    ops = run.Ops()
    runner = run.Runner(ROOT, tmp_path, trace=False, ops=ops)
    assert runner.run(["abtest", "--help"]) > 0
    with pytest.raises(run.StageFailed):
        runner.run(["abtest", "--log", str(tmp_path / "missing.jsonl"),
                    "--control", "a", "--experiment", "b"])
    assert (ops.attempted, ops.failed) == (2, 1)


def test_rank_answer_check_flags_order_and_score_faults():
    request = {"request_id": "r", "candidates": ["b", "a", "c", "d"]}
    expected = {"a": 0.5, "b": 0.05, "c": 0.2, "d": 0.0}
    good = {"ranked": ["a", "c", "b", "d"], "promoted_count": 2, "scores": dict(expected)}
    assert run.check_rank_answer(request, good, expected, run._close_ngram) == []
    tail_unsorted = dict(good, ranked=["a", "c", "d", "b"])
    assert run.check_rank_answer(request, tail_unsorted, expected, run._close_ngram)
    left_out = dict(good, ranked=["a", "b", "c", "d"], promoted_count=1)
    assert run.check_rank_answer(request, left_out, expected, run._close_ngram)
    off = dict(good, scores=dict(expected, b=0.06))
    assert run.check_rank_answer(request, off, expected, run._close_ngram)
    assert run.check_rank_answer(request, {"error": "parse"}, expected, run._close_ngram)
