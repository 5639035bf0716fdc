import io
import json

import numpy as np
import pytest

from complab.completer import Completer, top_ids
from complab.ranker import AcceptanceLog, serve_stream
from complab.vocab import PAD, UNK, Vocabulary

VOCAB = Vocabulary(
    id_of={UNK: 0, PAD: 1, "zip": 2, "map": 3, "apply": 4, "filter": 5},
    max_size=10,
)
PROBS = [0.0, 0.0, 0.2, 0.4, 0.2, 0.2]


class CountingCompleter(Completer):
    """Fixed distribution; counts the calls to it."""

    def __init__(self):
        self.vocab = VOCAB
        self.calls = 0

    def distribution(self, context_texts):
        self.calls += 1
        return np.array(PROBS)


def test_top_ids_breaks_ties_by_text():
    probs = np.array(PROBS)
    top = top_ids(probs, VOCAB, 3)
    # "map" first; the three 0.2 ties in text order: apply, filter, zip.
    assert [VOCAB.text(i) for i, _ in top] == ["map", "apply", "filter"]
    assert [p for _, p in top] == [0.4, 0.2, 0.2]
    with pytest.raises(ValueError):
        top_ids(np.array(PROBS), VOCAB, 0)


def test_scores_read_one_distribution():
    completer = CountingCompleter()
    scores = completer.scores(["x"], ["zip", "never-seen", UNK, PAD, "map"])
    assert scores == [0.2, 0.0, 0.0, 0.0, 0.4]
    assert completer.calls == 1
    assert completer.prob(["x"], "map") == 0.4
    assert completer.calls == 2


def test_scores_without_a_vocabulary_candidate_run_no_model():
    completer = CountingCompleter()
    assert completer.scores([], ["never-seen", UNK, PAD]) == [0.0, 0.0, 0.0]
    assert completer.prob([], "never-seen") == 0.0
    assert completer.calls == 0


def test_serve_stream_runs_one_distribution_per_rank_request(tmp_path):
    completer = CountingCompleter()
    lines = []
    for n in range(4):
        lines.append(
            {"request_id": f"r{n}", "context": ["x"], "candidates": ["zip", "map", "apply"]}
        )
        lines.append({"request_id": f"r{n}", "developer_id": "d", "accepted": "map"})
    reader = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    writer = io.StringIO()
    log = AcceptanceLog(tmp_path / "accept.jsonl")
    assert serve_stream(completer.scores, reader, writer, acceptance_log=log) == 8
    answers = [json.loads(line) for line in writer.getvalue().splitlines()]
    assert completer.calls == 4
    for answer in answers[0::2]:
        assert answer["scores"] == {"zip": 0.2, "map": 0.4, "apply": 0.2}
        assert answer["ranked"] == ["map", "apply", "zip"]
    assert all(answer == {"logged": True} for answer in answers[1::2])
