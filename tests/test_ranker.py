import io
import json
import random
import socket
import threading

import pytest
from hypothesis import given, strategies as st

from complab.ranker import (
    AcceptanceLog,
    ProtocolError,
    log_acceptance,
    rank,
    serve_stream,
    serve_tcp,
)


def _score_from(table):
    return lambda context, candidates: [table.get(c, 0.0) for c in candidates]


def test_promotion_rule_example():
    response = rank(
        ["apply", "map", "zip"],
        [],
        _score_from({"map": 0.6, "zip": 0.15, "apply": 0.05}),
        threshold=0.1,
    )
    assert list(response.ranked) == ["map", "zip", "apply"]
    assert response.promoted_count == 2


def test_all_below_threshold_alphabetical():
    response = rank(
        ["zeta", "alpha", "mid"],
        [],
        _score_from({"zeta": 0.05, "alpha": 0.01, "mid": 0.1}),  # 0.1 not > 0.1
        threshold=0.1,
    )
    assert list(response.ranked) == ["alpha", "mid", "zeta"]
    assert response.promoted_count == 0


def test_promotion_capped_at_three():
    candidates = [f"c{i}" for i in range(5)]
    response = rank(candidates, [], _score_from(dict.fromkeys(candidates, 0.9)))
    assert response.promoted_count == 3
    # All scores equal: promoted block is lexicographic, tail alphabetical.
    assert list(response.ranked) == ["c0", "c1", "c2", "c3", "c4"]


def test_oov_candidate_scores_zero():
    response = rank(["known", "unknown"], [], _score_from({"known": 0.5}))
    assert response.scores["unknown"] == 0.0
    assert list(response.ranked) == ["known", "unknown"]


def test_empty_and_duplicate_candidates_rejected():
    with pytest.raises(ProtocolError):
        rank([], [], _score_from({}))
    with pytest.raises(ProtocolError):
        rank(["a", "a"], [], _score_from({}))


def test_rank_deterministic():
    table = {"a": 0.4, "b": 0.4, "c": 0.2}
    first = rank(["c", "b", "a"], [], _score_from(table))
    second = rank(["c", "b", "a"], [], _score_from(table))
    assert first == second
    assert list(first.ranked)[:2] == ["a", "b"]  # tie broken lexicographically


def _random_instance(rng):
    n = rng.randint(1, 12)
    candidates = rng.sample(
        [f"cand{chr(97 + i)}{i}" for i in range(30)], n
    )
    scores = {c: rng.random() for c in candidates}
    return candidates, scores


def test_structural_invariants_random_instances():
    rng = random.Random(4242)
    for _ in range(10_000):
        candidates, scores = _random_instance(rng)
        response = rank(candidates, [], _score_from(scores), threshold=0.1)
        promoted = list(response.ranked)[: response.promoted_count]
        tail = list(response.ranked)[response.promoted_count :]
        assert response.promoted_count <= 3
        assert all(scores[c] > 0.1 for c in promoted)
        assert all(
            scores[promoted[i]] >= scores[promoted[i + 1]]
            for i in range(len(promoted) - 1)
        )
        assert tail == sorted(tail)
        assert sorted(response.ranked) == sorted(candidates)


@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=10,
    )
)
def test_structural_invariants_property(scores):
    candidates = list(scores)
    response = rank(candidates, [], _score_from(scores))
    promoted = list(response.ranked)[: response.promoted_count]
    tail = list(response.ranked)[response.promoted_count :]
    assert response.promoted_count <= 3
    assert all(scores[c] > 0.1 for c in promoted)
    assert tail == sorted(tail)


def _serve_lines(lines, score_fn=None, log=None):
    reader = io.StringIO("\n".join(lines) + "\n")
    writer = io.StringIO()
    serve_stream(
        score_fn or _score_from({"map": 0.6}),
        reader,
        writer,
        acceptance_log=log,
    )
    return [json.loads(l) for l in writer.getvalue().strip().splitlines()]


def test_serve_echoes_request_id():
    request = {
        "request_id": "r-1",
        "developer_id": "dev",
        "context": ["$x", "="],
        "candidates": ["map", "zip"],
    }
    (response,) = _serve_lines([json.dumps(request)])
    assert response["request_id"] == "r-1"
    assert response["ranked"][0] == "map"
    assert response["promoted_count"] == 1
    assert set(response["scores"]) == {"map", "zip"}


def test_serve_malformed_line_keeps_going():
    request = {"request_id": "r-2", "candidates": ["map"]}
    out = _serve_lines(["{not json", json.dumps(request)])
    assert out[0] == {"error": "parse", "line": 1}
    assert out[1]["request_id"] == "r-2"


def test_serve_missing_fields_protocol_error():
    out = _serve_lines([json.dumps({"request_id": "x"})])
    assert out[0]["error"] == "protocol"


def test_serve_empty_candidates_protocol_error():
    out = _serve_lines([json.dumps({"request_id": "x", "candidates": []})])
    assert out[0]["error"] == "protocol"
    assert out[0]["request_id"] == "x"


@pytest.mark.parametrize(
    "bad",
    [
        {"candidates": "abc"},  # a string, not split into characters
        {"candidates": [1, "a"]},  # a non-string candidate
        {"candidates": ["a", "a"]},  # a repeated candidate
        {"candidates": ["map"], "context": "x ="},
        {"candidates": ["map"], "context": ["x", 2]},
    ],
    ids=[
        "string-candidates",
        "int-candidate",
        "repeated-candidate",
        "string-context",
        "int-in-context",
    ],
)
def test_serve_rejects_malformed_request_and_keeps_going(bad):
    valid = {"request_id": "ok", "context": ["x"], "candidates": ["map", "zip"]}
    out = _serve_lines([json.dumps({"request_id": "bad"} | bad), json.dumps(valid)])
    assert len(out) == 2
    assert out[0]["error"] == "protocol"
    assert out[0]["request_id"] == "bad"
    assert out[1]["request_id"] == "ok"
    assert out[1]["ranked"] == ["map", "zip"]


def test_serve_many_requests_in_order():
    requests = [
        json.dumps({"request_id": f"r{i}", "candidates": ["map", "zip"]})
        for i in range(1000)
    ]
    out = _serve_lines(requests)
    assert len(out) == 1000
    assert [r["request_id"] for r in out] == [f"r{i}" for i in range(1000)]


def test_acceptance_log_append_and_replay(tmp_path):
    from complab.corpus import events_to_examples, load_events

    path = tmp_path / "accepts.jsonl"
    sink = AcceptanceLog(path)
    record = {
        "developer_id": "d1",
        "timestamp": 1000.0,
        "file_id": "f1",
        "context": ["$x", "="],
        "accepted": "foo",
        "accepted_kind": "identifier",
    }
    log_acceptance(sink, record, group="experiment")
    log_acceptance(sink, record | {"accepted": "bar"}, group="control")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["group"] == "experiment"
    events = load_events(path)
    examples, skipped = events_to_examples(events)
    assert [e.target.text for e in examples] == ["foo", "bar"]
    assert skipped == 0


def test_acceptance_log_concurrent_appends(tmp_path):
    path = tmp_path / "accepts.jsonl"
    sink = AcceptanceLog(path)

    def worker(i):
        for j in range(50):
            sink.append({"developer_id": f"d{i}", "timestamp": float(j), "n": j})

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 400
    for line in lines:
        json.loads(line)  # no interleaved partial lines


def test_serve_accept_line_logs(tmp_path):
    path = tmp_path / "log.jsonl"
    sink = AcceptanceLog(path)
    record = {
        "developer_id": "d1",
        "timestamp": 5.0,
        "file_id": "f",
        "context": ["$x"],
        "accepted": "foo",
        "accepted_kind": "identifier",
        "group": "experiment",
    }
    out = _serve_lines([json.dumps(record)], log=sink)
    assert out[0] == {"logged": True}
    assert json.loads(path.read_text())["group"] == "experiment"


def test_tcp_round_trip():
    server = serve_tcp(_score_from({"map": 0.9}), port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection((host, port), timeout=5) as conn:
            fp = conn.makefile("rw", encoding="utf-8")
            for i in range(3):
                fp.write(
                    json.dumps(
                        {"request_id": f"t{i}", "candidates": ["map", "apply"]}
                    )
                    + "\n"
                )
                fp.flush()
                response = json.loads(fp.readline())
                assert response["request_id"] == f"t{i}"
                assert response["ranked"][0] == "map"
            # A blank line is skipped but still counted.
            fp.write("\nnot json\n")
            fp.flush()
            assert json.loads(fp.readline()) == {"error": "parse", "line": 5}
            # Bytes that are not UTF-8 are a parse error, not a dropped
            # connection: the request after them is still answered.
            conn.sendall(b"\xff\xfe\n")
            assert json.loads(fp.readline()) == {"error": "parse", "line": 6}
            fp.write(json.dumps({"request_id": "t6", "candidates": ["map"]}) + "\n")
            fp.flush()
            assert json.loads(fp.readline())["request_id"] == "t6"
    finally:
        server.shutdown()
        server.server_close()
