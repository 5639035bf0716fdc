import io
import json
import math

import numpy as np

from complab.abtest import AbObservation, compare
from complab.cli import main
from complab.transformer import load_params
from complab.vocab import load_vocab


DAY = 86400.0 * 18000
COUNTS = {
    ("control", "c0"): 10,
    ("control", "c1"): 12,
    ("control", "c2"): 11,
    ("exp", "e0"): 12,
    ("exp", "e1"): 14,
    ("exp", "e2"): 15,
}


def _acceptance_lines():
    return [
        json.dumps({"developer_id": dev, "timestamp": DAY + i, "group": group})
        for (group, dev), n in COUNTS.items()
        for i in range(n)
    ]


def test_abtest_writes_json_and_csv(tmp_path):
    log_path = tmp_path / "accept.jsonl"
    log_path.write_text("\n".join(_acceptance_lines()) + "\n", encoding="utf-8")
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"

    rc = main(
        [
            "abtest",
            "--log", str(log_path),
            "--control", "control",
            "--experiment", "exp",
            "--json", str(out_json),
            "--csv", str(out_csv),
        ]
    )

    assert rc == 0
    by_group = {"control": [], "exp": []}
    for (group, dev), n in COUNTS.items():
        by_group[group].append(
            AbObservation(developer_id=dev, day="2019-04-14", accept_count=n, group=group)
        )
    expected = compare(by_group["control"], by_group["exp"]).to_dict()
    assert json.loads(out_json.read_text()) == {"exp": expected}
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("group,observations,mean")
    assert [line.split(",")[0] for line in lines[1:]] == ["control", "exp"]


def test_abtest_skips_malformed_lines(tmp_path, capsys):
    lines = _acceptance_lines()
    reports = {}
    for name, extra in (("clean", []), ("dirty", ["not json", "[1, 2]", '"text"'])):
        log_path = tmp_path / f"{name}.jsonl"
        log_path.write_text(
            "\n".join(lines[:5] + extra + lines[5:]) + "\n", encoding="utf-8"
        )
        out_json = tmp_path / f"{name}.report.json"
        rc = main(
            [
                "abtest",
                "--log", str(log_path),
                "--control", "control",
                "--experiment", "exp",
                "--json", str(out_json),
            ]
        )
        assert rc == 0
        reports[name] = json.loads(out_json.read_text())
        if extra:
            assert "skipped 3 malformed records" in capsys.readouterr().err
    assert reports["dirty"] == reports["clean"]


def test_transformer_path_end_to_end(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "ws")
    assert main(["datagen", "--out", out, "--files", "6", "--tokens-per-file", "300"]) == 0
    assert main(["train-vocab", "--out", out, "--train", "completion"]) == 0
    assert main(
        [
            "train-transformer", "--out", out, "--train", "completion",
            "--profile", "test", "--budget-tokens", "2000", "--epochs", "2",
        ]
    ) == 0
    model_dir = tmp_path / "ws" / "models" / "completion"
    log = json.loads((model_dir / "trainlog.json").read_text())
    assert len(log["train_losses"]) == len(log["valid_losses"]) == log["stopped_epoch"]
    assert all(math.isfinite(x) for x in log["train_losses"] + log["valid_losses"])
    params, config = load_params(model_dir / "transformer.npz")
    vocab = load_vocab(model_dir / "vocab.tsv")
    assert config.vocab_size == len(vocab)
    assert all(np.isfinite(p.data).all() for p in params.values())

    words = [vocab.text(i) for i in range(2, 5)]
    requests = [
        {"request_id": "ok", "context": words[:1], "candidates": words[1:]},
        {"request_id": "empty", "context": [], "candidates": words[1:]},
    ]
    capsys.readouterr()
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["serve", "--model", str(model_dir / "transformer.npz")]) == 0
    ok, empty = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert ok["request_id"] == "ok"
    assert sorted(ok["ranked"]) == sorted(words[1:])
    assert empty["error"] == "model"
    assert empty["request_id"] == "empty"
