import hashlib
import io
import json
import math
import shutil

import numpy as np
import pytest

from complab import cli, pipeline
from complab.abtest import AbObservation, compare
from complab.cli import _load_config, main
from complab.corpus import save_events
from complab.evalsuite import report_from_ranks
from complab.transformer import load_params
from complab.vocab import build_vocab, load_vocab, save_vocab


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


def _run_with_config(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    rc = main(["--config", str(path), *argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_config_rejects_unknown_key_before_any_work(tmp_path, capsys):
    out = tmp_path / "ws"
    rc, stdout, stderr = _run_with_config(
        tmp_path, capsys, {"sed": 3}, ["datagen", "--out", str(out)]
    )
    assert rc == 1
    assert stderr.startswith("error: ") and "'sed'" in stderr
    assert "Traceback" not in stderr and stdout == ""
    assert not out.exists()


def test_config_rejects_wrong_types(tmp_path, capsys):
    for config in ({"threshold": "x"}, {"seed": "7"}, {"max_promote": 1.5},
                   {"order": True}, {"threshold": None}, {"profile": 3}):
        rc, stdout, stderr = _run_with_config(
            tmp_path, capsys, config, ["serve", "--model", str(tmp_path / "none.json")]
        )
        assert rc == 1, config
        (key,) = config
        assert stderr.startswith("error: config key") and repr(key) in stderr, stderr
        assert "Traceback" not in stderr and stdout == ""


def test_config_accepts_declared_types(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"threshold": 1, "seed": 3, "files": None, "profile": "desk"}),
        encoding="utf-8",
    )
    config = _load_config(str(path))
    assert config == {"threshold": 1.0, "seed": 3, "files": None, "profile": "desk"}
    assert isinstance(config["threshold"], float)


def test_serve_rejects_bad_threshold_and_max_promote_at_startup(tmp_path, capsys):
    model = str(tmp_path / "none.json")
    cases = [
        ({"threshold": 1.5}, []),
        ({"threshold": -0.1}, []),
        ({}, ["--threshold", "2"]),
        ({"max_promote": -1}, []),
        ({}, ["--max-promote", "-2"]),
    ]
    for config, flags in cases:
        rc, stdout, stderr = _run_with_config(
            tmp_path, capsys, config, ["serve", "--model", model, *flags]
        )
        assert rc == 1, (config, flags)
        assert stderr.startswith("error: "), stderr
        assert "threshold" in stderr or "max_promote" in stderr, stderr
        assert "model file not found" not in stderr and stdout == ""


def test_serve_rejects_bad_tcp_port_before_loading_the_model(tmp_path, capsys):
    model = str(tmp_path / "none.json")
    for tcp in ("127.0.0.1:70000", "127.0.0.1:x"):
        rc, stdout, stderr = _run(capsys, ["serve", "--model", model, "--tcp", tcp])
        assert rc == 1 and stdout == "", tcp
        assert stderr.startswith("error: ") and "--tcp" in stderr, stderr
        assert "Traceback" not in stderr and "model file not found" not in stderr


def test_evaluate_rejects_an_unknown_model_kind_before_loading(tmp_path, capsys, monkeypatch):
    def no_load(*args):
        raise AssertionError(f"loaded {args}")

    monkeypatch.setattr(cli, "_load_completer", no_load)
    monkeypatch.setattr(pipeline, "load_split", no_load)
    ws = tmp_path / "ws"
    rc, stdout, stderr = _run(capsys, ["evaluate", "--out", str(ws), "--models", "ngram,bogus",
                                       "--train", "committed", "--eval", "completion"])
    assert rc == 1 and stdout == ""
    assert stderr == "error: unknown model kind: bogus\n"
    assert not (ws / "reports").exists()


def _run(capsys, argv):
    capsys.readouterr()
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


ANALYZE_CSVS = ("fig4_accuracy_by_length.csv", "fig5_length_cdf.csv",
                "fig6_accuracy_by_oov.csv", "kind_distribution.csv", "oov_rates.csv")


def test_ngram_path_end_to_end(tmp_path, monkeypatch, capsys):
    ws = tmp_path / "ws"
    out = ["--out", str(ws)]
    trains = "committed,completion,union"
    steps = [
        ["datagen", *out, "--files", "8", "--tokens-per-file", "300",
         "--event-rate", "0.2", "--with-edit"],
        ["train-vocab", *out, "--train", trains],
        ["train-ngram", *out, "--train", trains],
        ["evaluate", *out, "--models", "ngram", "--train", trains,
         "--eval", "committed,completion,edit", "--n-examples", "30"],
    ]
    for argv in steps:
        rc, _, err = _run(capsys, argv)
        assert rc == 0, (argv, err)

    def no_model(path):
        raise AssertionError(f"analyze loaded {path}")

    # analyze tabulates evaluate's ranks and loads no model.
    with monkeypatch.context() as patch:
        patch.setattr("complab.cli._load_completer", no_model)
        rc, _, err = _run(capsys, ["analyze", *out, "--train", trains, "--eval", "completion",
                                   "--n-examples", "30"])
    assert rc == 0, err

    for name in trains.split(","):
        model_dir = ws / "models" / name
        assert (model_dir / "vocab.tsv").exists() and (model_dir / "ngram.json").exists()
        for command in ("train-vocab", "train-ngram"):
            manifest = json.loads((model_dir / f"{command}.manifest.json").read_text())
            assert manifest["command"] == command and manifest["params"]["train"] == name
        assert manifest["params"]["window"] == 100  # train-ngram's
    for command in ("evaluate", "analyze"):
        manifest = json.loads((ws / "reports" / f"{command}.manifest.json").read_text())
        assert manifest["command"] == command and manifest["params"]["n_examples"] == 30
    assert not (ws / "corpora").exists()
    report = json.loads((ws / "reports" / "eval.json").read_text())
    assert [(c["train"], c["eval"]) for c in report["cells"]] == [
        (t, e) for t in trains.split(",") for e in ("committed", "completion", "edit")
    ]
    assert all(c["n"] > 0 and 0.0 <= c["top1"] <= c["mrr"] <= 1.0 for c in report["cells"])
    csv_lines = (ws / "reports" / "eval.csv").read_text().splitlines()
    assert csv_lines[0] == "model,train,eval,top1,mrr,n" and len(csv_lines) == 10
    oov = (ws / "reports" / "oov_rates.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in oov[1:]] == trains.split(",")

    # ranks.jsonl holds each cell's examples in scoring order, from test
    # records of the eval corpus, and gives the cell's metrics exactly.
    rows = [json.loads(line) for line in (ws / "reports" / "ranks.jsonl").read_text().splitlines()]
    assert all(list(row) == ["eval", "file_id", "model", "rank", "target", "train"]
               for row in rows)
    cell_keys = [(c["model"], c["train"], c["eval"]) for c in report["cells"]]
    assert list(dict.fromkeys((r["model"], r["train"], r["eval"]) for r in rows)) == cell_keys
    test_ids = {
        name: {record.file_id for record in pipeline.load_split(ws, name, 7).test}
        for name in ("committed", "completion", "edit")
    }
    assert all(row["file_id"] in test_ids[row["eval"]] for row in rows)
    for cell in report["cells"]:
        ranks = [row["rank"] for row in rows
                 if (row["model"], row["train"], row["eval"])
                 == (cell["model"], cell["train"], cell["eval"])]
        metrics = report_from_ranks(ranks, cutoff=report["cutoff"])
        assert (metrics.top1, metrics.mrr, metrics.n) == (cell["top1"], cell["mrr"], cell["n"])
    assert len(rows) == sum(cell["n"] for cell in report["cells"])

    vocab = load_vocab(ws / "models" / "union" / "vocab.tsv")
    words = [vocab.text(i) for i in range(2, 6)]
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"request_id": "r", "context": words[:2], "candidates": words[2:]}) + "\n"
    ))
    rc, stdout, _ = _run(capsys, ["serve", "--model", str(ws / "models" / "union" / "ngram.json")])
    assert rc == 0
    (line,) = stdout.splitlines()
    answer = json.loads(line)
    assert answer["request_id"] == "r" and sorted(answer["ranked"]) == sorted(words[2:])

    # Byte-identical outputs. A change that alters any of these files on
    # purpose updates the digest and says why.
    digests = {
        "ngram.json": (ws / "models" / "union" / "ngram.json").read_bytes(),
        "eval.json": (ws / "reports" / "eval.json").read_bytes(),
        "served line": line.encode(),
        **{name: (ws / "reports" / name).read_bytes() for name in ANALYZE_CSVS},
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in digests.items()} == {
        "ngram.json": "184cf4e210ad5e2839d759ea8e2a2905992895ca541cb85fb01d06701a6e2f23",
        "eval.json": "deffbb71f584af26e40bd2140b479ebb48859c9486509306048ee2fe6438d9d2",
        "served line": "eec14d13b2891828c31e968f9ad81df6ffb82bb438538d296df91e5ae737ef81",
        "fig4_accuracy_by_length.csv":
            "c50e58bcd5cdfa0a5d7dea057c2f3513c215a73188171e681c59843433504e7f",
        "fig5_length_cdf.csv": "e4d0e9ade7d0e8699b349de877c2df0bea98aa244c6b3d60e849a525f91ef5e7",
        "fig6_accuracy_by_oov.csv":
            "8dda22e55f3fa51cccfa6c63e7b7b8373827d9e0d6d14b9dbd2cbc4669610cee",
        "kind_distribution.csv":
            "e8f7e7557697e8ad15610b1dce5e18580cfed4871cf46de172e68ebc3241a887",
        "oov_rates.csv": "1b1e1f531d9414370e75cb96fceec5add5e069df50236fe57b3ffd107d1ebb67",
    }


def test_datagen_rejects_sizes_below_one_before_writing(tmp_path, capsys):
    out = tmp_path / "ws"
    cases = [
        ({}, ["--files", "0"]),
        ({}, ["--tokens-per-file", "0"]),
        ({"files": -1}, []),
        ({"tokens_per_file": 0}, []),
    ]
    for config, flags in cases:
        rc, stdout, stderr = _run_with_config(
            tmp_path, capsys, config, ["datagen", "--out", str(out), *flags]
        )
        assert rc == 1 and stdout == "", (config, flags)
        assert stderr.startswith("error: ") and "must be >= 1" in stderr, stderr
        assert not out.exists()


def _bad_ngram_version(ws):
    path = ws / "ngram.json"
    path.write_text(json.dumps({"version": 1}), encoding="utf-8")
    return ["serve", "--model", str(path)]


def _bad_ngram_list(ws):
    path = ws / "ngram.json"
    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    return ["serve", "--model", str(path)]


def _npz(ws, data):
    save_vocab(build_vocab([["a", "b"]], max_size=10), ws / "vocab.tsv")
    path = ws / "transformer.npz"
    path.write_bytes(data)
    return ["serve", "--model", str(path)]


def _npz_without_header(ws):
    buffer = io.BytesIO()
    np.savez(buffer, w=np.zeros(2))
    return _npz(ws, buffer.getvalue())


def _npz_truncated(ws):
    buffer = io.BytesIO()
    np.savez(buffer, w=np.zeros(64))
    return _npz(ws, buffer.getvalue()[:100])


def _event_without_context(ws):
    root = ws / "data" / "completion"
    root.mkdir(parents=True)
    record = {"accepted": "x", "developer_id": "d", "timestamp": 0.0, "file_id": "f"}
    (root / "events.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ["train-vocab", "--out", str(ws), "--train", "completion"]


def _event_context_not_text(ws):
    root = ws / "data" / "completion"
    root.mkdir(parents=True)
    record = {"context": ["x", 5], "accepted": "y", "developer_id": "d", "timestamp": 0.0,
              "file_id": "f"}
    (root / "events.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ["train-vocab", "--out", str(ws), "--train", "completion"]


def _manifest_entry_without_path(ws):
    root = ws / "data" / "committed"
    root.mkdir(parents=True)
    (root / "manifest.jsonl").write_text(json.dumps({"file_id": "a"}) + "\n", encoding="utf-8")
    return ["train-vocab", "--out", str(ws), "--train", "committed"]


def _vocab(ws, lines):
    """Only models/committed/vocab.tsv: the vocabulary loads before any corpus."""
    path = pipeline.models_dir(ws, "committed") / "vocab.tsv"
    path.parent.mkdir(parents=True)
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return ["train-ngram", "--out", str(ws), "--train", "committed"]


def _vocab_gap(ws):
    return _vocab(ws, ["<unk>\t0", "<pad>\t1", ";\t99999"])


def _vocab_no_tab(ws):
    return _vocab(ws, ["<unk>\t0", "<pad>\t1", "foo"])


def _vocab_repeated_text(ws):
    return _vocab(ws, ["<unk>\t0", "<pad>\t1", "a\t2", "a\t3"])


@pytest.mark.parametrize(
    "make, where",
    [
        (_bad_ngram_version, "ngram.json: "),
        (_bad_ngram_list, "ngram.json: "),
        (_npz_without_header, "transformer.npz: "),
        (_npz_truncated, "transformer.npz: "),
        (_event_without_context, "events.jsonl:1: "),
        (_event_context_not_text, "events.jsonl:1: "),
        (_manifest_entry_without_path, "manifest.jsonl:1: "),
        (_vocab_gap, "vocab.tsv: "),
        (_vocab_no_tab, "vocab.tsv:3: "),
        (_vocab_repeated_text, "vocab.tsv:4: "),
    ],
    ids=["ngram-no-vocab", "ngram-list", "npz-no-header", "npz-truncated", "event-no-context",
         "event-context-not-text", "manifest-no-path", "vocab-gap", "vocab-no-tab",
         "vocab-repeated-text"],
)
def test_malformed_model_and_event_files_get_an_error(tmp_path, capsys, make, where):
    rc, stdout, stderr = _run(capsys, make(tmp_path))
    assert rc == 1 and stdout == ""
    assert stderr.startswith("error: ") and where in stderr, stderr
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def evaluated_workspace(tmp_path_factory):
    """A workspace where evaluate has ranked 10 committed examples."""
    ws = tmp_path_factory.mktemp("evaluated") / "ws"
    out = ["--out", str(ws)]
    for argv in (
        ["datagen", *out, "--files", "8", "--tokens-per-file", "300"],
        ["train-vocab", *out, "--train", "committed"],
        ["train-ngram", *out, "--train", "committed"],
        ["evaluate", *out, "--models", "ngram", "--train", "committed",
         "--eval", "committed", "--n-examples", "10"],
    ):
        assert main(argv) == 0, argv
    return ws


def _no_ranks(ws):
    (ws / "reports" / "ranks.jsonl").unlink()


def _ranks_of_other_examples(ws):
    assert main(["evaluate", "--out", str(ws), "--models", "ngram", "--train", "committed",
                 "--eval", "committed", "--n-examples", "5"]) == 0


def _truncated_rank_line(ws):
    path = ws / "reports" / "ranks.jsonl"
    first, second = path.read_text(encoding="utf-8").splitlines()[:2]
    path.write_text(f"{first}\n{second[:len(second) // 2]}\n", encoding="utf-8")


def _rank_row_without_rank(ws):
    path = ws / "reports" / "ranks.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(first)
    del row["rank"]
    path.write_text("\n".join([json.dumps(row), *rest]) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "damage, where",
    [
        (_no_ranks, "ranks.jsonl "),
        (_ranks_of_other_examples, "ranks.jsonl: "),
        (_truncated_rank_line, "ranks.jsonl:2: "),
        (_rank_row_without_rank, "ranks.jsonl:1: "),
    ],
    ids=["missing", "other-n-examples", "truncated-line", "row-without-rank"],
)
def test_analyze_rejects_missing_or_mismatched_ranks(
    evaluated_workspace, tmp_path, capsys, damage, where
):
    ws = tmp_path / "ws"
    shutil.copytree(evaluated_workspace, ws)
    damage(ws)
    rc, stdout, stderr = _run(capsys, ["analyze", "--out", str(ws), "--train", "committed",
                                       "--eval", "committed", "--n-examples", "10"])
    assert rc == 1 and stdout == ""
    assert stderr.startswith("error: ") and where in stderr, stderr
    assert "Traceback" not in stderr
    assert not any((ws / "reports" / name).exists() for name in ANALYZE_CSVS)


def test_serve_and_evaluate_report_missing_models_alike(tmp_path, capsys):
    ws = tmp_path / "ws"
    out = ["--out", str(ws)]
    assert main(["datagen", *out, "--files", "4", "--tokens-per-file", "200"]) == 0
    lonely = ws / "models" / "lonely"
    lonely.mkdir(parents=True)
    (lonely / "transformer.npz").write_bytes(b"not read")
    cases = [
        ("ngram", "committed", ws / "models" / "committed" / "ngram.json",
         "model file not found: "),
        ("transformer", "lonely", lonely / "transformer.npz",
         "vocabulary not found next to model: "),
    ]
    for kind, train, path, message in cases:
        rc, stdout, eval_err = _run(capsys, ["evaluate", *out, "--models", kind,
                                             "--train", train, "--eval", "committed"])
        assert rc == 1 and stdout == ""
        rc, stdout, serve_err = _run(capsys, ["serve", "--model", str(path)])
        assert rc == 1 and stdout == ""
        assert eval_err == serve_err
        assert eval_err.startswith("error: " + message) and "Traceback" not in eval_err


def test_completion_events_without_valid_or_test_get_an_error(tmp_path, capsys, caplog):
    """The completion corpus is studied through its events only: when they
    leave the valid and test splits empty, training and evaluation stop
    with an error rather than fall back to its files."""
    ws = tmp_path / "ws"
    out = ["--out", str(ws)]
    assert main(["datagen", *out, "--files", "4", "--tokens-per-file", "300"]) == 0
    events_path = ws / "data" / "completion" / "events.jsonl"
    train_events = pipeline.load_split(ws, "completion", 7).train
    save_events(train_events[:3], events_path)
    assert main(["train-vocab", *out, "--train", "completion"]) == 0
    assert main(["train-ngram", *out, "--train", "completion"]) == 0
    for argv, message in (
        (["evaluate", *out, "--models", "ngram", "--train", "completion",
          "--eval", "completion"], "metrics undefined for zero examples"),
        (["train-transformer", *out, "--train", "completion", "--epochs", "1"],
         "train and valid splits must be non-empty"),
    ):
        rc, _, err = _run(capsys, argv)
        assert rc == 1 and err == f"error: {message}\n", (argv, err)
    # No file sampling was attempted for the empty test split.
    assert "identifier targets" not in caplog.text


def test_removed_window_key_and_build_corpus_command(tmp_path, capsys):
    out = tmp_path / "ws"
    for key, value in (("window", 50), ("bpe_vocab_size", 300)):
        rc, stdout, stderr = _run_with_config(
            tmp_path, capsys, {key: value}, ["datagen", "--out", str(out)]
        )
        assert rc == 1 and stdout == ""
        assert stderr == f"error: unknown config key {key!r}\n"
        assert not out.exists()
    for command in ("build-corpus", "train-bpe"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out)])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
