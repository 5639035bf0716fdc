"""Command-line entry point orchestrating the full pipeline:

    datagen -> train-vocab -> train-ngram / train-transformer ->
    evaluate -> analyze -> serve / abtest

All artifacts land under a single --out workspace. Every command writes a
<command>.manifest.json recording the resolved parameters, their hash, and
the seed, so identical invocations produce byte-identical artifacts.

Only `evaluate` ranks examples. It writes each example's rank to
reports/ranks.jsonl, and `analyze` tabulates those ranks into the drift
tables without loading a model.

Configuration comes from an optional JSON file (--config); command-line
flags win over config values, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import abtest as abtest_mod
from . import analysis, datagen, pipeline, ranker
from . import ngram as ngram_mod
from . import transformer as tf_mod
from .corpus import WINDOW, read_jsonl, save_events, save_file_corpus
from .evalsuite import evaluate
from .vocab import build_vocab, load_vocab, save_vocab

# Every key a --config file may set: its type and built-in default (None:
# unset unless given).
CONFIG_KEYS: dict[str, tuple[type, object]] = {
    "seed": (int, 7),
    "files": (int, None),
    "tokens_per_file": (int, None),
    "event_rate": (float, None),
    "max_size": (int, 100_000),
    "order": (int, 4),
    "profile": (str, "test"),
    "n_examples": (int, 1000),
    "cutoff": (int, 10),
    "threshold": (float, ranker.DEFAULT_THRESHOLD),
    "max_promote": (int, ranker.DEFAULT_MAX_PROMOTE),
    "budget_tokens": (int, None),
    "epochs": (int, None),
}
DEFAULTS = {key: default for key, (_, default) in CONFIG_KEYS.items()}


class CliError(RuntimeError):
    pass


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    with open(p, encoding="utf-8") as fp:
        config = json.load(fp)
    if not isinstance(config, dict):
        raise CliError("config file must contain a JSON object")
    checked = {}
    for key, value in config.items():
        if key not in CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
        kind, default = CONFIG_KEYS[key]
        # JSON has no int/float split; a bool is never a number here.
        accepted = (int, float) if kind is float else kind
        if value is None and default is None:
            checked[key] = None
        elif isinstance(value, accepted) and not isinstance(value, bool):
            checked[key] = kind(value)
        else:
            raise CliError(
                f"config key {key!r} must be of type {kind.__name__}, got {value!r}"
            )
    return checked


def _resolve(args: argparse.Namespace, config: dict, key: str):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return DEFAULTS.get(key)


def _write_manifest(directory: Path, command: str, params: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    canonical = json.dumps(params, sort_keys=True)
    payload = {
        "command": command,
        "params": params,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": params.get("seed"),
    }
    with open(directory / f"{command}.manifest.json", "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2)
        fp.write("\n")


def _corpus_list(raw: str) -> list[str]:
    return [c.strip() for c in raw.split(",") if c.strip()]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_datagen(args, config) -> int:
    out = Path(args.out)
    seed = _resolve(args, config, "seed")
    files = _resolve(args, config, "files")
    tokens_per_file = _resolve(args, config, "tokens_per_file")
    event_rate = _resolve(args, config, "event_rate")
    for key, value in (("files", files), ("tokens_per_file", tokens_per_file)):
        if value is not None and value < 1:
            raise CliError(f"{key} must be >= 1, got {value}")
    committed, completion = datagen.default_profiles()
    profiles = [committed, completion]
    if args.with_edit:
        profiles.append(datagen.edit_profile())
    params = {
        "seed": seed,
        "files": files,
        "tokens_per_file": tokens_per_file,
        "event_rate": event_rate,
        "profiles": [p.name for p in profiles],
    }
    for profile in profiles:
        if files or tokens_per_file:
            profile = dataclasses.replace(
                profile,
                files=files or profile.files,
                tokens_per_file=tokens_per_file or profile.tokens_per_file,
            )
        records, events = datagen.generate(profile, seed, event_rate=event_rate)
        root = pipeline.data_dir(out, profile.name)
        root.mkdir(parents=True, exist_ok=True)
        save_file_corpus(records, root)
        if events:
            save_events(events, root / "events.jsonl")
        print(f"datagen: {profile.name}: {len(records)} files, {len(events)} events")
    _write_manifest(out / "data", "datagen", params)
    return 0


def _training_streams(out: Path, train_name: str, seed: int):
    return pipeline.training_streams(pipeline.training_splits(out, train_name, seed))


def cmd_train_vocab(args, config) -> int:
    out = Path(args.out)
    seed = _resolve(args, config, "seed")
    max_size = _resolve(args, config, "max_size")
    for train_name in _corpus_list(args.train):
        vocab = build_vocab(_training_streams(out, train_name, seed), max_size)
        model_dir = pipeline.models_dir(out, train_name)
        model_dir.mkdir(parents=True, exist_ok=True)
        save_vocab(vocab, model_dir / "vocab.tsv")
        print(f"train-vocab: {train_name}: {len(vocab)} entries")
        _write_manifest(
            model_dir,
            "train-vocab",
            {"train": train_name, "seed": seed, "max_size": max_size},
        )
    return 0


def _load_train_vocab(out: Path, train_name: str):
    path = pipeline.models_dir(out, train_name) / "vocab.tsv"
    if not path.exists():
        raise CliError(f"vocabulary not found: {path} (run train-vocab first)")
    return load_vocab(path)


def cmd_train_ngram(args, config) -> int:
    out = Path(args.out)
    seed = _resolve(args, config, "seed")
    order = _resolve(args, config, "order")
    budget = _resolve(args, config, "budget_tokens")
    for train_name in _corpus_list(args.train):
        vocab = _load_train_vocab(out, train_name)
        windows = pipeline.encode_windows(_training_streams(out, train_name, seed), vocab)
        if budget:
            windows = pipeline.trim_to_budget(windows, budget)
        model = ngram_mod.train_ngram(windows, order, vocab)
        model_dir = pipeline.models_dir(out, train_name)
        ngram_mod.save_ngram(model, model_dir / "ngram.json")
        print(
            f"train-ngram: {train_name}: order {order}, "
            f"{pipeline.non_pad_tokens(windows)} tokens"
        )
        _write_manifest(
            model_dir,
            "train-ngram",
            {
                "train": train_name,
                "seed": seed,
                "order": order,
                "window": WINDOW,
                "budget_tokens": budget,
            },
        )
    return 0


def _transformer_config(profile: str, vocab_size: int, seed: int, epochs):
    if profile == "desk":
        config = tf_mod.TransformerConfig(
            vocab_size=vocab_size,
            context_len=WINDOW,
            dropout=0.1,
            seed=seed,
            max_epochs=epochs or tf_mod.MAX_EPOCHS,
        )
    elif profile == "test":
        config = tf_mod.small_config(
            vocab_size=vocab_size,
            context_len=WINDOW,
            seed=seed,
            max_epochs=epochs or tf_mod.MAX_EPOCHS,
        )
    else:
        raise CliError(f"unknown transformer profile: {profile}")
    return config


def cmd_train_transformer(args, config) -> int:
    out = Path(args.out)
    seed = _resolve(args, config, "seed")
    profile = _resolve(args, config, "profile")
    budget = _resolve(args, config, "budget_tokens")
    epochs = _resolve(args, config, "epochs")
    for train_name in _corpus_list(args.train):
        vocab = _load_train_vocab(out, train_name)
        splits = pipeline.training_splits(out, train_name, seed)
        train_windows = pipeline.encode_windows(pipeline.training_streams(splits), vocab)
        valid_windows = pipeline.encode_windows(
            pipeline.training_streams(splits, "valid"), vocab
        )
        if budget:
            train_windows = pipeline.trim_to_budget(train_windows, budget)
            valid_windows = pipeline.trim_to_budget(valid_windows, max(budget // 8, WINDOW))
        tf_config = _transformer_config(profile, len(vocab), seed, epochs)
        params, log = tf_mod.train(tf_config, train_windows, valid_windows)
        model_dir = pipeline.models_dir(out, train_name)
        tf_mod.save_params(params, tf_config, model_dir / "transformer.npz")
        (model_dir / "trainlog.json").write_text(log.to_json() + "\n", encoding="utf-8")
        print(
            f"train-transformer: {train_name}: stopped epoch {log.stopped_epoch}, "
            f"best epoch {log.best_epoch}, valid {log.valid_losses[log.best_epoch - 1]:.4f}"
        )
        _write_manifest(
            model_dir,
            "train-transformer",
            {
                "train": train_name,
                "seed": seed,
                "profile": profile,
                "window": WINDOW,
                "budget_tokens": budget,
                "epochs": epochs,
            },
        )
    return 0


MODEL_FILES = {"ngram": "ngram.json", "transformer": "transformer.npz"}
# One line per (model, train, eval, example): its file_id, target text and
# rank, null for a miss. `evaluate` writes it and `analyze` reads it.
RANKS_FILE = "ranks.jsonl"


def _load_completer(path: Path):
    """The model in `path`, by file suffix: an n-gram `.json`, or a
    transformer `.npz` with the `vocab.tsv` next to it."""
    if not path.exists():
        raise CliError(f"model file not found: {path}")
    if path.suffix == ".json":
        return ngram_mod.NgramCompleter(ngram_mod.load_ngram(path))
    if path.suffix == ".npz":
        vocab_path = path.parent / "vocab.tsv"
        if not vocab_path.exists():
            raise CliError(f"vocabulary not found next to model: {vocab_path}")
        params, tf_config = tf_mod.load_params(path)
        return tf_mod.TransformerCompleter(params, tf_config, load_vocab(vocab_path))
    raise CliError(f"unrecognized model file type: {path}")


def cmd_evaluate(args, config) -> int:
    out = Path(args.out)
    seed = _resolve(args, config, "seed")
    n_examples = _resolve(args, config, "n_examples")
    cutoff = _resolve(args, config, "cutoff")
    models = _corpus_list(args.models)
    trains = _corpus_list(args.train)
    evals = _corpus_list(args.eval)
    for model_kind in models:
        if model_kind not in MODEL_FILES:
            raise CliError(f"unknown model kind: {model_kind}")
    eval_sets = {}
    for eval_name in evals:
        split = pipeline.load_split(out, eval_name, seed)
        eval_sets[eval_name] = pipeline.eval_examples(split, n_examples, seed)
    cells = []
    rank_rows = []
    for model_kind in models:
        for train_name in trains:
            model_dir = pipeline.models_dir(out, train_name)
            completer = _load_completer(model_dir / MODEL_FILES[model_kind])
            for eval_name in evals:
                report = evaluate(completer.topk, eval_sets[eval_name], cutoff=cutoff)
                for example, rank in zip(eval_sets[eval_name], report.per_example_ranks):
                    rank_rows.append(
                        {
                            "model": model_kind,
                            "train": train_name,
                            "eval": eval_name,
                            "file_id": example.file_id,
                            "target": example.target.text,
                            "rank": rank,
                        }
                    )
                cells.append(
                    {
                        "model": model_kind,
                        "train": train_name,
                        "eval": eval_name,
                        "top1": report.top1,
                        "mrr": report.mrr,
                        "n": report.n,
                    }
                )
                print(
                    f"evaluate: {model_kind} / train={train_name} / eval={eval_name}: "
                    f"top1={report.top1:.4f} mrr={report.mrr:.4f} (n={report.n})"
                )
    rdir = pipeline.reports_dir(out)
    rdir.mkdir(parents=True, exist_ok=True)
    with open(rdir / "eval.json", "w", encoding="utf-8") as fp:
        json.dump({"cutoff": cutoff, "cells": cells}, fp, sort_keys=True, indent=2)
        fp.write("\n")
    with open(rdir / "eval.csv", "w", encoding="utf-8", newline="") as fp:
        fp.write("model,train,eval,top1,mrr,n\n")
        for c in cells:
            fp.write(
                f"{c['model']},{c['train']},{c['eval']},"
                f"{c['top1']:.6f},{c['mrr']:.6f},{c['n']}\n"
            )
    with open(rdir / RANKS_FILE, "w", encoding="utf-8") as fp:
        for row in rank_rows:
            fp.write(json.dumps(row, sort_keys=True) + "\n")
    _write_manifest(
        rdir,
        "evaluate",
        {
            "seed": seed,
            "models": models,
            "train": trains,
            "eval": evals,
            "n_examples": n_examples,
            "cutoff": cutoff,
        },
    )
    return 0


def _rank_row(row: dict) -> tuple:
    rank = row["rank"]
    if rank is not None and (type(rank) is not int or rank < 1):
        raise ValueError(f"rank must be a positive integer or null, got {rank!r}")
    return row["eval"], row["model"], row["train"], row["file_id"], row["target"], rank


def _read_ranks(path: Path, eval_name: str, trains: list[str], examples) -> dict:
    """{(model, train): per-example ranks} from the rows of `path` for
    `eval_name`, for every model kind they hold and every train in
    `trains`. CliError unless each of those row sequences names exactly
    `examples`, in order."""
    if not path.exists():
        raise CliError(f"ranks not found: {path} (run evaluate first)")
    rows: dict[tuple[str, str], list] = {}
    for row_eval, model, train, file_id, target, rank in read_jsonl(path, _rank_row, "rank row"):
        if row_eval == eval_name:
            rows.setdefault((model, train), []).append((file_id, target, rank))
    if not rows:
        raise CliError(f"{path}: no ranks for eval {eval_name!r} (run evaluate first)")
    expected = [(ex.file_id, ex.target.text) for ex in examples]
    ranks = {}
    for model in dict.fromkeys(model for model, _ in rows):
        for train in trains:
            scored = rows.get((model, train), [])
            if [(file_id, target) for file_id, target, _ in scored] != expected:
                raise CliError(
                    f"{path}: the {model}-{train} ranks on {eval_name!r} do not match the "
                    "analyzed examples (run evaluate with this --train, --seed and --n-examples)"
                )
            ranks[model, train] = [rank for _, _, rank in scored]
    return ranks


def cmd_analyze(args, config) -> int:
    out = Path(args.out)
    seed = _resolve(args, config, "seed")
    n_examples = _resolve(args, config, "n_examples")
    trains = _corpus_list(args.train)
    eval_name = args.eval
    examples = pipeline.eval_examples(
        pipeline.load_split(out, eval_name, seed), n_examples, seed
    )
    rdir = pipeline.reports_dir(out)
    ranks = _read_ranks(rdir / RANKS_FILE, eval_name, trains, examples)
    vocabs = {train_name: _load_train_vocab(out, train_name) for train_name in trains}

    # Length CDFs and kind shares of each corpus's held-out examples.
    cdfs = {}
    kinds = {}
    for name in sorted(set(trains + [eval_name]) - {pipeline.UNION}):
        if name == eval_name:
            corpus_examples = examples
        else:
            split = pipeline.load_split(out, name, seed)
            corpus_examples = pipeline.eval_examples(split, n_examples, seed)
        cdfs[name] = analysis.length_cdf(corpus_examples)
        kinds[name] = analysis.kind_distribution(corpus_examples)

    by_length = {}
    by_oov = {}
    for (model_kind, train_name), example_ranks in ranks.items():
        label = f"{model_kind}-{train_name}"
        by_length[label] = analysis.accuracy_by_length(example_ranks, examples)
        by_oov[label] = analysis.accuracy_by_context_oov(
            example_ranks, examples, vocabs[train_name]
        )
    oov_rows = [
        (
            train_name,
            eval_name,
            analysis.oov_rate_targets(vocab, examples),
            analysis.oov_rate_context(vocab, examples),
        )
        for train_name, vocab in vocabs.items()
    ]
    analysis.write_length_cdf_csv(rdir, cdfs)
    analysis.write_kind_distribution_csv(rdir, kinds)
    analysis.write_accuracy_by_length_csv(rdir, by_length)
    analysis.write_accuracy_by_oov_csv(rdir, by_oov)
    analysis.write_oov_rates_csv(rdir, oov_rows)
    print(f"analyze: wrote drift tables to {rdir}")
    _write_manifest(
        rdir,
        "analyze",
        {"seed": seed, "train": trains, "eval": eval_name, "n_examples": n_examples},
    )
    return 0


def cmd_serve(args, config) -> int:
    threshold = _resolve(args, config, "threshold")
    max_promote = _resolve(args, config, "max_promote")
    if not 0.0 <= threshold <= 1.0:
        raise CliError(f"threshold must be in [0, 1], got {threshold}")
    if max_promote < 0:
        raise CliError(f"max_promote must be >= 0, got {max_promote}")
    if args.tcp:
        host, _, raw_port = args.tcp.partition(":")
        try:
            port = int(raw_port or 0)
        except ValueError:
            port = -1
        if not 0 <= port <= 65535:
            raise CliError(f"--tcp port must be an integer in 0-65535, got {raw_port!r}")
    completer = _load_completer(Path(args.model))
    acceptance_log = ranker.AcceptanceLog(args.log) if args.log else None
    if args.tcp:
        server = ranker.serve_tcp(
            completer.scores,
            host=host or "127.0.0.1",
            port=port,
            threshold=threshold,
            max_promote=max_promote,
            acceptance_log=acceptance_log,
        )
        print(f"serve: listening on {server.server_address[0]}:{server.server_address[1]}")
        try:
            server.serve_forever()
        finally:
            server.server_close()
        return 0
    ranker.serve_stream(
        completer.scores,
        sys.stdin,
        sys.stdout,
        threshold=threshold,
        max_promote=max_promote,
        acceptance_log=acceptance_log,
    )
    return 0


def cmd_abtest(args, config) -> int:
    log_path = Path(args.log)
    if not log_path.exists():
        raise CliError(f"acceptance log not found: {log_path}")
    records = []
    bad_lines = 0
    with open(log_path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                bad_lines += 1
    observations, skipped = abtest_mod.aggregate(records)
    skipped += bad_lines
    if skipped:
        print(f"abtest: skipped {skipped} malformed records", file=sys.stderr)
    by_group: dict[str, list] = {}
    for obs in observations:
        by_group.setdefault(obs.group, []).append(obs)
    control_name = args.control
    if control_name not in by_group:
        raise CliError(f"control group {control_name!r} has no observations")
    reports = {}
    for name in _corpus_list(args.experiment):
        if name not in by_group:
            raise CliError(f"experiment group {name!r} has no observations")
        report = abtest_mod.compare(by_group[control_name], by_group[name])
        reports[name] = report
        print(
            f"abtest: {name} vs {control_name}: improvement "
            f"{report.improvement:+.4f}, p={report.p_value:.4f}"
        )
    out_json = Path(args.json) if args.json else log_path.with_suffix(".report.json")
    abtest_mod.write_report_json(reports, out_json)
    if args.csv:
        abtest_mod.write_report_csv(reports, args.csv)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complab",
        description="code-completion modeling laboratory",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate synthetic corpora")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--files", type=int)
    p.add_argument("--tokens-per-file", dest="tokens_per_file", type=int)
    p.add_argument("--event-rate", dest="event_rate", type=float)
    p.add_argument("--with-edit", action="store_true")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train-vocab", help="build whole-token vocabularies")
    p.add_argument("--out", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--max-size", dest="max_size", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_vocab)

    p = sub.add_parser("train-ngram", help="train n-gram language models")
    p.add_argument("--out", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--order", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget-tokens", dest="budget_tokens", type=int)
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("train-transformer", help="train transformer language models")
    p.add_argument("--out", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--profile", choices=("test", "desk"))
    p.add_argument("--seed", type=int)
    p.add_argument("--budget-tokens", dest="budget_tokens", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train_transformer)

    p = sub.add_parser("evaluate", help="cross-corpus evaluation matrix")
    p.add_argument("--out", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-examples", dest="n_examples", type=int)
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "analyze", help="corpus drift tables from the ranks evaluate wrote"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-examples", dest="n_examples", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("serve", help="rank candidates over NDJSON")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-promote", dest="max_promote", type=int)
    p.add_argument("--log")
    p.add_argument("--tcp", help="HOST:PORT to listen on instead of stdio")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("abtest", help="experiment significance report")
    p.add_argument("--log", required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--experiment", required=True)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_abtest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (CliError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
