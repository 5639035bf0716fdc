"""complab benchmark: one workload, from generated corpora through training,
evaluation and IDE-shaped serving, with its outputs checked.

    python3 perfbench/run.py --workload ngram-study --seed 7 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/complab`. Each run works in
`.perfbench_work/<workload>/` and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, and with `--trace 1` the per-layer metrics of a run whose
complab processes record spans (see tracing.py).

Every stage runs `complab` commands as separate processes, the way users
run them. Serving is a closed loop with one client: the next line is sent
when the previous answer has arrived. The run is a fixed amount of work;
`--seconds` only caps the serving, which stops early once it has lasted that
long.
"""

from __future__ import annotations

import os

# Set before numpy loads, and inherited by every complab process: one BLAS
# thread, so timings do not depend on the core count, and a fixed string
# hash seed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(CHILD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent

ORDER = 4
MAX_SIZE = 100_000
CUTOFF = 10
THRESHOLD = 0.1
MAX_PROMOTE = 3
SETUP_REPS = 3
ROUNDS = 3
ACCEPT_SHARE = 0.3
# Evaluation examples per corpus whose ranks and distributions are checked.
CHECK_SAMPLE = {"ngram": 20, "transformer": 4}
EXPERIMENT = "perfbench"
GROUPS = ("control", "exp")
# Acceptances fall within this many days, so developer-days repeat and the
# A/B counts vary.
ACCEPT_DAYS = 3
NOW = 1_700_000_000.0
# About six optimizer steps of 32 windows: with the desk profile's 100-step
# learning-rate warmup, fewer leave the valid loss at ln(vocabulary size).
BUDGET_TOKENS = 15500


@dataclass(frozen=True)
class Workload:
    files: int  # datagen --files, per corpus
    model: str  # "ngram" or "transformer"
    train: tuple[str, ...]
    serve: str  # training corpus of the served model
    evals: tuple[str, ...]
    n_examples: int
    requests: int
    candidates: int
    context_tokens: int  # last tokens of the event context sent per request
    retrain: bool  # train again in every round, not only in the first
    train_args: tuple[str, ...] = ()


# Why these three: see README.md.
WORKLOADS = {
    "ngram-study": Workload(
        files=100, model="ngram",
        train=("committed", "edit", "completion"), serve="completion",
        evals=("completion",), n_examples=40,
        requests=3000, candidates=10, context_tokens=100, retrain=True,
        train_args=("--order", str(ORDER)),
    ),
    "transformer-study": Workload(
        files=80, model="transformer",
        train=("completion",), serve="completion",
        evals=("completion",), n_examples=12,
        requests=110, candidates=10, context_tokens=20, retrain=False,
        train_args=("--profile", "desk", "--budget-tokens", str(BUDGET_TOKENS), "--epochs", "1"),
    ),
    "ngram-union": Workload(
        files=100, model="ngram",
        train=("union",), serve="union",
        evals=("completion", "committed"), n_examples=40,
        requests=2000, candidates=50, context_tokens=100, retrain=True,
        train_args=("--order", str(ORDER)),
    ),
}


class StageFailed(RuntimeError):
    pass


class Ops:
    """Operations attempted and failed, over every stage of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def response_ok(response: dict | None) -> bool:
    """An answered line without an "error" field."""
    return isinstance(response, dict) and "error" not in response


class Runner:
    """Runs complab commands as processes, traced or not, and counts each
    as one operation that fails on a non-zero exit."""

    def __init__(self, root: Path, work: Path, trace: bool, ops: Ops):
        self.root = root
        self.work = work
        self.trace = trace
        self.ops = ops
        self.traces: list[tuple[str, Path]] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def argv(self, args: list[str]) -> list[str]:
        if not self.trace:
            return [sys.executable, "-m", "complab", *args]
        path = self.work / "traces" / f"{len(self.traces):03d}-{args[0]}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.traces.append((args[0], path))
        return [sys.executable, str(HERE / "tracing.py"), str(path), *args]

    def run(self, args: list[str]) -> float:
        """Wall time of one command; raises StageFailed on a non-zero exit."""
        start = time.perf_counter()
        proc = subprocess.run(
            self.argv(args), cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170,
        )
        elapsed = time.perf_counter() - start
        self.check_exit(args[0], proc.returncode, proc.stderr.decode(errors="replace"))
        return elapsed

    def check_exit(self, command: str, returncode: int, stderr: str = "") -> None:
        self.ops.add(returncode == 0)
        if returncode != 0:
            raise StageFailed(f"complab {command} exited {returncode}: {stderr[-2000:]}")


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def build_requests(data: Path, wl: Workload, seed: int) -> list[dict]:
    """The serving stream. Each rank request is an identifier position of a
    completion file drawn by the seed, without repeats; datagen's completion
    events are a 5% sample of the same positions, too few to fill the
    serving rounds. The context is what precedes the position, the
    candidates are its token plus identifiers of the same file, and after a
    seeded share of requests an acceptance record follows, from one of the
    event log's developers."""
    rng = random.Random(seed)
    files = [texts for _, texts in ref.read_files(data / "completion")]
    identifiers = [sorted({t for t in texts if ref.is_identifier(t)}) for texts in files]
    positions = [
        (f, i) for f, texts in enumerate(files)
        for i in range(1, len(texts)) if ref.is_identifier(texts[i])
    ]
    developers = sorted({e["developer_id"] for e in ref.read_events(data / "completion")})
    accepted_after = set(rng.sample(range(wl.requests), round(ACCEPT_SHARE * wl.requests)))
    from complab.abtest import assign_group

    lines = []
    for n, (f, i) in enumerate(rng.sample(positions, wl.requests)):
        accepted = files[f][i]
        others = [t for t in identifiers[f] if t != accepted]
        candidates = rng.sample(others, min(wl.candidates - 1, len(others)))
        candidates.insert(rng.randrange(len(candidates) + 1), accepted)
        developer = rng.choice(developers)
        lines.append({
            "request_id": f"r{n}",
            "developer_id": developer,
            "context": files[f][max(0, i - wl.context_tokens):i],
            "candidates": candidates,
        })
        if n in accepted_after:
            lines.append({
                "request_id": f"r{n}",
                "developer_id": developer,
                "timestamp": NOW - rng.random() * ACCEPT_DAYS * 86_400.0,
                "accepted": accepted,
                "group": assign_group(EXPERIMENT, developer, GROUPS),
            })
    return lines


def split_rounds(lines: list[dict], n: int) -> list[list[dict]]:
    """n consecutive parts of the stream, each starting with a rank request."""
    starts = [i for i, line in enumerate(lines) if "accepted" not in line]
    cuts = [starts[len(starts) * r // n] for r in range(n)] + [len(lines)]
    return [lines[cuts[r] : cuts[r + 1]] for r in range(n)]


def setup(runner: Runner, wl: Workload, seed: int) -> tuple[Path, list[dict], list[float]]:
    """Generate the corpora and the request stream SETUP_REPS times into
    fresh workspaces; the first is the one the run uses."""
    times = []
    for rep in range(SETUP_REPS):
        out = runner.work / f"ws{rep}"
        start = time.perf_counter()
        runner.run(
            ["datagen", "--out", str(out), "--seed", str(seed), "--files", str(wl.files)]
            + (["--with-edit"] if "edit" in wl.train else [])
        )
        lines = build_requests(out / "data", wl, seed)
        times.append(time.perf_counter() - start)
        if rep == 0:
            workspace, stream = out, lines
        else:
            shutil.rmtree(out)
    return workspace, stream, times


# --------------------------------------------------------------------------
# Serving
# --------------------------------------------------------------------------


class Server:
    """One `complab serve` process spoken to over its stdin and stdout."""

    def __init__(self, runner: Runner, model: Path, log: Path):
        self.runner = runner
        self.stderr = open(runner.work / "serve.stderr", "ab")
        self.proc = subprocess.Popen(
            runner.argv([
                "serve", "--model", str(model), "--log", str(log),
                "--threshold", str(THRESHOLD), "--max-promote", str(MAX_PROMOTE),
            ]),
            cwd=runner.root, env=runner.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
        )

    def ask(self, line: dict) -> dict | None:
        """Send one line and wait for its answer; None once the server is gone."""
        try:
            self.proc.stdin.write(json.dumps(line).encode() + b"\n")
            self.proc.stdin.flush()
            answer = self.proc.stdout.readline()
        except (BrokenPipeError, ValueError):
            return None
        return json.loads(answer) if answer else None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            returncode = self.proc.wait(timeout=120)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.stderr.close()
        self.runner.check_exit("serve", returncode)


def serve_round(runner: Runner, model: Path, lines: list[dict], log: Path,
                served: dict, seconds: float) -> None:
    """Start a server, time it to its first answer (the round's first line,
    a rank request), then send it the rest of the round's lines; stop early
    once the rounds have served for `seconds`."""
    ops = runner.ops
    start = time.perf_counter()
    server = Server(runner, model, log)
    try:
        answer = server.ask(lines[0])
        served["loads"].append(time.perf_counter() - start)
        ops.add(response_ok(answer))
        served["answers"].append((lines[0], answer))
        start = time.perf_counter()
        for line in lines[1:]:
            if "accepted" not in line and served["wall"] + time.perf_counter() - start > seconds:
                break
            sent_at = time.perf_counter()
            answer = server.ask(line)
            if "accepted" in line:
                ops.add(response_ok(answer) and answer.get("logged") is True)
                served["accepted"].append(line)
            else:
                served["latencies"].append(time.perf_counter() - sent_at)
                ops.add(response_ok(answer))
                served["answers"].append((line, answer))
        served["wall"] += time.perf_counter() - start
    finally:
        server.close()


# --------------------------------------------------------------------------
# Checks against the reference computations
# --------------------------------------------------------------------------


def _rank_ok(program_rank, band, exact: bool) -> bool:
    """The program's rank (None beyond the cutoff) against a reference band:
    exactly its text-ordered rank, or anywhere among its ties."""
    lo, text_order, hi = band
    if exact:
        expected = text_order if text_order <= CUTOFF else None
        return program_rank == expected
    if program_rank is None:
        return hi > CUTOFF
    return lo <= program_rank <= hi


def check_rank_answer(request: dict, answer: dict | None, expected: dict, close) -> list[str]:
    """Promotion rule: a permutation of the candidates; at most MAX_PROMOTE
    promoted, each above the threshold, by descending score then text; no
    candidate left out above the threshold unless the cap was reached; the
    tail in ascending text order; scores equal to the reference's."""
    rid = request["request_id"]
    if not response_ok(answer):
        return [f"{rid}: no answer ({answer})"]
    ranked, scores, k = answer["ranked"], answer["scores"], answer["promoted_count"]
    errors = []
    if sorted(ranked) != sorted(request["candidates"]) or set(scores) != set(ranked):
        errors.append(f"{rid}: ranked list is not a permutation of the candidates")
        return errors
    head, tail = ranked[:k], ranked[k:]
    if not 0 <= k <= MAX_PROMOTE or any(scores[c] <= THRESHOLD for c in head):
        errors.append(f"{rid}: promoted {head} breaks the threshold or the cap")
    if head != sorted(head, key=lambda c: (-scores[c], c)) or tail != sorted(tail):
        errors.append(f"{rid}: wrong order {ranked}")
    if k < MAX_PROMOTE and any(scores[c] > THRESHOLD for c in tail):
        errors.append(f"{rid}: a candidate above the threshold was left out")
    for c in ranked:
        if not close(scores[c], expected[c]):
            errors.append(f"{rid}: score of {c!r} {scores[c]!r} != reference {expected[c]!r}")
    return errors


def eval_examples(data: Path, corpus: str, seed: int, n: int) -> list[SimpleNamespace]:
    """A seeded sample of test-split examples of an evaluation corpus:
    completion events, or identifier positions of test files."""
    rng = random.Random(seed + 1)
    if corpus == "completion":
        events = ref.split(ref.read_events(data / corpus), seed, ref.event_key)["test"]
        pairs = [(e["context"], e["accepted"]) for e in events if e["context"]]
    else:
        files = ref.split(ref.read_files(data / corpus), seed, ref.file_key)["test"]
        pairs = [
            (texts[max(0, i - ref.WINDOW):i], texts[i])
            for _, texts in files for i in range(1, len(texts)) if ref.is_identifier(texts[i])
        ]
    return [
        SimpleNamespace(context_texts=c, target=SimpleNamespace(text=t))
        for c, t in rng.sample(pairs, min(n, len(pairs)))
    ]


class Checker:
    """Correctness checks of one run; collects what it found wrong."""

    def __init__(self, work: Path, wl: Workload, seed: int):
        self.work = work
        self.wl = wl
        self.seed = seed
        self.data = work / "data"
        self.errors: list[str] = []
        self.train_tokens = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def vocab(self, corpus: str) -> list[str]:
        """Check a trained vocabulary against a direct count; return it."""
        texts = ref.vocab_texts(ref.streams(self.data, corpus, self.seed), MAX_SIZE)
        path = self.work / "models" / corpus / "vocab.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = [f"{t}\t{i}" for i, t in enumerate(texts)]
        self.expect(lines == expected, f"{path}: vocabulary differs from the direct count")
        return texts

    def eval_report(self) -> int:
        """Check eval.json's cells; return the examples scored."""
        cells = json.loads((self.work / "reports" / "eval.json").read_text())["cells"]
        self.expect(
            len(cells) == len(self.wl.train) * len(self.wl.evals),
            f"eval.json has {len(cells)} cells",
        )
        for c in cells:
            self.expect(c["n"] == self.wl.n_examples, f"eval cell {c} scored {c['n']} examples")
            self.expect(0 <= c["top1"] <= c["mrr"] <= 1, f"eval cell {c} breaks 0<=top1<=mrr<=1")
        return sum(c["n"] for c in cells)

    def ranks(self, completer, dist_of, texts: list[str], exact: bool, rel: float) -> None:
        """evalsuite.evaluate's per-example ranks on a seeded sample equal
        the reference model's, with probabilities within 1e-9 plus `rel` of
        the target's counted as ties."""
        from complab.evalsuite import evaluate

        id_of = {t: i for i, t in enumerate(texts)}
        for corpus in self.wl.evals:
            examples = eval_examples(self.data, corpus, self.seed, CHECK_SAMPLE[self.wl.model])
            report = evaluate(completer.topk, examples, cutoff=CUTOFF)
            for ex, got in zip(examples, report.per_example_ranks):
                probs = dist_of(ex.context_texts)
                band = ref.rank_band(probs, texts, ex.target.text, id_of, 1e-9, rel)
                self.expect(
                    _rank_ok(got, band, exact),
                    f"{corpus}: rank of {ex.target.text!r} is {got}, reference {band}",
                )

    def serving(self, served: dict, score_of, close) -> None:
        for request, answer in served["answers"]:
            expected = score_of(request["context"], request["candidates"])
            self.errors += check_rank_answer(request, answer, expected, close)
        logged = [json.loads(x) for x in served["log"].read_text().splitlines() if x.strip()]
        self.expect(logged == served["accepted"], "acceptance log differs from the records sent")

    def abtest(self, sent: list[dict]) -> None:
        from scipy import stats

        report = json.loads((self.work / "abtest.json").read_text())["exp"]
        groups = ref.ab_groups(sent)
        control, exp = groups["control"], groups["exp"]
        for side, want in (("control", control), ("experiment", exp)):
            got = report[side]
            for key in ("observations", "unique_developers"):
                self.expect(got[key] == want[key], f"abtest {side} {key} {got[key]} != {want[key]}")
            for key in ("mean", "std_dev"):
                self.expect(
                    math.isclose(got[key], want[key], rel_tol=1e-12, abs_tol=1e-12),
                    f"abtest {side} {key} {got[key]} != {want[key]}",
                )
        lift = (exp["mean"] - control["mean"]) / control["mean"]
        self.expect(math.isclose(report["improvement"], lift, rel_tol=1e-9, abs_tol=1e-12),
                    f"abtest lift {report['improvement']} != {lift}")
        if min(control["observations"], exp["observations"]) < 2 or (
            control["std_dev"] == exp["std_dev"] == 0 and control["mean"] == exp["mean"]
        ):
            p = 1.0
        else:
            p = stats.ttest_ind(exp["values"], control["values"], equal_var=False).pvalue
        self.expect(abs(report["p_value"] - p) <= 1e-6, f"abtest p {report['p_value']} != {p}")

    def ngram(self, served: dict) -> None:
        from complab.ngram import NgramCompleter, load_ngram, ngram_distribution

        for corpus in self.wl.train:
            texts = self.vocab(corpus)
            id_of = {t: i for i, t in enumerate(texts)}
            wins = ref.windows(ref.streams(self.data, corpus, self.seed), id_of)
            self.train_tokens += sum(1 for w in wins for t in w if t != ref.PAD_ID)
            kn = ref.ReferenceKN(wins, ORDER, len(texts))
            model = load_ngram(self.work / "models" / corpus / "ngram.json")

            def dist_of(context, kn=kn, id_of=id_of):
                return kn.distribution([id_of.get(t, ref.UNK_ID) for t in context])

            for corpus_eval in self.wl.evals:
                for ex in eval_examples(self.data, corpus_eval, self.seed, CHECK_SAMPLE["ngram"]):
                    ids = [id_of.get(t, ref.UNK_ID) for t in ex.context_texts]
                    vec = ngram_distribution(model, ids)
                    self.expect(abs(vec.sum() - 1.0) <= 1e-9, f"{corpus}: distribution sums to {vec.sum()}")
                    diff = float(np.abs(vec - kn.distribution(ids)).max())
                    self.expect(diff <= 1e-9, f"{corpus}: distribution differs from reference by {diff}")
            self.ranks(NgramCompleter(model), dist_of, texts, exact=True, rel=0.0)
            if corpus == self.wl.serve:

                def score_of(context, candidates, kn=kn, id_of=id_of):
                    ids = [id_of.get(t, ref.UNK_ID) for t in context]
                    return {
                        c: kn.prob(ids, id_of[c]) if id_of.get(c, ref.UNK_ID) > ref.PAD_ID else 0.0
                        for c in candidates
                    }

                self.serving(served, score_of, _close_ngram)

    def transformer(self, served: dict) -> None:
        from complab.transformer import TransformerCompleter, load_params
        from complab.vocab import load_vocab

        corpus = self.wl.serve
        texts = self.vocab(corpus)
        id_of = {t: i for i, t in enumerate(texts)}
        model_dir = self.work / "models" / corpus
        train_wins = ref.trim_to_budget(
            ref.windows(ref.streams(self.data, corpus, self.seed), id_of), BUDGET_TOKENS
        )
        self.train_tokens += sum(1 for w in train_wins for t in w if t != ref.PAD_ID)
        valid_wins = ref.trim_to_budget(
            ref.windows(ref.streams(self.data, corpus, self.seed, "valid"), id_of),
            max(BUDGET_TOKENS // 8, ref.WINDOW),
        )
        params, config = ref.load_transformer(model_dir / "transformer.npz")
        log = json.loads((model_dir / "trainlog.json").read_text())
        valid = log["valid_losses"][log["best_epoch"] - 1]
        want = ref.mean_loss(params, config, valid_wins)
        self.expect(math.isfinite(valid) and valid < math.log(len(texts)),
                    f"valid loss {valid} not below ln(V)={math.log(len(texts))}")
        self.expect(math.isclose(valid, want, rel_tol=1e-4), f"valid loss {valid} != reference {want}")

        def dist_of(context):
            ids = [id_of.get(t, ref.UNK_ID) for t in context][-config["context_len"]:]
            return ref.next_distribution(params, config, ids)

        program = TransformerCompleter(*load_params(model_dir / "transformer.npz"),
                                       load_vocab(model_dir / "vocab.tsv"))
        self.ranks(program, dist_of, texts, exact=False, rel=1e-4)

        def score_of(context, candidates):
            probs = dist_of(context)
            return {
                c: float(probs[id_of[c]]) if id_of.get(c, ref.UNK_ID) > ref.PAD_ID else 0.0
                for c in candidates
            }

        self.serving(served, score_of, _close_transformer)


def _close_ngram(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def _close_transformer(a: float, b: float) -> bool:
    # float32 forward against the float64 reference.
    return abs(a - b) <= 1e-4 * abs(b) + 1e-9


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    runner = Runner(root, work, trace, ops)
    stages = {"start": time.perf_counter()}

    workspace, stream, setup_times = setup(runner, wl, seed)
    stages["set-up"] = time.perf_counter()
    (workspace / "data").rename(work / "data")
    shutil.rmtree(workspace)
    out = ["--out", str(work), "--seed", str(seed)]
    trains = ",".join(wl.train)
    model_file = "ngram.json" if wl.model == "ngram" else "transformer.npz"
    model = work / "models" / wl.serve / model_file
    # Training (where `retrain`), evaluation and serving run in ROUNDS
    # rounds, so that each of their metrics is a median or a pool over
    # several stretches of the run rather than one short window of the
    # machine's speed. Every round computes the same outputs.
    served = {"loads": [], "latencies": [], "answers": [], "accepted": [], "wall": 0.0,
              "log": work / "acceptance.jsonl"}
    train_times, eval_times = [], []
    for r, lines in enumerate(split_rounds(stream, ROUNDS)):
        if r == 0 or wl.retrain:
            train_times.append(
                runner.run(["train-vocab", *out, "--train", trains, "--max-size", str(MAX_SIZE)])
                + runner.run([f"train-{wl.model}", *out, "--train", trains, *wl.train_args])
            )
        eval_times.append(runner.run([
            "evaluate", *out, "--models", wl.model, "--train", trains,
            "--eval", ",".join(wl.evals), "--n-examples", str(wl.n_examples),
            "--cutoff", str(CUTOFF),
        ]))
        serve_round(runner, model, lines, served["log"], served, seconds)
    stages["train, evaluate, serve"] = time.perf_counter()
    runner.run([
        "abtest", "--log", str(served["log"]), "--control", GROUPS[0],
        "--experiment", GROUPS[1], "--json", str(work / "abtest.json"),
    ])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    stages["abtest"] = time.perf_counter()
    checker = Checker(work, wl, seed)
    scored = checker.eval_report()
    ops.add(scored == len(wl.train) * len(wl.evals) * wl.n_examples,
            len(wl.train) * len(wl.evals) * wl.n_examples)
    getattr(checker, wl.model)(served)
    checker.abtest(served["accepted"])
    for error in checker.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)

    lat_ms = [x * 1e3 for x in served["latencies"]]
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_tok_s": (checker.train_tokens / statistics.median(train_times), "tokens/s"),
        "eval_ex_s": (scored / statistics.median(eval_times), "examples/s"),
        "load_s": (statistics.median(served["loads"]), "s"),
        "rank_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "rank_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "serve_req_s": ((len(lat_ms) + len(served["accepted"])) / served["wall"], "lines/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    stages["checks"] = time.perf_counter()
    marks = list(stages.items())
    print(f"{name}: {len(lat_ms)} rank requests, {len(served['accepted'])} acceptances; "
          + ", ".join(f"{k} {t - marks[i][1]:.1f} s" for i, (k, t) in enumerate(marks[1:])),
          file=sys.stderr)
    if trace:
        print("traced run end-to-end: " + json.dumps({k: v for k, (v, _) in e2e.items()}))
        metrics = per_layer(runner, wl, model)
    else:
        metrics = e2e
    return {
        "correct": not checker.errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# --------------------------------------------------------------------------
# Per-layer metrics from the traced run
# --------------------------------------------------------------------------


def per_layer(runner: Runner, wl: Workload, model: Path) -> dict:
    by_command: dict[str, list[dict]] = {}
    for command, path in runner.traces:
        by_command.setdefault(command, []).append(json.loads(path.read_text()))
    every = tracing.Profile([t for ts in by_command.values() for t in ts])
    training = tracing.Profile(by_command.get("train-transformer", []))
    serving = tracing.Profile(by_command.get("serve", []))

    def per(total: float, calls: int, scale: float = 1.0) -> float:
        return total / calls * scale if calls else 0.0

    steps = training.calls["autograd.Adam.step"]
    reps = len(by_command["datagen"])
    rank_calls = serving.calls["ranker.rank"]
    topk = ("ngram.NgramCompleter.topk", "transformer.TransformerCompleter.topk")
    scores = ("ngram.NgramCompleter.prob", "transformer.TransformerCompleter.prob")
    m = {
        "datagen.generate_s": (every.total["datagen.generate"] / reps, "s"),
        "lexer.tokenize_s": (every.total["lexer.tokenize"], "s"),
        "corpus.load_s": (every.total["corpus.load_file_corpus"] + every.total["corpus.load_events"], "s"),
        "corpus.loads": (every.calls["corpus.load_file_corpus"], "count"),
        "vocab.build_s": (every.total["vocab.build_vocab"], "s"),
        "pipeline.encode_s": (every.total["pipeline.encode_windows"], "s"),
        "vocab.size": (max(every.counts["vocab.build_vocab"], default=0), "count"),
        "ngram.train_s": (every.total["ngram.train_ngram"], "s"),
        "ngram.grams": (per(sum(every.counts["ngram.train_ngram"]), every.calls["cli.cmd_train_ngram"]), "count"),
        "ngram.save_s": (every.total["ngram.save_ngram"], "s"),
        "ngram.file_mb": (model.stat().st_size / 2**20 if wl.model == "ngram" else 0.0, "MB"),
        "ngram.load_s": (every.mean("ngram.load_ngram"), "s"),
        "ngram.distribution_ms": (every.mean("ngram.ngram_distribution") * 1e3, "ms"),
        "ngram.topk_select_ms": (per(every.self_time["ngram.ngram_topk"], every.calls["ngram.ngram_topk"], 1e3), "ms"),
        "ngram.prob_us": (every.mean("ngram.ngram_prob") * 1e6, "us"),
    }
    for op in tracing.AUTOGRAD_OPS:
        m[f"autograd.{op}.fwd_ms"] = (per(training.total_outside_valid[f"autograd.{op}"], steps, 1e3), "ms")
    backward = training.total["autograd.Tensor.backward"]
    adam = training.total["autograd.Adam.step"]
    m.update({
        "autograd.backward_ms": (per(backward, steps, 1e3), "ms"),
        "autograd.adam_ms": (per(adam, steps, 1e3), "ms"),
        "transformer.step_ms": (per(training.total_outside_valid["transformer.loss"] + backward + adam, steps, 1e3), "ms"),
        "transformer.valid_s": (every.total["transformer._mean_valid_loss"], "s"),
        "transformer.forward_ms": (every.mean("transformer.forward") * 1e3, "ms"),
        "transformer.forwards_per_req": (per(serving.calls["transformer.forward"], rank_calls), "count"),
        "transformer.save_s": (every.total["transformer.save_params"], "s"),
        "transformer.load_s": (every.mean("transformer.load_params"), "s"),
        "evalsuite.evaluate_s": (every.total["evalsuite.evaluate"], "s"),
        "evalsuite.topk_ms": (per(sum(every.total[n] for n in topk), sum(every.calls[n] for n in topk), 1e3), "ms"),
        "ranker.rank_self_us": (per(serving.self_time["ranker.rank"], rank_calls, 1e6), "us"),
        "ranker.scores_per_req": (per(sum(serving.calls[n] for n in scores), rank_calls), "count"),
        "ranker.protocol_us": (per(serving.self_time["ranker._handle_line"], serving.calls["ranker._handle_line"], 1e6), "us"),
        "ranker.log_append_us": (serving.mean("ranker.AcceptanceLog.append") * 1e6, "us"),
        "abtest.aggregate_ms": (every.total["abtest.aggregate"] * 1e3, "ms"),
        "abtest.compare_ms": (every.total["abtest.compare"] * 1e3, "ms"),
        "abtest.observations": (sum(every.counts["abtest.aggregate"]), "count"),
    })
    for command in ("datagen", "train-vocab", "train-ngram", "train-transformer", "evaluate", "serve", "abtest"):
        total = every.total[f"cli.cmd_{command.replace('-', '_')}"]
        m[f"cli.{command.replace('-', '_')}_s"] = (total / reps if command == "datagen" else total, "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not ((root / "src" / "complab" / "__init__.py").is_file() and (root / "BENCHMARK.json").is_file()):
        print("perfbench: run from a checkout root that holds src/complab and BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except StageFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if listed != {k: v["unit"] for k, v in result["metrics"].items()}:
        print("perfbench: metrics differ from those BENCHMARK.json lists", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
