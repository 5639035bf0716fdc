"""Span tracing of complab from outside the package.

Run as `python3 perfbench/tracing.py TRACE_FILE COMMAND ARGS...` to execute one
`complab` command with the public functions of each module wrapped: every
call records a span (name, start, end, parent) and, for a few calls, a count
taken from its result. Spans stay in memory and are written to TRACE_FILE as
JSON when the command ends.

Functions called once per token (lexer.classify_text, Vocabulary.id) are
not wrapped: a span there would cost more than the work it times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

AUTOGRAD_OPS = (
    "embedding matmul add layer_norm gelu softmax log_softmax gather_last "
    "transpose reshape scale add_const mul_const tsum"
).split()

# (module, qualified name) of every wrapped callable.
TARGETS = [
    ("datagen", "generate"),
    ("lexer", "tokenize"),
    ("corpus", "load_file_corpus"),
    ("corpus", "load_events"),
    ("vocab", "build_vocab"),
    ("pipeline", "encode_windows"),
    ("ngram", "train_ngram"),
    ("ngram", "save_ngram"),
    ("ngram", "load_ngram"),
    ("ngram", "ngram_distribution"),
    ("ngram", "ngram_topk"),
    ("ngram", "ngram_prob"),
    ("ngram", "NgramCompleter.topk"),
    ("ngram", "NgramCompleter.prob"),
    *[("autograd", op) for op in AUTOGRAD_OPS],
    ("autograd", "Tensor.backward"),
    ("autograd", "Adam.step"),
    ("transformer", "train"),
    ("transformer", "loss"),
    ("transformer", "_mean_valid_loss"),
    ("transformer", "forward"),
    ("transformer", "save_params"),
    ("transformer", "load_params"),
    ("transformer", "TransformerCompleter.topk"),
    ("transformer", "TransformerCompleter.prob"),
    ("evalsuite", "evaluate"),
    ("ranker", "rank"),
    ("ranker", "_handle_line"),
    ("ranker", "AcceptanceLog.append"),
    ("abtest", "aggregate"),
    ("abtest", "compare"),
    *[
        ("cli", f"cmd_{c}")
        for c in "datagen train_vocab train_ngram train_transformer evaluate serve abtest".split()
    ],
]

# Counts read from a call's result, keyed by span name.
COUNTS = {
    "vocab.build_vocab": len,
    "ngram.train_ngram": lambda model: sum(len(level) for level in model.raw_counts),
    "abtest.aggregate": lambda result: len(result[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                self.counts.append([name, count(result)])
            return result

        return traced

    def install(self) -> None:
        """Replace each target, and every module-level alias of it in the
        package (such as names imported into the CLI), by its wrapper."""
        modules = {
            m: importlib.import_module(f"complab.{m}")
            for m in ("abtest autograd cli corpus datagen evalsuite lexer "
                      "ngram pipeline ranker transformer vocab").split()
        }
        for module_name, qualname in TARGETS:
            owner = modules[module_name]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(f"{module_name}.{qualname}", original)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": self.spans, "counts": self.counts}, fp)


class Profile:
    """Totals over the spans of one or more traced processes."""

    def __init__(self, traces: list[dict]):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(list)
        # Time of each name spent outside a transformer validation pass.
        self.total_outside_valid = defaultdict(float)
        for trace in traces:
            spans = trace["spans"]
            child_time = [0.0] * len(spans)
            in_valid = [False] * len(spans)
            for i, (name, start, end, parent) in enumerate(spans):
                if parent >= 0:
                    child_time[parent] += end - start
                    in_valid[i] = in_valid[parent]
                if name == "transformer._mean_valid_loss":
                    in_valid[i] = True
            for i, (name, start, end, _) in enumerate(spans):
                self.total[name] += end - start
                self.self_time[name] += end - start - child_time[i]
                self.calls[name] += 1
                if not in_valid[i]:
                    self.total_outside_valid[name] += end - start
            for name, value in trace["counts"]:
                self.counts[name].append(value)

    def mean(self, name: str) -> float:
        return self.total[name] / self.calls[name] if self.calls[name] else 0.0


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from complab import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
