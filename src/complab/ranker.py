"""Completion candidate ranking behind a newline-delimited JSON protocol.

Up to `max_promote` candidates whose model probability clears the threshold
are promoted to the top of the list in descending-probability order; all
remaining candidates stay in ascending alphabetical order, matching the
behavior of an IDE dropdown that is alphabetical by default. Acceptance
events are appended to a line-delimited JSON log for downstream experiment
analysis.

The model is a score function `(context, candidates) -> probabilities`, one
per candidate in order, called once per request: `Completer.scores`, which
reads every candidate from one next-token distribution.
"""

from __future__ import annotations

import io
import json
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Sequence

ScoreFn = Callable[[Sequence[str], Sequence[str]], Sequence[float]]

DEFAULT_THRESHOLD = 0.1
DEFAULT_MAX_PROMOTE = 3


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class RankResponse:
    request_id: str
    ranked: tuple[str, ...]
    promoted_count: int
    scores: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "request_id": self.request_id,
                "ranked": list(self.ranked),
                "promoted_count": self.promoted_count,
                "scores": self.scores,
            },
            ensure_ascii=False,
        )


def rank(
    candidates: Sequence[str],
    context: Sequence[str],
    score_fn: ScoreFn,
    threshold: float = DEFAULT_THRESHOLD,
    max_promote: int = DEFAULT_MAX_PROMOTE,
    request_id: str = "",
) -> RankResponse:
    """Score candidates with the model and apply the promotion rule.

    Candidates the model cannot score (out of vocabulary) get probability
    zero and can never be promoted.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    if not candidates:
        raise ProtocolError("candidates must be non-empty")
    if len(set(candidates)) != len(candidates):
        raise ProtocolError("candidates must be unique")
    values = score_fn(context, candidates)
    scores = dict(zip(candidates, map(float, values), strict=True))
    eligible = [c for c in candidates if scores[c] > threshold]
    promoted = sorted(eligible, key=lambda c: (-scores[c], c))[:max_promote]
    promoted_set = set(promoted)
    tail = sorted(c for c in candidates if c not in promoted_set)
    return RankResponse(
        request_id=request_id,
        ranked=tuple(promoted + tail),
        promoted_count=len(promoted),
        scores=scores,
    )


class AcceptanceLog:
    """Append-only line-delimited JSON sink, one flush per record.

    Appends are serialized so concurrent handlers never interleave lines.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fp:
                fp.write(line + "\n")
                fp.flush()


def log_acceptance(sink: AcceptanceLog, event_record: dict, group: str) -> dict:
    """Append one acceptance event (corpus event schema plus "group")."""
    record = dict(event_record)
    record["group"] = group
    sink.append(record)
    return record


def _handle_line(
    line: str,
    line_no: int,
    score_fn: ScoreFn,
    threshold: float,
    max_promote: int,
    acceptance_log: AcceptanceLog | None,
) -> str:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return json.dumps({"error": "parse", "line": line_no})
    if not isinstance(payload, dict):
        return json.dumps({"error": "parse", "line": line_no})
    if "accepted" in payload:
        if acceptance_log is None:
            return json.dumps({"error": "no-log-configured", "line": line_no})
        group = payload.pop("group", "default")
        log_acceptance(acceptance_log, payload, group)
        return json.dumps({"logged": True})
    try:
        request_id = str(payload["request_id"])
        context = _strings(payload.get("context", []), "context")
        candidates = _strings(payload["candidates"], "candidates")
    except (KeyError, TypeError) as exc:
        return json.dumps({"error": "protocol", "detail": str(exc), "line": line_no})
    except ProtocolError as exc:
        return _request_error("protocol", exc, payload)
    try:
        response = rank(
            candidates,
            context,
            score_fn,
            threshold=threshold,
            max_promote=max_promote,
            request_id=request_id,
        )
    except ProtocolError as exc:
        # Empty or repeated candidates, which rank rejects.
        return _request_error("protocol", exc, payload)
    except ValueError as exc:
        # The model cannot score this request (an empty context for the
        # transformer); the next line is still served.
        return _request_error("model", exc, payload)
    return response.to_json()


def _strings(value, name: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ProtocolError(f"{name} must be a list of strings")
    return tuple(value)


def _request_error(kind: str, exc: Exception, payload: dict) -> str:
    return json.dumps(
        {
            "error": kind,
            "detail": str(exc),
            "request_id": str(payload.get("request_id", "")),
        }
    )


def serve_stream(
    score_fn: ScoreFn,
    reader: IO[str],
    writer: IO[str],
    threshold: float = DEFAULT_THRESHOLD,
    max_promote: int = DEFAULT_MAX_PROMOTE,
    acceptance_log: AcceptanceLog | None = None,
) -> int:
    """One response line per request line, in request order. Returns the
    number of lines handled."""
    handled = 0
    for line_no, line in enumerate(reader, start=1):
        line = line.strip()
        if not line:
            continue
        writer.write(
            _handle_line(
                line, line_no, score_fn, threshold, max_promote, acceptance_log
            )
        )
        writer.write("\n")
        writer.flush()
        handled += 1
    return handled


def serve_tcp(
    score_fn: ScoreFn,
    host: str = "127.0.0.1",
    port: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    max_promote: int = DEFAULT_MAX_PROMOTE,
    acceptance_log: AcceptanceLog | None = None,
) -> socketserver.ThreadingTCPServer:
    """Threaded TCP server speaking the same line protocol; the model is
    shared immutably across connection handlers. Caller owns shutdown."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            serve_stream(
                score_fn,
                # Undecodable bytes become U+FFFD, so the line is answered
                # as a parse error like any other malformed line.
                io.TextIOWrapper(self.rfile, encoding="utf-8", errors="replace"),
                io.TextIOWrapper(self.wfile, encoding="utf-8", write_through=True),
                threshold=threshold,
                max_promote=max_promote,
                acceptance_log=acceptance_log,
            )

    server = socketserver.ThreadingTCPServer((host, port), Handler)
    server.daemon_threads = True
    return server
