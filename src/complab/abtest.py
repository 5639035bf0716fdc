"""Experiment-group assignment, dev-day aggregation, and significance
testing of acceptance counts.

An observation is the number of completion suggestions one developer
accepted on one UTC calendar day. Group means are compared with Welch's
unequal-variance two-sample t-test, two-sided; the t-distribution CDF is
evaluated through the regularized incomplete beta function computed by
continued fractions (precision better than 1e-10 over the tested range).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

log = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# t-distribution machinery
# --------------------------------------------------------------------------

_CF_MAX_ITER = 500
_CF_EPS = 1e-15
_CF_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability P(|T_df| >= |t|)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> tuple[float, float, float]:
    """(t statistic, Welch-Satterthwaite df, two-sided p-value)."""
    na, nb = len(sample_a), len(sample_b)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two observations")
    ma = sum(sample_a) / na
    mb = sum(sample_b) / nb
    va = sum((x - ma) ** 2 for x in sample_a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in sample_b) / (nb - 1)
    sa, sb = va / na, vb / nb
    se2 = sa + sb
    if se2 == 0.0:
        # Degenerate: no variance anywhere.
        if ma == mb:
            return 0.0, float(na + nb - 2), 1.0
        return math.inf if ma > mb else -math.inf, float(na + nb - 2), 0.0
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    return t, df, t_sf_two_sided(t, df)


# --------------------------------------------------------------------------
# Observations and reports
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AbObservation:
    developer_id: str
    day: str  # UTC calendar date, ISO format
    accept_count: int
    group: str


@dataclass(frozen=True, slots=True)
class GroupStats:
    observations: int
    mean: float
    std_dev: float
    unique_developers: int


@dataclass(frozen=True, slots=True)
class AbReport:
    control: GroupStats
    experiment: GroupStats
    improvement: float
    p_value: float

    def to_dict(self) -> dict:
        """JSON report schema: ``control`` and ``experiment`` each map to
        ``{observations, mean, std_dev, unique_developers}``, beside the
        top-level ``improvement`` and ``p_value``."""
        return asdict(self)


def assign_group(
    experiment_id: str, developer_id: str, groups: Sequence[str]
) -> str:
    """Stable hash assignment: uniform in expectation, deterministic."""
    if not groups:
        raise ValueError("groups must be non-empty")
    digest = hashlib.sha256(f"{experiment_id}|{developer_id}".encode()).digest()
    return groups[int.from_bytes(digest[:8], "big") % len(groups)]


def aggregate(records: Iterable[dict]) -> tuple[list[AbObservation], int]:
    """Count acceptance records per (developer, UTC day, group).

    Records missing developer_id, timestamp, or group, or whose timestamp
    is not a number of seconds a UTC date can hold, are skipped and
    counted. Developers with no acceptances on a day produce no
    observation.
    """
    counts: dict[tuple[str, str, str], int] = {}
    skipped = 0
    for record in records:
        dev = record.get("developer_id")
        ts = record.get("timestamp")
        group = record.get("group")
        if dev is None or ts is None or group is None:
            skipped += 1
            continue
        try:
            day = datetime.fromtimestamp(float(ts), tz=timezone.utc).date().isoformat()
        except (TypeError, ValueError, OverflowError, OSError):
            skipped += 1
            continue
        counts[(str(dev), day, str(group))] = counts.get((str(dev), day, str(group)), 0) + 1
    observations = [
        AbObservation(developer_id=dev, day=day, accept_count=c, group=group)
        for (dev, day, group), c in sorted(counts.items())
    ]
    return observations, skipped


def _stats(observations: Sequence[AbObservation]) -> GroupStats:
    n = len(observations)
    values = [o.accept_count for o in observations]
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    return GroupStats(
        observations=n,
        mean=mean,
        std_dev=std,
        unique_developers=len({o.developer_id for o in observations}),
    )


def compare(
    control: Sequence[AbObservation], experiment: Sequence[AbObservation]
) -> AbReport:
    """Relative mean lift of the experiment group over control plus the
    Welch two-sided p-value."""
    if not control or not experiment:
        raise ValueError("both groups need at least one observation")
    cs = _stats(control)
    es = _stats(experiment)
    if cs.mean == 0.0:
        raise ValueError("improvement undefined: control mean is zero")
    improvement = (es.mean - cs.mean) / cs.mean
    if cs.observations < 2 or es.observations < 2:
        log.warning("group too small for a t-test; reporting p=1.0")
        p = 1.0
    else:
        values_c = [float(o.accept_count) for o in control]
        values_e = [float(o.accept_count) for o in experiment]
        if cs.std_dev == 0.0 and es.std_dev == 0.0 and cs.mean == es.mean:
            log.warning("zero variance in both groups with equal means; p=1.0")
            p = 1.0
        else:
            _, _, p = welch_t_test(values_e, values_c)
    return AbReport(control=cs, experiment=es, improvement=improvement, p_value=p)


def write_report_json(reports: dict[str, AbReport], path: str | Path) -> None:
    """One object keyed by experiment group, each holding its report."""
    payload = {label: report.to_dict() for label, report in reports.items()}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_report_csv(
    reports: dict[str, AbReport], path: str | Path
) -> None:
    """One row per experiment group, mirroring the production-report table."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(
            [
                "group",
                "observations",
                "mean",
                "std_dev",
                "unique_developers",
                "improvement",
                "p_value",
            ]
        )
        for label, report in reports.items():
            c = report.control
            writer.writerow(
                ["control", c.observations, f"{c.mean:.6f}", f"{c.std_dev:.6f}", c.unique_developers, "", ""]
            )
            e = report.experiment
            writer.writerow(
                [
                    label,
                    e.observations,
                    f"{e.mean:.6f}",
                    f"{e.std_dev:.6f}",
                    e.unique_developers,
                    f"{report.improvement:.6f}",
                    f"{report.p_value:.6f}",
                ]
            )
