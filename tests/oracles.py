"""Independent oracles used to cross-check the main implementations.

Deliberately naive: direct transcriptions of the defining formulas with
per-query rescanning (Kneser-Ney, Welch's test), central differences
against the transformer's analytic gradients, and direct counts of a
generated corpus's marginals. Beyond the function they check, they share no
code or data layout with the package under test.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from complab.datagen import DAY, GENERATION_EPOCH
from complab.lexer import TokenKind, is_identifier_like
from complab.transformer import loss


class BruteForceKN:
    """Interpolated modified Kneser-Ney evaluated straight from count
    tables.

    Raw k-gram counts are collected for every order; adjusted counts,
    count-of-count discounts, and backoff weights are recomputed from
    scratch on each probability query.
    """

    def __init__(self, sequences, order, vocab_size, unk_id=0, pad_id=1):
        self.order = order
        self.vocab_size = vocab_size
        self.unk_id = unk_id
        self.pad_id = pad_id
        self.raw = {k: Counter() for k in range(1, order + 1)}
        for seq in sequences:
            clean = []
            for t in seq:
                if t == pad_id:
                    break
                clean.append(t)
            for k in range(1, order + 1):
                for i in range(len(clean) - k + 1):
                    self.raw[k][tuple(clean[i : i + k])] += 1

    def adjusted(self, k: int) -> Counter:
        if k == self.order:
            return self.raw[k]
        return Counter(gram[1:] for gram in self.raw[k + 1])

    def discounts(self, k: int) -> tuple[float, float, float]:
        table = self.adjusted(k)
        if k == 1:
            table = Counter(
                {g: c for g, c in table.items() if g[0] != self.pad_id}
            )
        coc = Counter(c for c in table.values() if 1 <= c <= 4)
        n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
        if n1 == 0 or n2 == 0:
            return 0.75, 0.75, 0.75
        y = n1 / (n1 + 2 * n2)
        d1 = min(max(1 - 2 * y * n2 / n1, 0.0), 1.0)
        d2 = min(max(2 - 3 * y * n3 / n2, 0.0), 2.0)
        d3 = min(max(3 - 4 * y * n4 / n3, 0.0), 3.0) if n3 > 0 else 3.0
        return d1, d2, d3

    def _discount_of(self, c: int, d: tuple[float, float, float]) -> float:
        if c <= 0:
            return 0.0
        return d[0] if c == 1 else d[1] if c == 2 else d[2]

    def _base(self, w: int) -> float:
        if w in (self.unk_id, self.pad_id):
            return 0.0
        return 1.0 / (self.vocab_size - 2)

    def prob(self, context, w: int) -> float:
        h = tuple(context)[-(self.order - 1) :]
        return self._p(h, w)

    def _p(self, h, w: int) -> float:
        if len(h) == 0:
            table = {
                g[0]: c
                for g, c in self.adjusted(1).items()
                if g[0] != self.pad_id
            }
            total = sum(table.values())
            if total == 0:
                return self._base(w)
            d = self.discounts(1)
            n1 = sum(1 for c in table.values() if c == 1)
            n2 = sum(1 for c in table.values() if c == 2)
            n3p = sum(1 for c in table.values() if c >= 3)
            gamma = (d[0] * n1 + d[1] * n2 + d[2] * n3p) / total
            c = table.get(w, 0)
            return max(c - self._discount_of(c, d), 0.0) / total + gamma * self._base(w)
        k = len(h) + 1
        table = {
            gram[-1]: c
            for gram, c in self.adjusted(k).items()
            if gram[:-1] == h
        }
        total = sum(table.values())
        if total == 0:
            return self._p(h[1:], w)
        d = self.discounts(k)
        n1 = sum(1 for c in table.values() if c == 1)
        n2 = sum(1 for c in table.values() if c == 2)
        n3p = sum(1 for c in table.values() if c >= 3)
        gamma = (d[0] * n1 + d[1] * n2 + d[2] * n3p) / total
        c = table.get(w, 0)
        return max(c - self._discount_of(c, d), 0.0) / total + gamma * self._p(h[1:], w)


def welch_p_by_integration(sample_a, sample_b) -> float:
    """Two-sided Welch p-value via numerical integration of the
    t-distribution density (quadrature, not the incomplete beta)."""
    from scipy import integrate

    na, nb = len(sample_a), len(sample_b)
    ma = sum(sample_a) / na
    mb = sum(sample_b) / nb
    va = sum((x - ma) ** 2 for x in sample_a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in sample_b) / (nb - 1)
    sa, sb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))

    log_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )

    def density(x):
        return math.exp(log_norm - ((df + 1) / 2) * math.log1p(x * x / df))

    tail, _ = integrate.quad(density, abs(t), math.inf)
    return 2.0 * tail


class GradCheckError(RuntimeError):
    pass


def grad_check(params, batch, config, h=1e-5, n_coords=200, seed=0) -> float:
    """Max relative error between analytic and central-difference gradients
    over >= n_coords randomly sampled parameter coordinates.

    Relative error falls back to absolute error when both gradients are
    near zero. Parameters must be double precision.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise GradCheckError(f"grad_check requires float64 params ({name})")
        p.grad = None
    out = loss(params, batch, config)
    out.backward()
    analytic = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            bad = np.argwhere(~np.isfinite(g))[0]
            raise GradCheckError(f"non-finite gradient at {name}[{tuple(bad)}]")
        analytic[name] = g

    rng = np.random.default_rng(seed)
    names = sorted(params)
    sizes = np.array([params[n].data.size for n in names], dtype=np.float64)
    probs = sizes / sizes.sum()
    max_err = 0.0
    for _ in range(n_coords):
        name = names[rng.choice(len(names), p=probs)]
        flat_idx = int(rng.integers(params[name].data.size))
        idx = np.unravel_index(flat_idx, params[name].data.shape)
        original = params[name].data[idx]
        params[name].data[idx] = original + h
        up = float(loss(params, batch, config).data)
        params[name].data[idx] = original - h
        down = float(loss(params, batch, config).data)
        params[name].data[idx] = original
        numeric = (up - down) / (2.0 * h)
        a = float(analytic[name][idx])
        denom = max(abs(a), abs(numeric))
        err = abs(a - numeric) if denom < 1e-8 else abs(a - numeric) / denom
        max_err = max(max_err, err)
    return max_err


def measure_marginals(files, now: float = GENERATION_EPOCH) -> dict[str, float]:
    """Observed identifier marginals of a generated corpus."""
    lengths: list[int] = []
    locals_count = 0
    n_files = 0
    n_recent = 0
    for record in files:
        n_files += 1
        if now - record.last_modified <= 90 * DAY:
            n_recent += 1
        for token in record.tokens:
            if is_identifier_like(token.kind):
                lengths.append(len(token.text))
                if token.kind is TokenKind.LOCAL_VARIABLE:
                    locals_count += 1
    if not lengths:
        raise ValueError("no identifiers found")
    n = len(lengths)
    return {
        "identifiers": float(n),
        "mean_len": sum(lengths) / n,
        "frac_len_le6": sum(1 for x in lengths if x <= 6) / n,
        "frac_local_var": locals_count / n,
        "recent_file_frac": n_recent / n_files if n_files else 0.0,
    }
