"""Synthetic committed-like and completion-like corpora.

Stand-in for proprietary production corpora: emits skeletal statements over
pool-sampled identifiers whose marginal statistics (mean identifier length,
share of short identifiers, local-variable share, recently-modified file
fraction) are controlled by a DomainProfile. Identifier lengths come from a
two-component mixture of shifted geometric distributions solved to hit the
(mean, P(len <= 6)) pair; surfaces are camelCase syllable concatenations.

Committed-like and completion-like profiles share a core name pool but also
draw from disjoint domain pools, so cross-domain vocabulary drift exists by
construction.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass

from .corpus import WINDOW, CompletionEvent, FileRecord, tokens_from_texts
from .lexer import is_identifier_like

# Fixed "now" anchor so recency metadata is reproducible.
GENERATION_EPOCH = 1_700_000_000.0
DAY = 86_400.0

_MAX_NAME_LEN = 80
_ROSTER_SIZE = 160
_ZIPF_ALPHA = 1.1
_REUSE_PROB = 0.45
_WORKING_SET = 12

_CORE_SYLLABLES = (
    "get set add has list item name value count index data node map key "
    "user file path read write load save init make build run test text "
    "size next prev total temp flag meta info page view form field query "
    "cache util sum min max pos buf err log msg id"
).split()

_COMMITTED_SYLLABLES = (
    "repo commit branch merge diff blame hook stage tree blob tag ref "
    "push pull clone patch review audit legacy archive"
).split()

_COMPLETION_SYLLABLES = (
    "fetch render async await state props event click input modal toast "
    "panel widget stream socket auth session route scroll drag"
).split()

_POOL_SYLLABLES = {
    "core": _CORE_SYLLABLES,
    "committed": _COMMITTED_SYLLABLES,
    "completion": _COMPLETION_SYLLABLES,
}

_STRING_LITERALS = ['"ok"', '"err"', '"id"', '"none"', '"done"', '"x"']


class ProfileError(ValueError):
    """Raised when a profile's marginals are unreachable."""


@dataclass(frozen=True, slots=True)
class DomainProfile:
    name: str
    mean_token_len: float
    frac_len_le6: float
    frac_local_var: float
    vocab_pool_weights: dict[str, float]
    files: int
    tokens_per_file: int
    recency_modified_frac: float

    def __post_init__(self):
        total = sum(self.vocab_pool_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ProfileError(f"pool weights sum to {total}, expected 1")
        for label, value in (
            ("frac_len_le6", self.frac_len_le6),
            ("frac_local_var", self.frac_local_var),
            ("recency_modified_frac", self.recency_modified_frac),
        ):
            if not 0.0 <= value <= 1.0:
                raise ProfileError(f"{label}={value} outside [0, 1]")


def default_profiles() -> tuple[DomainProfile, DomainProfile]:
    """Committed-like and completion-like profiles at measured marginals."""
    committed = DomainProfile(
        name="committed",
        mean_token_len=12.78,
        frac_len_le6=0.2753,
        frac_local_var=0.3534,
        vocab_pool_weights={"core": 0.65, "committed": 0.35},
        files=650,
        tokens_per_file=520,
        recency_modified_frac=0.2338,
    )
    completion = DomainProfile(
        name="completion",
        mean_token_len=14.31,
        frac_len_le6=0.1715,
        frac_local_var=0.3013,
        vocab_pool_weights={"core": 0.65, "completion": 0.35},
        files=650,
        tokens_per_file=520,
        recency_modified_frac=1.0,
    )
    return committed, completion


def edit_profile() -> DomainProfile:
    """Synthetic edit-snapshot stand-in: committed-like marginals, fully
    recent files, and partial exposure to the completion pool."""
    return DomainProfile(
        name="edit",
        mean_token_len=12.78,
        frac_len_le6=0.2753,
        frac_local_var=0.3534,
        vocab_pool_weights={"core": 0.65, "committed": 0.20, "completion": 0.15},
        files=650,
        tokens_per_file=520,
        recency_modified_frac=1.0,
    )


# --------------------------------------------------------------------------
# Identifier length mixture: short component 2 + Geom(p_short), long
# component 7 + Geom(p_long). The short-component parameter is fixed; the
# mixture weight and tail parameter carry the two target moments.
# --------------------------------------------------------------------------

_P_SHORT = 0.30


@dataclass(frozen=True, slots=True)
class LengthMixture:
    weight_short: float
    p_short: float
    p_long: float

    def sample(self, rng: random.Random) -> int:
        if rng.random() < self.weight_short:
            base, p = 2, self.p_short
        else:
            base, p = 7, self.p_long
        u = rng.random()
        length = base + int(math.log1p(-u) / math.log1p(-p))
        return min(length, _MAX_NAME_LEN)


def solve_length_mixture(mean: float, frac_le6: float) -> LengthMixture:
    """Solve (weight, tail parameter) to match the target mean and
    P(len <= 6). Raises ProfileError naming the violated constraint."""
    p_short_le6 = 1.0 - (1.0 - _P_SHORT) ** 5
    mean_short = 2.0 + (1.0 - _P_SHORT) / _P_SHORT
    weight = frac_le6 / p_short_le6
    if weight > 1.0:
        raise ProfileError(
            f"frac_len_le6={frac_le6} exceeds the short component's "
            f"reachable mass {p_short_le6:.4f}"
        )
    if weight >= 1.0 - 1e-12:
        raise ProfileError("mixture degenerates: no mass left for long names")
    mean_long = (mean - weight * mean_short) / (1.0 - weight)
    if mean_long <= 7.0:
        raise ProfileError(
            f"mean_token_len={mean} too small for long-component "
            f"mean {mean_long:.4f} (must exceed 7)"
        )
    p_long = 1.0 / (mean_long - 6.0)
    return LengthMixture(weight_short=weight, p_short=_P_SHORT, p_long=p_long)


# --------------------------------------------------------------------------
# Name pools
# --------------------------------------------------------------------------


def _roster_seed(pool: str, length: int) -> int:
    digest = hashlib.sha256(f"roster|{pool}|{length}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _make_name(rng: random.Random, syllables: list[str], length: int) -> str:
    parts = [rng.choice(syllables)]
    while sum(len(p) for p in parts) < length:
        parts.append(rng.choice(syllables))
    name = parts[0] + "".join(p.capitalize() for p in parts[1:])
    return name[:length]


class _Pool:
    """Per-(pool, length) name rosters with Zipf-ranked sampling.

    Rosters are keyed by pool name only, so the core pool yields identical
    names for every profile that shares it.
    """

    def __init__(self, name: str):
        self.name = name
        self.syllables = list(_POOL_SYLLABLES[name])
        self._rosters: dict[int, list[str]] = {}
        self._cumweights: dict[int, list[float]] = {}

    def _roster(self, length: int) -> list[str]:
        roster = self._rosters.get(length)
        if roster is None:
            rng = random.Random(_roster_seed(self.name, length))
            seen: set[str] = set()
            roster = []
            attempts = 0
            while len(roster) < _ROSTER_SIZE and attempts < _ROSTER_SIZE * 40:
                attempts += 1
                candidate = _make_name(rng, self.syllables, length)
                if candidate in seen:
                    suffix = str(len(roster) % 10)
                    candidate = candidate[:-1] + suffix if length > 1 else candidate
                if candidate not in seen:
                    seen.add(candidate)
                    roster.append(candidate)
            self._rosters[length] = roster
            acc = 0.0
            cum = []
            for rank in range(len(roster)):
                acc += 1.0 / (rank + 1) ** _ZIPF_ALPHA
                cum.append(acc)
            self._cumweights[length] = cum
        return roster

    def sample(self, rng: random.Random, length: int) -> str:
        roster = self._roster(length)
        cum = self._cumweights[length]
        u = rng.random() * cum[-1]
        return roster[bisect.bisect_left(cum, u)]


# --------------------------------------------------------------------------
# Statement skeletons. `I` marks an identifier slot, `N` a number literal,
# `S` a string literal; everything else is emitted verbatim.
# --------------------------------------------------------------------------

_TEMPLATES = [
    ["I", "=", "I", "(", "I", ",", "I", ")", ";"],
    ["return", "I", ";"],
    ["if", "(", "I", "==", "N", ")", "{", "I", "=", "I", "(", "I", ")", ";", "}"],
    ["I", "=", "I", "->", "I", "(", "S", ")", ";"],
    ["I", "=", "N", ";"],
    ["I", "(", "I", ",", "S", ")", ";"],
    ["foreach", "(", "I", "=>", "I", ")", "{", "I", "=", "I", "+", "N", ";", "}"],
]


class _IdentifierSampler:
    def __init__(self, profile: DomainProfile, pools: dict[str, _Pool]):
        self.profile = profile
        self.mixture = solve_length_mixture(
            profile.mean_token_len, profile.frac_len_le6
        )
        names = sorted(profile.vocab_pool_weights)
        self.pool_names = names
        self.pool_cum: list[float] = []
        acc = 0.0
        for n in names:
            acc += profile.vocab_pool_weights[n]
            self.pool_cum.append(acc)
        self.pools = pools
        self.recent: list[str] = []

    def fresh(self, rng: random.Random) -> str:
        u = rng.random() * self.pool_cum[-1]
        pool = self.pools[self.pool_names[bisect.bisect_left(self.pool_cum, u)]]
        length = self.mixture.sample(rng)
        if rng.random() < self.profile.frac_local_var:
            # Sigil counts toward the measured length.
            return "$" + pool.sample(rng, max(1, length - 1))
        return pool.sample(rng, length)

    def next(self, rng: random.Random) -> str:
        if self.recent and rng.random() < _REUSE_PROB:
            return rng.choice(self.recent)
        surface = self.fresh(rng)
        self.recent.append(surface)
        if len(self.recent) > _WORKING_SET:
            self.recent.pop(0)
        return surface


def _file_tokens(
    rng: random.Random, sampler: _IdentifierSampler, budget: int
) -> list[str]:
    texts: list[str] = []
    sampler.recent = []
    while len(texts) < budget:
        template = _TEMPLATES[rng.randrange(len(_TEMPLATES))]
        for slot in template:
            if slot == "I":
                texts.append(sampler.next(rng))
            elif slot == "N":
                texts.append(str(rng.randrange(100)))
            elif slot == "S":
                texts.append(_STRING_LITERALS[rng.randrange(len(_STRING_LITERALS))])
            else:
                texts.append(slot)
    return texts[:budget]


def generate(
    profile: DomainProfile,
    seed: int,
    event_rate: float | None = None,
    now: float = GENERATION_EPOCH,
) -> tuple[list[FileRecord], list[CompletionEvent]]:
    """Generate a synthetic corpus; byte-identical for identical inputs.

    Completion-like profiles additionally emit one CompletionEvent per
    sampled identifier occurrence, carrying the true preceding context.
    """
    if event_rate is None:
        event_rate = 0.05 if profile.name == "completion" else 0.0
    rng = random.Random(seed)
    pools = {name: _Pool(name) for name in profile.vocab_pool_weights}
    sampler = _IdentifierSampler(profile, pools)

    n_recent = round(profile.recency_modified_frac * profile.files)
    recent_ids = set(rng.sample(range(profile.files), n_recent))

    files: list[FileRecord] = []
    events: list[CompletionEvent] = []
    for fi in range(profile.files):
        texts = _file_tokens(rng, sampler, profile.tokens_per_file)
        tokens = tokens_from_texts(texts)
        if fi in recent_ids:
            last_modified = now - rng.random() * 89.0 * DAY
        else:
            last_modified = now - (91.0 + rng.random() * 1100.0) * DAY
        file_id = f"{profile.name}-{fi:05d}"
        files.append(
            FileRecord(file_id=file_id, tokens=tokens, last_modified=last_modified)
        )
        if event_rate > 0.0:
            for pos in range(1, len(tokens)):
                if not is_identifier_like(tokens[pos].kind):
                    continue
                if rng.random() >= event_rate:
                    continue
                events.append(
                    CompletionEvent(
                        context=tuple(texts[max(0, pos - WINDOW) : pos]),
                        accepted=tokens[pos],
                        developer_id=f"dev{rng.randrange(120):03d}",
                        timestamp=now - rng.random() * 90.0 * DAY,
                        file_id=file_id,
                    )
                )
    return files, events

