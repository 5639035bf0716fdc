import math

import pytest

from complab.datagen import (
    DAY,
    GENERATION_EPOCH,
    DomainProfile,
    LengthMixture,
    ProfileError,
    default_profiles,
    edit_profile,
    generate,
    solve_length_mixture,
)
from complab.lexer import is_identifier_like, join_tokens, tokenize
from oracles import measure_marginals


def small(profile, files=60, tokens_per_file=400):
    return DomainProfile(
        name=profile.name,
        mean_token_len=profile.mean_token_len,
        frac_len_le6=profile.frac_len_le6,
        frac_local_var=profile.frac_local_var,
        vocab_pool_weights=profile.vocab_pool_weights,
        files=files,
        tokens_per_file=tokens_per_file,
        recency_modified_frac=profile.recency_modified_frac,
    )


def test_default_profile_values():
    committed, completion = default_profiles()
    assert committed.mean_token_len == 12.78
    assert committed.frac_len_le6 == 0.2753
    assert committed.frac_local_var == 0.3534
    assert committed.recency_modified_frac == 0.2338
    assert completion.mean_token_len == 14.31
    assert completion.frac_len_le6 == 0.1715
    assert completion.frac_local_var == 0.3013


def test_profiles_share_core_but_differ():
    committed, completion = default_profiles()
    assert committed.vocab_pool_weights["core"] > 0
    assert completion.vocab_pool_weights["core"] > 0
    assert set(committed.vocab_pool_weights) != set(completion.vocab_pool_weights)


def test_pool_weights_must_sum_to_one():
    with pytest.raises(ProfileError):
        DomainProfile(
            name="bad",
            mean_token_len=10.0,
            frac_len_le6=0.3,
            frac_local_var=0.3,
            vocab_pool_weights={"core": 0.5},
            files=1,
            tokens_per_file=10,
            recency_modified_frac=0.5,
        )


def test_mixture_solution_hits_moments_analytically():
    mix = solve_length_mixture(12.78, 0.2753)
    p_le6 = mix.weight_short * (1 - (1 - mix.p_short) ** 5)
    mean = mix.weight_short * (2 + (1 - mix.p_short) / mix.p_short) + (
        1 - mix.weight_short
    ) * (7 + (1 - mix.p_long) / mix.p_long)
    assert p_le6 == pytest.approx(0.2753, abs=1e-12)
    assert mean == pytest.approx(12.78, abs=1e-9)


def test_mixture_infeasible_targets_raise():
    with pytest.raises(ProfileError):
        solve_length_mixture(mean=30.0, frac_le6=0.95)  # too much short mass
    with pytest.raises(ProfileError):
        solve_length_mixture(mean=5.0, frac_le6=0.1)  # mean unreachable


def test_mixture_sampling_moments():
    import random

    mix = solve_length_mixture(12.78, 0.2753)
    rng = random.Random(11)
    draws = [mix.sample(rng) for _ in range(60_000)]
    assert sum(draws) / len(draws) == pytest.approx(12.78, abs=0.2)
    assert sum(1 for d in draws if d <= 6) / len(draws) == pytest.approx(
        0.2753, abs=0.01
    )
    assert min(draws) >= 2


def test_generate_deterministic():
    committed, _ = default_profiles()
    profile = small(committed, files=8, tokens_per_file=120)
    files_a, _ = generate(profile, seed=3)
    files_b, _ = generate(profile, seed=3)
    assert [f.file_id for f in files_a] == [f.file_id for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert [t.text for t in fa.tokens] == [t.text for t in fb.tokens]
        assert fa.last_modified == fb.last_modified
    files_c, _ = generate(profile, seed=4)
    assert any(
        [t.text for t in fa.tokens] != [t.text for t in fc.tokens]
        for fa, fc in zip(files_a, files_c)
    )


def test_generated_files_relex_cleanly():
    committed, _ = default_profiles()
    files, _ = generate(small(committed, files=4, tokens_per_file=150), seed=1)
    for record in files:
        relexed = tokenize(join_tokens(record.tokens))
        assert [t.text for t in relexed] == [t.text for t in record.tokens]


def test_small_scale_marginals():
    committed, completion = default_profiles()
    files, _ = generate(small(committed, files=120, tokens_per_file=500), seed=9)
    m = measure_marginals(files)
    assert m["mean_len"] == pytest.approx(12.78, abs=0.35)
    assert m["frac_len_le6"] == pytest.approx(0.2753, abs=0.02)
    assert m["frac_local_var"] == pytest.approx(0.3534, abs=0.02)


def test_recency_fraction_deterministic_count():
    committed, _ = default_profiles()
    profile = small(committed, files=200, tokens_per_file=60)
    files, _ = generate(profile, seed=2)
    recent = [f for f in files if GENERATION_EPOCH - f.last_modified <= 90 * DAY]
    assert len(recent) == round(0.2338 * 200)


def test_completion_profile_emits_events_with_true_context():
    _, completion = default_profiles()
    profile = small(completion, files=12, tokens_per_file=300)
    files, events = generate(profile, seed=5)
    assert events, "completion profile should emit events"
    by_id = {f.file_id: f for f in files}
    for event in events[:200]:
        assert is_identifier_like(event.accepted.kind)
        record = by_id[event.file_id]
        texts = [t.text for t in record.tokens]
        # Context must be the tokens immediately before some occurrence.
        window = list(event.context)
        found = any(
            text == event.accepted.text and window == texts[max(0, p - 100) : p]
            for p, text in enumerate(texts)
        )
        assert found, f"context not found for {event.accepted.text}"


def test_committed_profile_emits_no_events():
    committed, _ = default_profiles()
    _, events = generate(small(committed, files=4, tokens_per_file=100), seed=1)
    assert events == []


def test_event_timestamps_within_collection_window():
    _, completion = default_profiles()
    _, events = generate(small(completion, files=8, tokens_per_file=200), seed=6)
    for event in events:
        assert GENERATION_EPOCH - 90 * DAY <= event.timestamp <= GENERATION_EPOCH


def test_cross_domain_vocabulary_overlap_is_partial():
    committed, completion = default_profiles()
    files_c, _ = generate(small(committed, files=40, tokens_per_file=300), seed=7)
    files_p, _ = generate(small(completion, files=40, tokens_per_file=300), seed=7)

    def identifier_set(files):
        return {
            t.text.lstrip("$")
            for f in files
            for t in f.tokens
            if is_identifier_like(t.kind)
        }

    ids_c = identifier_set(files_c)
    ids_p = identifier_set(files_p)
    shared = ids_c & ids_p
    assert shared, "core pool should create overlap"
    assert ids_c - ids_p, "committed-only names expected"
    assert ids_p - ids_c, "completion-only names expected"


def test_edit_profile_is_valid_and_recent():
    profile = edit_profile()
    assert math.isclose(sum(profile.vocab_pool_weights.values()), 1.0)
    files, events = generate(small(profile, files=20, tokens_per_file=100), seed=1)
    assert events == []
    assert sum(GENERATION_EPOCH - f.last_modified <= 90 * DAY for f in files) == 20
