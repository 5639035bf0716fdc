import pytest
from hypothesis import given, strategies as st

from complab.corpus import EvalExample
from complab.evalsuite import evaluate, report_from_ranks
from complab.lexer import Token, TokenKind


def _example(target, context=("$x", "=")):
    return EvalExample(
        context_texts=tuple(context),
        target=Token(target, TokenKind.IDENTIFIER),
        file_id="f",
    )


def _ranked_stub(order):
    """topk function placing targets at fixed ranks via a candidate list."""

    def topk(context, k):
        return [(text, 1.0 / (i + 1)) for i, text in enumerate(order)][:k]

    return topk


def test_hand_computed_case_ranks_1_2_11():
    # Targets at ranks 1, 2, and 11; with cutoff 10 the third is a miss.
    candidates = [f"c{i}" for i in range(1, 12)]
    examples = [_example("c1"), _example("c2"), _example("c11")]
    report = evaluate(_ranked_stub(candidates), examples, cutoff=10)
    assert report.top1 == pytest.approx(1 / 3)
    assert report.mrr == pytest.approx(0.5)
    assert report.per_example_ranks == (1, 2, None)


def test_all_rank_one():
    examples = [_example("best")] * 4
    report = evaluate(_ranked_stub(["best", "other"]), examples)
    assert report.top1 == 1.0 and report.mrr == 1.0


def test_all_oov_targets_score_zero():
    examples = [_example("absent1"), _example("absent2")]
    report = evaluate(_ranked_stub(["a", "b", "c"]), examples)
    assert report.top1 == 0.0 and report.mrr == 0.0
    assert report.per_example_ranks == (None, None)


def test_empty_examples_error():
    with pytest.raises(ValueError):
        evaluate(_ranked_stub(["a"]), [])
    with pytest.raises(ValueError):
        report_from_ranks([])


def test_report_from_ranks_cutoff():
    report = report_from_ranks([1, 2, 11], cutoff=10)
    assert report.mrr == pytest.approx(0.5)
    wider = report_from_ranks([1, 2, 11], cutoff=11)
    assert wider.mrr == pytest.approx((1 + 0.5 + 1 / 11) / 3)


def test_permutation_invariance():
    examples = [_example("c1"), _example("c5"), _example("zz")]
    stub = _ranked_stub([f"c{i}" for i in range(1, 11)])
    a = evaluate(stub, examples)
    b = evaluate(stub, list(reversed(examples)))
    assert a.top1 == b.top1 and a.mrr == b.mrr


def test_mrr_matches_bruteforce_recompute():
    ranks = [1, 3, None, 7, 2, None, 10]
    report = report_from_ranks(ranks)
    brute = sum(1.0 / r for r in ranks if r is not None and r <= 10) / len(ranks)
    assert report.mrr == brute


def test_bounds_top1_le_mrr_le_1():
    ranks = [1, 2, 5, None, 1, 9]
    report = report_from_ranks(ranks)
    assert 0.0 <= report.top1 <= report.mrr <= 1.0


@given(
    st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
        min_size=1,
        max_size=50,
    )
)
def test_report_properties(ranks):
    report = report_from_ranks(ranks, cutoff=10)
    assert 0.0 <= report.top1 <= report.mrr <= 1.0
    assert report.n == len(ranks)
    recompute = sum(
        1.0 / r for r in report.per_example_ranks if r is not None
    ) / report.n
    assert report.mrr == recompute
