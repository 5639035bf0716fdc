import pytest

from complab.analysis import (
    accuracy_by_context_oov,
    accuracy_by_length,
    kind_distribution,
    length_cdf,
    oov_rate_context,
    oov_rate_targets,
    write_accuracy_by_length_csv,
    write_accuracy_by_oov_csv,
    write_kind_distribution_csv,
    write_length_cdf_csv,
    write_oov_rates_csv,
)
from complab.corpus import EvalExample
from complab.lexer import Token, TokenKind, classify_text
from complab.vocab import build_vocab


def _example(target, context=("a", "b")):
    return EvalExample(
        context_texts=tuple(context),
        target=Token(target, classify_text(target)),
        file_id="f",
    )


def test_oov_rate_targets():
    vocab = build_vocab([["a", "b"]], max_size=10)
    examples = [_example(t) for t in ["a", "c", "b", "d"]]
    assert oov_rate_targets(vocab, examples) == 0.5
    assert oov_rate_targets(vocab, [_example("a"), _example("b")]) == 0.0
    with pytest.raises(ValueError):
        oov_rate_targets(vocab, [])


def test_oov_rate_context():
    vocab = build_vocab([["a"]], max_size=10)
    examples = [_example("a", context=("a", "c"))]
    assert oov_rate_context(vocab, examples) == 0.5


def test_length_cdf_basic():
    examples = [_example("abc"), _example("abcdefg")]
    rows = dict(length_cdf(examples))
    assert rows[6] == 0.5
    assert rows[40] == 1.0
    values = [frac for _, frac in length_cdf(examples)]
    assert values == sorted(values)


def test_length_cdf_pools_long_tail():
    examples = [_example("x" * 50)]
    rows = length_cdf(examples)
    assert rows[-1] == (40, 1.0)
    assert rows[-2][1] == 0.0


def test_accuracy_by_length_binning():
    examples = [_example("abc"), _example("abcde")]
    rows = accuracy_by_length([1, None], examples, bin_width=4)
    assert rows == [("1-4", 1.0, 1), ("5-8", 0.0, 1)]


def test_accuracy_by_length_misaligned():
    with pytest.raises(ValueError):
        accuracy_by_length([1], [_example("a"), _example("b")])


def test_accuracy_by_length_empty_bins_omitted():
    examples = [_example("ab"), _example("x" * 20)]
    rows = accuracy_by_length([1, 1], examples)
    assert len(rows) == 2  # nothing between the two occupied bins


def test_accuracy_by_context_oov_groups_partition():
    vocab = build_vocab([["a", "b"]], max_size=10)
    examples = [
        _example("a", context=("a", "b")),   # 0 OOV
        _example("a", context=("a", "zz")),  # 1 OOV
        _example("b", context=("qq", "zz")),  # 2 OOV
    ]
    tables = accuracy_by_context_oov([1, None, 1], examples, vocab)
    count_rows = tables["count"]
    assert [r[0] for r in count_rows] == ["0", "1", "2"]
    assert sum(r[2] for r in count_rows) == len(examples)
    frac_rows = tables["fraction"]
    assert sum(r[2] for r in frac_rows) == len(examples)


def test_kind_distribution():
    examples = [_example("$a"), _example("b"), _example("$c")]
    dist = kind_distribution(examples)
    assert dist[TokenKind.LOCAL_VARIABLE] == pytest.approx(2 / 3)
    assert dist[TokenKind.IDENTIFIER] == pytest.approx(1 / 3)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_csv_writers_emit_expected_files(tmp_path):
    examples = [_example("$ab"), _example("cdef")]
    vocab = build_vocab([["a", "b"]], max_size=10)
    write_length_cdf_csv(tmp_path, {"committed": length_cdf(examples)})
    write_kind_distribution_csv(tmp_path, {"committed": kind_distribution(examples)})
    write_accuracy_by_length_csv(
        tmp_path, {"m": accuracy_by_length([1, None], examples)}
    )
    write_accuracy_by_oov_csv(
        tmp_path, {"m": accuracy_by_context_oov([1, None], examples, vocab)}
    )
    write_oov_rates_csv(tmp_path, [("committed", "completion", 0.3, 0.2)])
    expected = [
        "fig4_accuracy_by_length.csv",
        "fig5_length_cdf.csv",
        "fig6_accuracy_by_oov.csv",
        "kind_distribution.csv",
        "oov_rates.csv",
    ]
    for name in expected:
        content = (tmp_path / name).read_text()
        assert content.count("\n") >= 2, name


def test_csv_deterministic(tmp_path):
    examples = [_example("$ab"), _example("cdef")]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    write_length_cdf_csv(a_dir, {"c": length_cdf(examples)})
    write_length_cdf_csv(b_dir, {"c": length_cdf(examples)})
    assert (a_dir / "fig5_length_cdf.csv").read_bytes() == (
        b_dir / "fig5_length_cdf.csv"
    ).read_bytes()
