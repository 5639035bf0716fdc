import pytest
from hypothesis import given, strategies as st

from complab.vocab import (
    PAD,
    PAD_ID,
    UNK,
    UNK_ID,
    Vocabulary,
    build_vocab,
    encode,
    load_vocab,
    save_vocab,
)


def test_frequency_cut():
    v = build_vocab([["a"] * 3 + ["b"] * 2 + ["c"]], max_size=2)
    assert set(v.id_of) == {UNK, PAD, "a", "b"}
    assert v.id("a") == 2 and v.id("b") == 3


def test_lexicographic_tie_break():
    v = build_vocab([["b", "a", "b", "a"]], max_size=1)
    assert "a" in v.id_of and "b" not in v.id_of


def test_empty_corpus_keeps_specials_only():
    v = build_vocab([], max_size=10)
    assert set(v.id_of) == {UNK, PAD}
    assert v.id_of == {UNK: UNK_ID, PAD: PAD_ID} and (UNK_ID, PAD_ID) == (0, 1)


@pytest.mark.parametrize(
    "id_of",
    [
        {UNK: 1, PAD: 0, "a": 2},
        {PAD: 1, "a": 2},
        {UNK: 0, PAD: 1, "a": 3},
        {UNK: 0, PAD: 1, "a": 2, "b": 2},
    ],
    ids=["specials-swapped", "no-unk", "gap", "shared-id"],
)
def test_vocabulary_rejects_a_broken_id_map(id_of):
    with pytest.raises(ValueError):
        Vocabulary(id_of=id_of, max_size=10)


def test_text_of_is_derived_from_id_of():
    v = Vocabulary(id_of={UNK: 0, PAD: 1, "a": 2}, max_size=10)
    assert v.text_of == {0: UNK, 1: PAD, 2: "a"}
    with pytest.raises(TypeError):
        Vocabulary(id_of={UNK: 0, PAD: 1}, max_size=10, text_of={0: "x", 1: "y"})


def test_ids_dense_and_frequency_ordered():
    v = build_vocab([["x"] * 5 + ["m"] * 3 + ["a"] * 3 + ["z"]], max_size=10)
    assert sorted(v.id_of.values()) == list(range(len(v)))
    # x most frequent, then a/m tie broken lexicographically
    assert v.id("x") == 2 and v.id("a") == 3 and v.id("m") == 4


def test_encode_windows_and_padding():
    v = build_vocab([["a"]], max_size=5)
    windows = encode(["a"] * 250, v, window=100)
    assert len(windows) == 3
    assert all(len(w) == 100 for w in windows)
    assert windows[2][49] == v.id("a")
    assert windows[2][50:] == [PAD_ID] * 50


def test_encode_oov_becomes_unk():
    v = build_vocab([["a"]], max_size=5)
    (window,) = encode(["a", "zzz"], v, window=2)
    assert window == [v.id("a"), UNK_ID]


def test_encode_empty_stream():
    v = build_vocab([["a"]], max_size=5)
    assert encode([], v, window=10) == []


def test_encode_rejects_tiny_window():
    v = build_vocab([["a"]], max_size=5)
    with pytest.raises(ValueError):
        encode(["a"], v, window=1)


def test_specials_not_members():
    v = build_vocab([["a"]], max_size=5)
    assert "a" in v
    assert UNK not in v and PAD not in v


def test_save_load_round_trip(tmp_path):
    v = build_vocab([["beta", "alpha", "beta", "gamma"]], max_size=100)
    path = tmp_path / "vocab.tsv"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.id_of == v.id_of
    save_vocab(loaded, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


@given(
    st.lists(
        st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=0, max_size=60
    ),
    st.integers(min_value=1, max_value=8),
)
def test_encode_ids_always_in_range(texts, max_size):
    v = build_vocab([texts], max_size=max_size)
    for window in encode(texts, v, window=7):
        assert all(0 <= i < len(v) for i in window)
        assert len(window) == 7


def test_lex_rank_orders_ids_by_text():
    v = Vocabulary(
        id_of={UNK: 0, PAD: 1, "zeta": 2, "alpha": 3, "Mid": 4, "mid": 5},
        max_size=10,
    )
    rank = v.lex_rank()
    assert sorted(range(len(v)), key=lambda i: rank[i]) == sorted(
        range(len(v)), key=v.text
    )
    assert [v.text(i) for i in sorted(range(2, 6), key=lambda i: rank[i])] == [
        "Mid", "alpha", "mid", "zeta",
    ]
    assert v.lex_rank() is rank  # built once
