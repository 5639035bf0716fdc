import pytest
from hypothesis import given, strategies as st

from complab.lexer import (
    KEYWORDS,
    LexError,
    TokenKind,
    classify_text,
    is_identifier_like,
    join_tokens,
    tokenize,
)


def kinds(text):
    return [(t.text, t.kind) for t in tokenize(text)]


def test_assignment_statement():
    assert kinds("$x = foo(1);") == [
        ("$x", TokenKind.LOCAL_VARIABLE),
        ("=", TokenKind.PUNCTUATION),
        ("foo", TokenKind.IDENTIFIER),
        ("(", TokenKind.PUNCTUATION),
        ("1", TokenKind.NUMBER_LITERAL),
        (")", TokenKind.PUNCTUATION),
        (";", TokenKind.PUNCTUATION),
    ]


def test_line_comment_dropped():
    assert kinds("// c\nreturn $y;") == [
        ("return", TokenKind.KEYWORD),
        ("$y", TokenKind.LOCAL_VARIABLE),
        (";", TokenKind.PUNCTUATION),
    ]


def test_block_comment_dropped():
    assert [t.text for t in tokenize("a /* x\ny */ b")] == ["a", "b"]


def test_unterminated_string_errors_at_offset():
    with pytest.raises(LexError) as err:
        tokenize('"ab')
    assert err.value.byte_offset == 0
    with pytest.raises(LexError) as err:
        tokenize('x = "ab')
    assert err.value.byte_offset == 4


def test_utf8_byte_offsets():
    # é is two bytes; the error offset of the second string must count both.
    with pytest.raises(LexError) as err:
        tokenize('"é" + "ab')
    assert err.value.byte_offset == len('"é" + '.encode("utf-8")) == 7


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_string_whitespace_is_escaped():
    (tok,) = tokenize('"a b\tc"')
    assert tok.kind is TokenKind.STRING_LITERAL
    assert " " not in tok.text and "\t" not in tok.text
    assert tok.text == '"a\\x20b\\tc"'


def test_maximal_munch():
    assert [t.text for t in tokenize("a===b !== c <= d=>e")] == [
        "a", "===", "b", "!==", "c", "<=", "d", "=>", "e",
    ]


def test_numbers():
    texts = [t.text for t in tokenize("1 2.5 3e10 4.2e-3 5.")]
    assert texts == ["1", "2.5", "3e10", "4.2e-3", "5", "."]


def test_keyword_table_is_exactly_thirty():
    assert len(KEYWORDS) == 30
    assert "function" in KEYWORDS and "namespace" in KEYWORDS


def test_is_identifier_like():
    assert is_identifier_like(TokenKind.LOCAL_VARIABLE)
    assert is_identifier_like(TokenKind.IDENTIFIER)
    assert not is_identifier_like(TokenKind.PUNCTUATION)
    assert not is_identifier_like(TokenKind.KEYWORD)
    assert not is_identifier_like(TokenKind.STRING_LITERAL)


def test_stray_dollar_is_an_error():
    with pytest.raises(LexError):
        tokenize("$ = 1;")


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("a ` b")


def test_classify_text_matches_tokenize():
    source = '$x = foo(12, "lit") . bar; return $x;'
    for token in tokenize(source):
        assert classify_text(token.text) == token.kind


IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
SOURCE_TOKEN = st.one_of(
    IDENT,
    IDENT.map(lambda s: "$" + s),
    st.integers(min_value=0, max_value=10_000).map(str),
    st.sampled_from(["(", ")", "{", "}", ";", ",", "==", "->", "=>", "+", "="]),
    st.sampled_from(['"ok"', "'err'", '"a\\"b"']),
)


@given(st.lists(SOURCE_TOKEN, min_size=0, max_size=40))
def test_tokenize_join_idempotent(token_texts):
    source = " ".join(token_texts)
    first = tokenize(source)
    second = tokenize(join_tokens(first))
    assert [t.text for t in first] == [t.text for t in second]
    assert [t.kind for t in first] == [t.kind for t in second]


@given(st.lists(SOURCE_TOKEN, min_size=1, max_size=40))
def test_every_token_has_one_kind_and_no_whitespace(token_texts):
    for token in tokenize(" ".join(token_texts)):
        assert token.text
        assert not any(c.isspace() for c in token.text)
        assert isinstance(token.kind, TokenKind)
