"""Generic C-family lexer for code corpora.

Produces a flat token stream; each token is its text and its kind. The surface
is deliberately small: `$`-sigiled variables, identifiers, a fixed keyword
table, single/double-quoted strings with backslash escapes, decimal/float
numbers, and 1-3 character punctuation with maximal munch. Comments and
whitespace are dropped; they never appear as completion targets.

Whitespace inside string literals is rewritten to escape sequences so that
every emitted token text is whitespace-free and the stream round-trips
through a single-space join. Tokens carry no position: only a LexError
reports one, as the UTF-8 byte offset where the bad lexeme starts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class LexError(ValueError):
    """Lexical error with the byte offset where the bad lexeme starts."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class TokenKind(enum.Enum):
    LOCAL_VARIABLE = "local_variable"
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    STRING_LITERAL = "string_literal"
    NUMBER_LITERAL = "number_literal"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    kind: TokenKind


# Fixed 30-entry keyword table. Kind-share analyses need a stable keyword
# set, not fidelity to any particular language.
KEYWORDS = frozenset(
    """
    function return if else elseif while for foreach do switch case break
    continue class interface trait extends implements new null true false
    public private protected static final abstract use namespace
    """.split()
)

_PUNCT3 = ("===", "!==", "<<=", ">>=", "**=", "...", "<=>")
_PUNCT2 = (
    "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "++", "--",
    "+=", "-=", "*=", "/=", "%=", ".=", "??", "**", "<<", ">>",
    "|=", "&=", "^=",
)
_PUNCT1 = set("(){}[];,.+-*/%=<>!&|^?:~@\\")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def _escape_ws(ch: str) -> str:
    """Escape sequence standing in for a whitespace character in a string."""
    if ch == " ":
        return "\\x20"
    if ch == "\t":
        return "\\t"
    if ch == "\n":
        return "\\n"
    if ch == "\r":
        return "\\r"
    return "\\u%04x" % ord(ch)


def _byte_offset(text: str, i: int) -> int:
    """UTF-8 byte offset of character `i`, for error reports."""
    return len(text[:i].encode("utf-8"))


def tokenize(text: str) -> list[Token]:
    """Lex `text` into tokens, dropping comments and whitespace.

    Deterministic; raises LexError for unterminated strings or block
    comments and for characters outside the lexical surface.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise LexError("unterminated block comment", _byte_offset(text, i))
            i = j + 2
            continue
        if ch in ("'", '"'):
            quote = ch
            j = i + 1
            body: list[str] = []
            while True:
                if j >= n:
                    raise LexError("unterminated string literal", _byte_offset(text, i))
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise LexError("unterminated string literal", _byte_offset(text, i))
                    body.append(text[j : j + 2])
                    j += 2
                    continue
                if c == quote:
                    break
                body.append(_escape_ws(c) if c.isspace() else c)
                j += 1
            lexeme = quote + "".join(body) + quote
            tokens.append(Token(lexeme, TokenKind.STRING_LITERAL))
            i = j + 1
            continue
        if ch == "$":
            j = i + 1
            if j >= n or text[j] not in _IDENT_START:
                raise LexError("stray '$' without variable name", _byte_offset(text, i))
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token(text[i:j], TokenKind.LOCAL_VARIABLE))
            i = j
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENTIFIER
            tokens.append(Token(word, kind))
            i = j
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1] in _DIGITS:
                j += 2
                while j < n and text[j] in _DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k + 1
                    while j < n and text[j] in _DIGITS:
                        j += 1
            tokens.append(Token(text[i:j], TokenKind.NUMBER_LITERAL))
            i = j
            continue
        three = text[i : i + 3]
        if three in _PUNCT3:
            tokens.append(Token(three, TokenKind.PUNCTUATION))
            i += 3
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token(two, TokenKind.PUNCTUATION))
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token(ch, TokenKind.PUNCTUATION))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", _byte_offset(text, i))
    return tokens


def is_identifier_like(kind: TokenKind) -> bool:
    """True for the kinds that can be completion targets."""
    return kind in (TokenKind.LOCAL_VARIABLE, TokenKind.IDENTIFIER)


def classify_text(text: str) -> TokenKind:
    """Kind of a single already-lexed token text.

    Used when reloading serialized token streams where only the text
    survived. Pure function of the text; agrees with tokenize() for any
    text it emitted.
    """
    if not text:
        raise ValueError("empty token text")
    ch = text[0]
    if ch == "$":
        return TokenKind.LOCAL_VARIABLE
    if text in KEYWORDS:
        return TokenKind.KEYWORD
    if ch in _IDENT_START:
        return TokenKind.IDENTIFIER
    if ch in ("'", '"'):
        return TokenKind.STRING_LITERAL
    if ch in _DIGITS:
        return TokenKind.NUMBER_LITERAL
    return TokenKind.PUNCTUATION


def join_tokens(tokens: Iterable[Token | str]) -> str:
    """Single-space join of token texts; re-lexes to the same text stream."""
    return " ".join(t if isinstance(t, str) else t.text for t in tokens)
