"""SQL tokenizer.

Produces a flat list of :class:`Token` objects. Keywords are recognized
case-insensitively; identifiers preserve their original spelling but are
matched case-insensitively downstream. String literals use single quotes
with ``''`` escaping, as in standard SQL. Numbers and ``$n`` parameters
are ASCII digits only.

One compiled regular expression, :data:`TOKEN_RE`, defines every token:
each match skips whitespace and ``--`` comments and then matches exactly
one token in the named group of its kind. :func:`tokens_of` turns the
matches into tokens; :func:`scan_shape` reads a statement's shape from
the same matches without building any (the parser's shape cache).
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, NamedTuple

from repro.errors import SQLSyntaxError


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    PARAM = "param"
    EOF = "eof"


KEYWORDS = frozenset({
    "select", "provenance", "distinct", "from", "where", "group", "by",
    "having", "order", "asc", "desc", "limit", "offset", "as",
    "insert", "into", "values", "update", "set", "delete",
    "create", "table", "drop", "if", "exists", "not", "null",
    "primary", "key", "and", "or", "between", "like", "in", "is",
    "true", "false", "join", "inner", "left", "outer", "on", "cross",
    "copy", "to", "with", "csv", "header", "delimiter",
    "begin", "commit", "rollback", "union", "all", "case", "when",
    "explain", "analyze", "index",
    "then", "else", "end",
})

_EXPONENT = r"(?:[eE][+-]?[0-9]+)"

# Group order is match priority: a float before the integer prefix it
# starts with, a number before the "." it may start with, two-character
# operators before their one-character prefixes. A string ends at the
# first quote that does not start a doubled quote. A word starting with
# a non-ASCII character is a ``uword``, which only a letter may start
# (checked in tokens_of: no regex class says str.isalpha). ``error``
# catches any other character, so consecutive matches tile the input.
TOKEN_RE = re.compile(rf"""
    (?:\s|--[^\n]*)*
    (?:
        (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+){_EXPONENT}?|[0-9]+{_EXPONENT})
      | (?P<integer>[0-9]+)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<uword>[^\W\d]\w*)
      | (?P<param>\$[0-9]+)
      | (?P<quoted>"[^"]*")
      | (?P<operator><>|!=|<=|>=|\|\||[=<>+\-*/%])
      | (?P<punct>[,();.])
      | (?P<end>\Z)
      | (?P<error>.)
    )""", re.VERBOSE | re.DOTALL)

# literal groups, with the converter the parser applies to each token's
# text to get the literal's value
LITERAL_KINDS = {
    "integer": (TokenKind.INTEGER, int),
    "float": (TokenKind.FLOAT, float),
    "string": (TokenKind.STRING, str),
}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r}@{self.position})"


def _string_text(raw: str) -> str:
    """The value of a quoted string literal's source text."""
    return raw[1:-1].replace("''", "'")


def _lex_error(sql: str, position: int) -> SQLSyntaxError:
    """The error for input at ``position`` that starts no token."""
    ch = sql[position]
    if ch == "'":
        return SQLSyntaxError("unterminated string literal", position)
    if ch == '"':
        return SQLSyntaxError("unterminated quoted identifier", position)
    return SQLSyntaxError(f"unexpected character {ch!r}", position)


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text, raising :class:`SQLSyntaxError` on bad input."""
    return tokens_of(sql, TOKEN_RE.finditer(sql))


def tokens_of(sql: str, matches: Iterable[re.Match]) -> list[Token]:
    """The tokens of ``sql`` from its :data:`TOKEN_RE` matches, in order
    (all of them, as ``finditer`` yields them)."""
    tokens: list[Token] = []
    append = tokens.append
    for match in matches:
        group = match.lastgroup
        start = match.start(group)
        text = match[group]
        if group == "word" or group == "uword":
            if group == "uword" and not text[0].isalpha():
                raise _lex_error(sql, start)
            lowered = text.lower()
            if lowered in KEYWORDS:
                append(Token(TokenKind.KEYWORD, lowered, start))
            else:
                append(Token(TokenKind.IDENTIFIER, text, start))
        elif group == "operator":
            append(Token(TokenKind.OPERATOR, text, start))
        elif group == "punct":
            append(Token(TokenKind.PUNCT, text, start))
        elif group == "integer":
            append(Token(TokenKind.INTEGER, text, start))
        elif group == "string":
            append(Token(TokenKind.STRING, _string_text(text), start))
        elif group == "float":
            append(Token(TokenKind.FLOAT, text, start))
        elif group == "param":
            append(Token(TokenKind.PARAM, text[1:], start))
        elif group == "quoted":
            append(Token(TokenKind.IDENTIFIER, text[1:-1], start))
        elif group == "end":
            break
        else:
            raise _lex_error(sql, start)
    tokens.append(Token(TokenKind.EOF, "", len(sql)))
    return tokens


# what stands for a literal of each kind in a shape key: text that
# always lexes as a literal, so it can never be another token's text
_SHAPE_MARKS = {"integer": "0", "float": "0.0", "string": "''"}


def scan_shape(matches: Iterable[re.Match]
               ) -> "tuple[tuple[str, ...], list] | None":
    """A statement's shape key and its literal values, from its
    :data:`TOKEN_RE` matches, without building any token.

    The key is the token source texts with each literal replaced by a
    mark of its kind; the values are converted as the parser converts
    literal tokens. Returns None for text with a ``$n`` parameter or
    text that does not lex (the parser reports the error).
    """
    key: list[str] = []
    values: list = []
    for match in matches:
        group = match.lastgroup
        text = match[group]
        mark = _SHAPE_MARKS.get(group)
        if mark is not None:
            key.append(mark)
            if group == "string":
                values.append(_string_text(text))
            else:
                values.append(LITERAL_KINDS[group][1](text))
        elif group == "end":
            return tuple(key), values
        elif group == "param" or group == "error":
            return None
        else:
            key.append(text)
    return None
