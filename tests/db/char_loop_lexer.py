"""The char-by-char SQL lexer the regex lexer replaced, kept as a test
oracle for ``tests/db/test_lexer.py``.

It differs from :func:`repro.db.sql.lexer.tokenize` in exactly two
known bugs, which the property test allows for: a string token's
position is the offset *after* its closing quote, and numbers and
``$n`` parameters accept any Unicode digit (``str.isdigit``), so
``'²'`` lexes as an integer that ``int()`` then rejects and ``'١٢'``
as the integer 12.
"""

from __future__ import annotations

from repro.db.sql.lexer import KEYWORDS, Token, TokenKind
from repro.errors import SQLSyntaxError

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%", "||")
_PUNCT = {",", "(", ")", ";", "."}


def tokenize(sql: str, tokens: list[Token] | None = None) -> list[Token]:
    """Tokenize SQL text, raising :class:`SQLSyntaxError` on bad input.
    Tokens are appended to ``tokens`` as they are read, so a caller
    that passes a list sees the tokens before an error."""
    tokens = [] if tokens is None else tokens
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        # line comments
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        # string literal
        if ch == "'":
            i, text = _read_string(sql, i)
            tokens.append(Token(TokenKind.STRING, text, i))
            continue
        # number
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            i, token = _read_number(sql, i)
            tokens.append(token)
            continue
        # identifier / keyword
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenKind.IDENTIFIER, word, start))
            continue
        # positional parameter ($1, $2, ...)
        if ch == "$" and i + 1 < n and sql[i + 1].isdigit():
            start = i
            i += 1
            while i < n and sql[i].isdigit():
                i += 1
            tokens.append(Token(TokenKind.PARAM, sql[start + 1:i], start))
            continue
        # quoted identifier
        if ch == '"':
            end = sql.find('"', i + 1)
            if end == -1:
                raise SQLSyntaxError("unterminated quoted identifier", i)
            tokens.append(Token(TokenKind.IDENTIFIER, sql[i + 1:end], i))
            i = end + 1
            continue
        # operators
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens


def _read_string(sql: str, start: int) -> tuple[int, str]:
    """Read a single-quoted string literal starting at ``start``."""
    i = start + 1
    n = len(sql)
    parts: list[str] = []
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":  # escaped quote
                parts.append("'")
                i += 2
                continue
            return i + 1, "".join(parts)
        parts.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated string literal", start)


def _read_number(sql: str, start: int) -> tuple[int, Token]:
    """Read an integer or float literal starting at ``start``."""
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            # exponent must be followed by digits (optionally signed)
            j = i + 1
            if j < n and sql[j] in "+-":
                j += 1
            if j < n and sql[j].isdigit():
                seen_exp = True
                i = j
            else:
                break
        else:
            break
    text = sql[start:i]
    kind = TokenKind.FLOAT if (seen_dot or seen_exp) else TokenKind.INTEGER
    return i, Token(kind, text, start)
