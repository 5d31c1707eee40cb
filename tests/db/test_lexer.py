"""Tokenizer tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.sql.lexer import Token, TokenKind, tokenize
from repro.errors import SQLSyntaxError
from tests.db import char_loop_lexer


def kinds(sql):
    return [token.kind for token in tokenize(sql)[:-1]]


def texts(sql):
    return [token.text for token in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        assert texts("SELECT select SeLeCt") == ["select"] * 3

    def test_identifier_preserves_case(self):
        tokens = tokenize("lineitem L_SuppKey")
        assert tokens[0].text == "lineitem"
        assert tokens[1].text == "L_SuppKey"
        assert tokens[0].kind is TokenKind.IDENTIFIER

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INTEGER
        assert token.text == "42"

    def test_float_literals(self):
        assert tokenize("3.14")[0].kind is TokenKind.FLOAT
        assert tokenize("1e5")[0].kind is TokenKind.FLOAT
        assert tokenize("2.5e-3")[0].kind is TokenKind.FLOAT

    def test_string_literal(self):
        token = tokenize("'hello world'")[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "hello world"

    def test_string_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.text == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].text == ""

    def test_quoted_identifier(self):
        token = tokenize('"Order Table"')[0]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.text == "Order Table"

    def test_eof_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("select")[-1].kind is TokenKind.EOF


class TestOperators:
    @pytest.mark.parametrize("op", ["<>", "!=", "<=", ">=", "=", "<", ">",
                                    "+", "-", "*", "/", "%", "||"])
    def test_operator(self, op):
        token = tokenize(op)[0]
        assert token.kind is TokenKind.OPERATOR
        assert token.text == op

    def test_multi_char_operator_not_split(self):
        assert texts("a <= b") == ["a", "<=", "b"]

    def test_punctuation(self):
        assert [t.kind for t in tokenize(",().;")[:-1]] == (
            [TokenKind.PUNCT] * 5)


class TestCommentsAndErrors:
    def test_line_comment_skipped(self):
        assert texts("select -- comment\n 1") == ["select", "1"]

    def test_comment_at_end_of_input(self):
        assert texts("select 1 -- done") == ["select", "1"]

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('"oops')

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select @")

    def test_error_carries_position(self):
        with pytest.raises(SQLSyntaxError) as info:
            tokenize("ab #")
        assert info.value.position == 3


class TestRealisticStatements:
    def test_tpch_query_tokenizes(self):
        sql = ("SELECT l_quantity, l_partkey FROM lineitem "
               "WHERE l_suppkey BETWEEN 1 AND 250")
        tokens = tokenize(sql)
        assert tokens[-1].kind is TokenKind.EOF
        assert "between" in [t.text for t in tokens]

    def test_number_adjacent_to_keyword(self):
        assert texts("limit 10") == ["limit", "10"]

    def test_dotted_reference(self):
        assert texts("l.l_orderkey") == ["l", ".", "l_orderkey"]


class TestPositions:
    def test_string_token_is_at_its_opening_quote(self):
        tokens = tokenize("SELECT 'ab' x")
        assert (tokens[1].kind, tokens[1].text, tokens[1].position) == (
            TokenKind.STRING, "ab", 7)
        assert tokens[2].position == 12

    def test_escaped_string_token_is_at_its_opening_quote(self):
        assert tokenize("x 'it''s'")[1].position == 2

    def test_every_token_starts_at_its_source_text(self):
        sql = "SELECT a, 'b c', 1.5 FROM \"T\" WHERE x <> $2 -- c\n;"
        for token in tokenize(sql)[:-1]:
            assert sql[token.position] in "S a , ' 1 F \" W x < $ ;"


class TestNonAsciiDigits:
    @pytest.mark.parametrize("sql, position, char", [
        ("SELECT ²", 7, "²"),
        ("SELECT ١٢", 7, "١"),
        ("SELECT 1١", 8, "١"),
        ("SELECT .١", 8, "١"),
        ("SELECT $١", 7, "$"),
    ])
    def test_rejected_as_unexpected_character(self, sql, position, char):
        with pytest.raises(SQLSyntaxError) as info:
            tokenize(sql)
        assert str(info.value) == f"unexpected character {char!r}"
        assert info.value.position == position

    def test_unicode_digits_still_continue_identifiers(self):
        assert texts("x² a١") == ["x²", "a١"]

    def test_numbers_are_ascii(self):
        assert texts("12 3.5 .5 1e-3") == ["12", "3.5", ".5", "1e-3"]


# -- equivalence with the char-loop lexer the regex replaced --------------------

_NUMBER_KINDS = (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.PARAM)


def _triples(tokens):
    return [(token.kind, token.text, token.position) for token in tokens]


def _oracle(sql):
    """The char-loop lexer's tokens (those read before any error) with
    its string-position bug corrected, and its error or None."""
    tokens = []
    error = None
    try:
        char_loop_lexer.tokenize(sql, tokens)
    except SQLSyntaxError as exc:
        error = exc
    fixed = []
    for token in tokens:
        if token.kind is TokenKind.STRING:
            # the oracle records the offset after the closing quote;
            # the literal's source is its text with quotes doubled
            source_length = len(token.text) + token.text.count("'") + 2
            token = Token(token.kind, token.text,
                          token.position - source_length)
        fixed.append(token)
    return fixed, error


def _outcome(sql):
    try:
        return _triples(tokenize(sql)), None
    except SQLSyntaxError as exc:
        return None, exc


def assert_lexers_agree(sql):
    expected, expected_error = _oracle(sql)
    tokens, error = _outcome(sql)
    bug = next((index for index, token in enumerate(expected)
                if token.kind in _NUMBER_KINDS
                and not token.text.isascii()), None)
    if bug is None:
        if expected_error is None:
            assert error is None, (sql, error)
            assert tokens == _triples(expected)
        else:
            assert tokens is None, sql
            assert (type(error), str(error), error.position) == (
                type(expected_error), str(expected_error),
                expected_error.position)
        return
    # the oracle read a non-ASCII digit as part of a number or $n: the
    # lexers agree up to that token, and the regex lexer never does
    start = expected[bug].position
    prefix, prefix_error = _outcome(sql[:start])
    assert prefix_error is None, sql
    assert prefix[:-1] == _triples(expected[:bug])
    if error is not None:
        assert error.position >= start
    else:
        assert tokens[:bug] == _triples(expected[:bug])
        assert all(text.isascii() for kind, text, _ in tokens
                   if kind in _NUMBER_KINDS)


_SQL_FRAGMENTS = [
    "SELECT", "select", " ", "\n", "\t", "\u00a0", "--", "x", "_y1",
    "é", "1", "42", "1.5", ".", "e", "E", "+", "-", "5", "'", "''", '"',
    "$", "$1", ",", "(", ")", ";", "*", "/", "%", "<", ">", "=", "!",
    "|", "<>", "²", "١", "½", "ª", "@", "\x00",
]


class TestEquivalenceWithCharLoop:
    @settings(max_examples=400, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, sql):
        assert_lexers_agree(sql)

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(_SQL_FRAGMENTS), max_size=24)
           .map("".join))
    def test_sql_fragments(self, sql):
        assert_lexers_agree(sql)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab1.e+-' \"$,()*<>=!|\n²١", max_size=30))
    def test_sql_alphabet(self, sql):
        assert_lexers_agree(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE 'abc' 'def'",
        "x 'it''s' y",
        "1.2.3 1e5e3 1.e5 1e+ .5.5 t.5",
        "a--b\n'c' -- tail",
        "SELECT ²", "SELECT ١٢", "1e² x", "$١ 1",
        "'unterminated", '"unterminated', "ok @",
    ])
    def test_known_inputs(self, sql):
        assert_lexers_agree(sql)

    def test_the_oracle_still_has_both_bugs(self):
        assert char_loop_lexer.tokenize("SELECT 'ab' x")[1].position == 11
        assert char_loop_lexer.tokenize("SELECT ١٢")[1].text == "١٢"
