"""Recursive-descent SQL parser.

``parse_sql`` turns SQL text into a list of :mod:`repro.db.sql.ast`
statements. The expression grammar uses precedence climbing:

    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | predicate
    predicate  := additive ( comparison | BETWEEN | LIKE | IN | IS NULL )?
    additive   := multiplic ((+|-|'||') multiplic)*
    multiplic  := unary ((*|/|%) unary)*
    unary      := - unary | primary
    primary    := literal | column | function(...) | ( or_expr ) | CASE ...

``parse_sql`` serves statements whose shape it has parsed before from a
:class:`ShapeCache` of templates. That is exact because the parser
branches on token kinds and texts but never on a literal's text: every
statement of one shape takes the same path through the grammar.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

from repro.db.sql import ast
from repro.db.sql.lexer import (LITERAL_KINDS, TOKEN_RE, Token, TokenKind,
                                scan_shape, tokenize, tokens_of)
from repro.db.sql.params import Binder
from repro.errors import SQLSyntaxError

_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})

# literal token kind -> the conversion of its text to the literal's value
_LITERAL_VALUE = dict(LITERAL_KINDS.values())


def _too_long(token: Token) -> SQLSyntaxError:
    """The error for a number token with more digits than ``int()``
    converts (Python's integer string conversion limit)."""
    return SQLSyntaxError(
        f"number too long ({len(token.text)} digits)", token.position)


class _Parser:
    """Stateful token-stream parser; one instance per parse call."""

    def __init__(self, sql: str, tokens: list[Token] | None = None) -> None:
        self.sql = sql
        self.tokens = tokenize(sql) if tokens is None else tokens
        self.pos = 0

    # -- token-stream helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise SQLSyntaxError(
                f"expected {word.upper()}, found {token.text!r}", token.position)
        return self.advance()

    def accept_punct(self, text: str) -> bool:
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        token = self.peek()
        if token.kind is not TokenKind.PUNCT or token.text != text:
            raise SQLSyntaxError(
                f"expected {text!r}, found {token.text!r}", token.position)
        return self.advance()

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.kind is TokenKind.IDENTIFIER:
            self.advance()
            return token.text
        # allow non-reserved keywords as identifiers where unambiguous
        if token.kind is TokenKind.KEYWORD and token.text in ("key", "set", "all"):
            self.advance()
            return token.text
        raise SQLSyntaxError(
            f"expected identifier, found {token.text!r}", token.position)

    # -- statements -----------------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while self.peek().kind is not TokenKind.EOF:
            statements.append(self.parse_statement())
            while self.accept_punct(";"):
                pass
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.kind is not TokenKind.KEYWORD:
            raise SQLSyntaxError(
                f"expected statement, found {token.text!r}", token.position)
        if token.text == "select":
            return self.parse_select_or_union()
        if token.text == "insert":
            return self.parse_insert()
        if token.text == "update":
            return self.parse_update()
        if token.text == "delete":
            return self.parse_delete()
        if token.text == "create":
            return self.parse_create_table()
        if token.text == "drop":
            return self.parse_drop_table()
        if token.text == "copy":
            return self.parse_copy()
        if token.text == "explain":
            self.advance()
            analyze = self.accept_keyword("analyze")
            return ast.Explain(self.parse_select(), analyze=analyze)
        if token.text == "analyze":
            self.advance()
            table = None
            if self.peek().kind is TokenKind.IDENTIFIER:
                table = self.expect_identifier()
            return ast.Analyze(table=table)
        if token.text == "begin":
            self.advance()
            return ast.Begin()
        if token.text == "commit":
            self.advance()
            return ast.Commit()
        if token.text == "rollback":
            self.advance()
            return ast.Rollback()
        raise SQLSyntaxError(
            f"unsupported statement {token.text!r}", token.position)

    # -- SELECT ---------------------------------------------------------------

    def parse_select_or_union(self) -> "ast.Select | ast.SetOp":
        """A SELECT, possibly chained with UNION [ALL]."""
        result: "ast.Select | ast.SetOp" = self.parse_select()
        while self.accept_keyword("union"):
            all_rows = self.accept_keyword("all")
            right = self.parse_select()
            result = ast.SetOp("union", result, right, all_rows)
        return result

    def parse_select(self) -> ast.Select:
        self.expect_keyword("select")
        provenance = self.accept_keyword("provenance")
        distinct = self.accept_keyword("distinct")
        items = self._parse_select_list()
        sources: tuple = ()
        where = None
        group_by: tuple = ()
        having = None
        order_by: tuple = ()
        limit = None
        offset = None
        if self.accept_keyword("from"):
            sources = self._parse_from_clause()
        if self.accept_keyword("where"):
            where = self.parse_expression()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_exprs = [self.parse_expression()]
            while self.accept_punct(","):
                group_exprs.append(self.parse_expression())
            group_by = tuple(group_exprs)
        if self.accept_keyword("having"):
            having = self.parse_expression()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_items = [self._parse_order_item()]
            while self.accept_punct(","):
                order_items.append(self._parse_order_item())
            order_by = tuple(order_items)
        if self.accept_keyword("limit"):
            limit = self._parse_int_literal()
        if self.accept_keyword("offset"):
            offset = self._parse_int_literal()
        return ast.Select(
            items=items, sources=sources, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, offset=offset,
            distinct=distinct, provenance=provenance)

    def _parse_int_literal(self) -> int:
        token = self.peek()
        if token.kind is not TokenKind.INTEGER:
            raise SQLSyntaxError(
                f"expected integer, found {token.text!r}", token.position)
        self.advance()
        try:
            return int(token.text)
        except ValueError:
            raise _too_long(token) from None

    def _parse_select_list(self) -> tuple[ast.SelectItem, ...]:
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        # bare * or alias.*
        if token.kind is TokenKind.OPERATOR and token.text == "*":
            self.advance()
            return ast.SelectItem(ast.Star())
        if (token.kind is TokenKind.IDENTIFIER
                and self.peek(1).kind is TokenKind.PUNCT
                and self.peek(1).text == "."
                and self.peek(2).kind is TokenKind.OPERATOR
                and self.peek(2).text == "*"):
            self.advance()
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(qualifier=token.text))
        expression = self.parse_expression()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.peek().kind is TokenKind.IDENTIFIER:
            alias = self.expect_identifier()
        return ast.SelectItem(expression, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expression()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expression, descending)

    def _parse_from_clause(self) -> tuple:
        sources = [self._parse_join_source()]
        while self.accept_punct(","):
            sources.append(self._parse_join_source())
        return tuple(sources)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self.expect_identifier()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.peek().kind is TokenKind.IDENTIFIER:
            alias = self.expect_identifier()
        return ast.TableRef(name, alias)

    def _parse_join_source(self):
        source = self._parse_table_ref()
        while True:
            token = self.peek()
            if token.is_keyword("join") or token.is_keyword("inner"):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                right = self._parse_table_ref()
                self.expect_keyword("on")
                condition = self.parse_expression()
                source = ast.Join(source, right, condition, "inner")
            elif token.is_keyword("left"):
                self.advance()
                self.accept_keyword("outer")
                self.expect_keyword("join")
                right = self._parse_table_ref()
                self.expect_keyword("on")
                condition = self.parse_expression()
                source = ast.Join(source, right, condition, "left")
            elif token.is_keyword("cross"):
                self.advance()
                self.expect_keyword("join")
                right = self._parse_table_ref()
                source = ast.Join(source, right, None, "cross")
            else:
                return source

    # -- INSERT / UPDATE / DELETE ----------------------------------------------

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_identifier()
        columns: tuple[str, ...] = ()
        if self.accept_punct("("):
            names = [self.expect_identifier()]
            while self.accept_punct(","):
                names.append(self.expect_identifier())
            self.expect_punct(")")
            columns = tuple(names)
        if self.peek().is_keyword("select"):
            query = self.parse_select()
            return ast.Insert(table, columns, (), query)
        self.expect_keyword("values")
        rows = [self._parse_value_row()]
        while self.accept_punct(","):
            rows.append(self._parse_value_row())
        return ast.Insert(table, columns, tuple(rows), None)

    def _parse_value_row(self) -> tuple[ast.Expression, ...]:
        self.expect_punct("(")
        values = [self.parse_expression()]
        while self.accept_punct(","):
            values.append(self.parse_expression())
        self.expect_punct(")")
        return tuple(values)

    def parse_update(self) -> ast.Update:
        self.expect_keyword("update")
        table = self.expect_identifier()
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expression()
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expression]:
        name = self.expect_identifier()
        token = self.peek()
        if token.kind is not TokenKind.OPERATOR or token.text != "=":
            raise SQLSyntaxError("expected '=' in SET clause", token.position)
        self.advance()
        return name, self.parse_expression()

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_identifier()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expression()
        return ast.Delete(table, where)

    # -- DDL --------------------------------------------------------------------

    def parse_create_table(self) -> ast.Statement:
        self.expect_keyword("create")
        if self.accept_keyword("index"):
            return self._parse_create_index()
        self.expect_keyword("table")
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        table = self.expect_identifier()
        self.expect_punct("(")
        columns = [self._parse_column_def()]
        while self.accept_punct(","):
            columns.append(self._parse_column_def())
        self.expect_punct(")")
        return ast.CreateTable(table, tuple(columns), if_not_exists)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier()
        type_parts = [self.expect_identifier()]
        # multi-word types: double precision, character varying
        if (type_parts[0].lower() in ("double", "character")
                and self.peek().kind is TokenKind.IDENTIFIER
                and self.peek().text.lower() in ("precision", "varying")):
            type_parts.append(self.expect_identifier())
        type_name = " ".join(type_parts)
        # optional length: varchar(25), decimal(15, 2)
        if self.accept_punct("("):
            self._parse_int_literal()
            if self.accept_punct(","):
                self._parse_int_literal()
            self.expect_punct(")")
        not_null = False
        primary_key = False
        while True:
            if self.accept_keyword("not"):
                self.expect_keyword("null")
                not_null = True
            elif self.accept_keyword("primary"):
                self.expect_keyword("key")
                primary_key = True
            else:
                break
        return ast.ColumnDef(name, type_name, not_null, primary_key)

    def _parse_create_index(self) -> ast.CreateIndex:
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        name = self.expect_identifier()
        self.expect_keyword("on")
        table = self.expect_identifier()
        self.expect_punct("(")
        column = self.expect_identifier()
        self.expect_punct(")")
        return ast.CreateIndex(name, table, column, if_not_exists)

    def parse_drop_table(self) -> ast.Statement:
        self.expect_keyword("drop")
        if self.accept_keyword("index"):
            if_exists = False
            if self.accept_keyword("if"):
                self.expect_keyword("exists")
                if_exists = True
            return ast.DropIndex(self.expect_identifier(), if_exists)
        self.expect_keyword("table")
        if_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("exists")
            if_exists = True
        table = self.expect_identifier()
        return ast.DropTable(table, if_exists)

    def parse_copy(self) -> ast.Statement:
        self.expect_keyword("copy")
        table = self.expect_identifier()
        direction = self.peek()
        if self.accept_keyword("from"):
            to = False
        elif self.accept_keyword("to"):
            to = True
        else:
            raise SQLSyntaxError(
                "expected FROM or TO in COPY", direction.position)
        path_token = self.peek()
        if path_token.kind is not TokenKind.STRING:
            raise SQLSyntaxError(
                "expected quoted path in COPY", path_token.position)
        self.advance()
        header = False
        delimiter = ","
        self.accept_keyword("with")
        while True:
            if self.accept_keyword("csv"):
                continue
            if self.accept_keyword("header"):
                header = True
                continue
            if self.accept_keyword("delimiter"):
                delim_token = self.peek()
                if delim_token.kind is not TokenKind.STRING:
                    raise SQLSyntaxError(
                        "expected quoted delimiter", delim_token.position)
                self.advance()
                delimiter = delim_token.text
                continue
            break
        if to:
            return ast.CopyTo(table, path_token.text, header, delimiter)
        return ast.CopyFrom(table, path_token.text, header, delimiter)

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.accept_keyword("or"):
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self.accept_keyword("and"):
            right = self._parse_not()
            left = ast.BinaryOp("and", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text in _COMPARISONS:
            self.advance()
            right = self._parse_additive()
            op = "<>" if token.text == "!=" else token.text
            return ast.BinaryOp(op, left, right)
        negated = False
        if token.is_keyword("not"):
            nxt = self.peek(1)
            if nxt.is_keyword("between") or nxt.is_keyword("like") or nxt.is_keyword("in"):
                self.advance()
                negated = True
                token = self.peek()
        if token.is_keyword("between"):
            self.advance()
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if token.is_keyword("like"):
            self.advance()
            pattern = self._parse_additive()
            return ast.Like(left, pattern, negated)
        if token.is_keyword("in"):
            self.advance()
            self.expect_punct("(")
            if self.peek().is_keyword("select"):
                subquery = self.parse_select()
                self.expect_punct(")")
                return ast.InSubquery(left, subquery, negated)
            items = [self.parse_expression()]
            while self.accept_punct(","):
                items.append(self.parse_expression())
            self.expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if token.is_keyword("is"):
            self.advance()
            is_negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return ast.IsNull(left, is_negated)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("+", "-", "||"):
                self.advance()
                right = self._parse_multiplicative()
                left = ast.BinaryOp(token.text, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("*", "/", "%"):
                self.advance()
                right = self._parse_unary()
                left = ast.BinaryOp(token.text, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text == "-":
            self.advance()
            operand = self._parse_unary()
            # fold unary minus into numeric literals so that -1 is
            # Literal(-1), making parse/render a fixed point
            if (isinstance(operand, ast.Literal)
                    and isinstance(operand.value, (int, float))
                    and not isinstance(operand.value, bool)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if token.kind is TokenKind.OPERATOR and token.text == "+":
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.peek()
        convert = _LITERAL_VALUE.get(token.kind)
        if convert is not None:
            self.advance()
            try:
                return ast.Literal(convert(token.text))
            except ValueError:
                raise _too_long(token) from None
        if token.kind is TokenKind.PARAM:
            self.advance()
            try:
                index = int(token.text)
            except ValueError:
                raise _too_long(token) from None
            if index < 1:
                raise SQLSyntaxError(
                    f"parameter ${index} is out of range (parameters "
                    f"are numbered from $1)", token.position)
            return ast.Parameter(index)
        if token.is_keyword("null"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("case"):
            return self._parse_case()
        if self.accept_punct("("):
            if self.peek().is_keyword("select"):
                subquery = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(subquery)
            inner = self.parse_expression()
            self.expect_punct(")")
            return inner
        if token.kind is TokenKind.IDENTIFIER:
            return self._parse_identifier_expression()
        raise SQLSyntaxError(
            f"unexpected token {token.text!r} in expression", token.position)

    def _parse_case(self) -> ast.Expression:
        self.expect_keyword("case")
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self.accept_keyword("when"):
            condition = self.parse_expression()
            self.expect_keyword("then")
            value = self.parse_expression()
            branches.append((condition, value))
        if not branches:
            raise SQLSyntaxError("CASE requires at least one WHEN",
                                 self.peek().position)
        otherwise = None
        if self.accept_keyword("else"):
            otherwise = self.parse_expression()
        self.expect_keyword("end")
        return ast.CaseWhen(tuple(branches), otherwise)

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self.expect_identifier()
        # function call
        if self.peek().kind is TokenKind.PUNCT and self.peek().text == "(":
            self.advance()
            distinct = self.accept_keyword("distinct")
            args: list[ast.Expression] = []
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text == "*":
                self.advance()
                args.append(ast.Star())
            elif not (token.kind is TokenKind.PUNCT and token.text == ")"):
                args.append(self.parse_expression())
                while self.accept_punct(","):
                    args.append(self.parse_expression())
            self.expect_punct(")")
            return ast.FunctionCall(name.lower(), tuple(args), distinct)
        # qualified column
        if self.accept_punct("."):
            column = self.expect_identifier()
            return ast.ColumnRef(column, qualifier=name)
        return ast.ColumnRef(name)


# statement shapes the cache remembers (first sightings included)
SHAPE_CACHE_CAPACITY = 512

# cache entries that are not a template's binder
_SEEN_ONCE = "seen once"
_UNCACHEABLE = "uncacheable"


class ShapeCache:
    """LRU map from statement shape to the parsed template of that shape.

    A shape is a statement's token texts with each literal replaced by
    a mark of its kind (:func:`repro.db.sql.lexer.scan_shape`). The
    first sighting of a shape only records it; the second builds the
    template: the statement parsed once more with each literal token
    swapped for a ``$i`` parameter token, kept as a :class:`Binder`
    only if binding this statement's literals to it reproduces the
    direct parse exactly. Shapes that fail the check (the parser reads
    the literal somewhere other than as an expression operand, or
    folds it, as in ``-5`` or ``LIMIT 3``) are remembered as
    uncacheable. Every later sighting of a kept shape binds its
    literals to the template instead of tokenizing and parsing.

    Parsing does not depend on the catalog, so one cache serves every
    database in the process; lookups, stores and the LRU order run
    under one lock.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()

    def sighting(self, key: tuple) -> Any:
        """The entry for ``key``, or None on its first sighting (which
        is recorded)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._store(key, _SEEN_ONCE)
            else:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: Any) -> None:
        with self._lock:
            self._store(key, entry)

    def _store(self, key: tuple, entry: Any) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


SHAPE_CACHE = ShapeCache(SHAPE_CACHE_CAPACITY)


def _template_binder(sql: str, tokens: list[Token],
                     statements: list[ast.Statement], values: list) -> Any:
    """The binder of the shape of ``sql`` (lexed as ``tokens``), or
    :data:`_UNCACHEABLE` when binding ``values`` to the template does
    not give ``statements``."""
    tokens = list(tokens)
    index = 0
    for position, token in enumerate(tokens):
        if token.kind in _LITERAL_VALUE:
            index += 1
            tokens[position] = Token(TokenKind.PARAM, str(index),
                                     token.position)
    try:
        template = tuple(_Parser(sql, tokens).parse_statements())
    except SQLSyntaxError:
        return _UNCACHEABLE
    binder = Binder(template)
    # compared by repr: == takes Literal(1) for Literal(1.0) or
    # Literal(True)
    if repr(binder(values)) != repr(tuple(statements)):
        return _UNCACHEABLE
    return binder


def parse_sql(sql: str) -> list[ast.Statement]:
    """Parse SQL text into a list of statements.

    Text whose shape (see :class:`ShapeCache`) was parsed before is
    served by binding its literals to the cached template; the result
    equals the direct parse.
    """
    matches = list(TOKEN_RE.finditer(sql))
    shape = None
    try:
        shape = scan_shape(matches)
    except ValueError:  # a literal too long to convert; the parse reports it
        pass
    if shape is None:
        return _Parser(sql, tokens_of(sql, matches)).parse_statements()
    key, values = shape
    entry = SHAPE_CACHE.sighting(key)
    if isinstance(entry, Binder):
        return list(entry(values))
    tokens = tokens_of(sql, matches)
    statements = _Parser(sql, tokens).parse_statements()
    if entry is _SEEN_ONCE:
        SHAPE_CACHE.put(key, _template_binder(sql, tokens, statements,
                                              values))
    return statements


def parse_one(sql: str) -> ast.Statement:
    """Parse SQL text that must contain exactly one statement."""
    statements = parse_sql(sql)
    if len(statements) != 1:
        raise SQLSyntaxError(
            f"expected exactly one statement, found {len(statements)}")
    return statements[0]


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone expression (used by tests and tools)."""
    parser = _Parser(sql)
    expression = parser.parse_expression()
    token = parser.peek()
    if token.kind is not TokenKind.EOF:
        raise SQLSyntaxError(
            f"trailing input after expression: {token.text!r}", token.position)
    return expression
