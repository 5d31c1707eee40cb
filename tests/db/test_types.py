"""Value types, coercion, and Schema resolution tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.types import (
    Column,
    Schema,
    SQLType,
    coerce_row,
    coerce_value,
    value_from_csv,
    value_to_csv,
)
from repro.errors import CatalogError, TypeError_


class TestTypeNames:
    @pytest.mark.parametrize("name,expected", [
        ("integer", SQLType.INTEGER),
        ("INT", SQLType.INTEGER),
        ("bigint", SQLType.INTEGER),
        ("serial", SQLType.INTEGER),
        ("float", SQLType.FLOAT),
        ("double precision", SQLType.FLOAT),
        ("decimal(15,2)", SQLType.FLOAT),
        ("numeric", SQLType.FLOAT),
        ("text", SQLType.TEXT),
        ("varchar(25)", SQLType.TEXT),
        ("character varying", SQLType.TEXT),
        ("boolean", SQLType.BOOLEAN),
        ("date", SQLType.DATE),
    ])
    def test_aliases(self, name, expected):
        assert SQLType.from_name(name) is expected

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError_):
            SQLType.from_name("blob")


class TestCoercion:
    def test_null_passes_any_type(self):
        for sql_type in SQLType:
            assert coerce_value(None, sql_type) is None

    def test_integer_accepts_integral_float(self):
        assert coerce_value(3.0, SQLType.INTEGER) == 3

    def test_integer_rejects_fractional(self):
        with pytest.raises(TypeError_):
            coerce_value(3.5, SQLType.INTEGER)

    def test_float_widens_int(self):
        value = coerce_value(3, SQLType.FLOAT)
        assert value == 3.0 and isinstance(value, float)

    def test_float_rejects_bool(self):
        with pytest.raises(TypeError_):
            coerce_value(True, SQLType.FLOAT)

    def test_text_rejects_numbers(self):
        with pytest.raises(TypeError_):
            coerce_value(42, SQLType.TEXT)

    def test_boolean_accepts_int_and_text_forms(self):
        assert coerce_value(1, SQLType.BOOLEAN) is True
        assert coerce_value("false", SQLType.BOOLEAN) is False
        with pytest.raises(TypeError_):
            coerce_value(2, SQLType.BOOLEAN)

    def test_date_validates_shape(self):
        assert coerce_value("1998-12-31", SQLType.DATE) == "1998-12-31"
        for bad in ("1998-13-01", "1998-1-1", "not a date"):
            with pytest.raises(TypeError_):
                coerce_value(bad, SQLType.DATE)

    def test_csv_round_trip_by_type(self):
        cases = [(SQLType.INTEGER, -42), (SQLType.FLOAT, 2.5),
                 (SQLType.TEXT, "a,b"), (SQLType.BOOLEAN, True),
                 (SQLType.DATE, "1995-06-01")]
        for sql_type, value in cases:
            assert value_from_csv(value_to_csv(value), sql_type) == value

    def test_csv_null_is_empty_string(self):
        assert value_to_csv(None) == ""
        assert value_from_csv("", SQLType.INTEGER) is None


class TestSchema:
    @pytest.fixture
    def schema(self):
        return Schema([Column("a", SQLType.INTEGER),
                       Column("b", SQLType.TEXT)])

    def test_index_of_unqualified(self, schema):
        assert schema.index_of("a") == 0
        assert schema.index_of("B") == 1  # case-insensitive

    def test_unknown_column(self, schema):
        with pytest.raises(CatalogError):
            schema.index_of("c")

    def test_qualified_lookup(self, schema):
        qualified = schema.qualified("t")
        assert qualified.index_of("a", "t") == 0
        with pytest.raises(CatalogError):
            qualified.index_of("a", "u")

    def test_concat_detects_ambiguity(self, schema):
        joined = schema.qualified("x").concat(schema.qualified("y"))
        with pytest.raises(CatalogError):
            joined.index_of("a")
        assert joined.index_of("a", "y") == 2

    def test_of_shorthand(self):
        schema = Schema.of(("k", SQLType.INTEGER), ("v", SQLType.TEXT))
        assert schema.column_names() == ["k", "v"]

    def test_qualifier_length_mismatch(self, schema):
        with pytest.raises(CatalogError):
            Schema(schema.columns, ["t"])

    def test_equality_ignores_qualifiers(self, schema):
        assert schema == Schema(schema.columns)
        assert schema.qualified("t") == schema

    def test_coerce_row_arity_and_not_null(self):
        schema = Schema([Column("a", SQLType.INTEGER, not_null=True)])
        assert coerce_row((5,), schema) == (5,)
        with pytest.raises(TypeError_):
            coerce_row((None,), schema)
        with pytest.raises(TypeError_):
            coerce_row((1, 2), schema)

    def test_empty_column_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("", SQLType.INTEGER)


def reference_coerce_row(values, schema):
    """The per-cell rule ``coerce_row`` must agree with: arity, then
    each cell through ``coerce_value`` and the NOT NULL check."""
    values = tuple(values)
    if len(values) != len(schema):
        raise TypeError_(
            f"row has {len(values)} values, schema expects {len(schema)}")
    out = []
    for value, column in zip(values, schema.columns):
        coerced = coerce_value(value, column.sql_type)
        if coerced is None and column.not_null:
            raise TypeError_(f"column {column.name} is NOT NULL")
        out.append(coerced)
    return tuple(out)


def _outcome(coerce, values, schema):
    """Values, cell types, or error class and message."""
    try:
        row = coerce(values, schema)
    except Exception as exc:  # the class is part of what is compared
        return ("error", type(exc), str(exc))
    return ("row", [repr(value) for value in row],
            [type(value) for value in row])


# ASCII, Arabic-Indic, fullwidth and superscript digits: isdigit() holds
# for all of them, int() parses all but the superscripts, and only the
# ASCII ones are ISO dates
_DIGITS = st.sampled_from(["0123456789", "\u0660\u0661\u0662\u0663"
                           "\u0664\u0665\u0666\u0667\u0668\u0669",
                           "\uff10\uff11\uff12\uff13\uff14\uff15"
                           "\uff16\uff17\uff18\uff19",
                           "\u2070\u00b9\u00b2\u00b3\u2074\u2075"
                           "\u2076\u2077\u2078\u2079"])


@st.composite
def _date_like(draw):
    """Dates in and out of range, in any of the digit sets above."""
    year = draw(st.integers(0, 9999))
    month = draw(st.sampled_from([0, 1, 9, 10, 12, 13, 99]))
    day = draw(st.sampled_from([0, 1, 9, 10, 29, 31, 32, 99]))
    text = f"{year:04d}-{month:02d}-{day:02d}"
    if draw(st.booleans()):
        digits = draw(_DIGITS)
        text = "".join(digits[int(char)] if char.isdigit() else char
                       for char in text)
    return text


_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 2.5, -7.0]),
    st.text(max_size=6),
    st.sampled_from(["true", "F", "t", "1", "0", "12", "1.5", ""]),
    _date_like())

_COLUMNS = st.lists(
    st.tuples(st.sampled_from(list(SQLType)), st.booleans()),
    min_size=1, max_size=5).map(
        lambda specs: Schema([Column(f"c{position}", sql_type,
                                     not_null=not_null)
                              for position, (sql_type, not_null)
                              in enumerate(specs)]))


class TestOneStepCheck:
    """``coerce_row`` returns a row whose cells already have their
    columns' types as it is; every row must come out exactly as the
    per-cell rule has it."""

    @settings(max_examples=300, deadline=None)
    @given(schema=_COLUMNS, data=st.data())
    def test_matches_per_cell_rule(self, schema, data):
        width = data.draw(st.sampled_from(
            [len(schema)] * 4 + [len(schema) - 1, len(schema) + 1]))
        values = tuple(data.draw(st.lists(_CELLS, min_size=width,
                                          max_size=width)))
        assert _outcome(coerce_row, values, schema) == _outcome(
            reference_coerce_row, values, schema)

    @settings(max_examples=200, deadline=None)
    @given(schema=_COLUMNS, data=st.data())
    def test_typed_rows_match_per_cell_rule(self, schema, data):
        # rows drawn cell by cell from their column's own Python type,
        # so most of them take the one-step check
        typed = {SQLType.INTEGER: st.integers(), SQLType.FLOAT: st.floats(),
                 SQLType.TEXT: st.text(max_size=4),
                 SQLType.BOOLEAN: st.booleans(), SQLType.DATE: _date_like()}
        values = tuple(data.draw(st.one_of(st.none(), typed[column.sql_type]))
                       for column in schema.columns)
        assert _outcome(coerce_row, values, schema) == _outcome(
            reference_coerce_row, values, schema)

    def test_typed_row_comes_back_as_it_is(self):
        schema = Schema([Column("a", SQLType.INTEGER),
                         Column("d", SQLType.DATE),
                         Column("f", SQLType.FLOAT)])
        row = (1, "1998-01-02", 2.5)
        assert coerce_row(row, schema) is row

    @pytest.mark.parametrize("values,message", [
        ((1, "1998-13-02", 2.5), "invalid DATE literal: '1998-13-02'"),
        ((1, "1998-01-02", 2), None),  # int widens to float
        ((True, "1998-01-02", 2.5), None),  # bool is coerced to 1
        ((1, "\u0661\u0669\u0669\u0668-01-02", 2.5), None),
    ])
    def test_other_rows_take_the_per_cell_rule(self, values, message):
        schema = Schema([Column("a", SQLType.INTEGER),
                         Column("d", SQLType.DATE),
                         Column("f", SQLType.FLOAT)])
        if message is not None:
            with pytest.raises(TypeError_, match=message):
                coerce_row(values, schema)
        else:
            row = coerce_row(values, schema)
            assert row == reference_coerce_row(values, schema)
            assert list(map(type, row)) == [int, str, float]
