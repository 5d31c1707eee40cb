"""The ``(rowid, version, values)`` format: column-at-a-time decode and
bulk install against the per-row reference.

A restore CSV (``format_versioned_rows`` → ``parse_versioned_rows`` →
``install_into``) and a table file (``serialize`` → ``deserialize``)
must both rebuild exactly the table that ``restore_row``, one row at
a time, builds from the same rows; and the writer must render every cell
as ``value_to_csv`` does.
"""

import csv
import io
import random

import pytest

from repro.db import csvio
from repro.db.storage import HeapTable
from repro.db.types import (Column, Schema, SQLType, _validate_date,
                             value_to_csv)
from repro.errors import ExecutionError, IntegrityError, TypeError_

SCHEMA = Schema([
    Column("id", SQLType.INTEGER, primary_key=True, not_null=True),
    Column("qty", SQLType.INTEGER),
    Column("price", SQLType.FLOAT),
    Column("note", SQLType.TEXT),
    Column("flag", SQLType.BOOLEAN),
    Column("day", SQLType.DATE),
])
INDEXES = (("ix_qty", "qty"), ("ix_flag", "flag"), ("ix_day", "day"))

# the empty string is NULL in these files, so no text value is empty
TEXTS = ["plain", "a,b", 'say "hi"', "two\nlines", '","\n,"', " padded ",
         "ünï©ødé", "1998-01-01", "true", "0"]
FLOATS = [-0.0, 0.0, 1e16, -1e16, 0.1, 1 / 3, 1.5e-300, 2.0 ** 70, -7.25]


def random_triples(seed, count=300):
    rng = random.Random(seed)
    rowids = rng.sample(range(1, 10 * count), count)  # gapped, unsorted
    keys = rng.sample(range(-count, 10 * count), count)

    def maybe(value):
        return None if rng.random() < 0.15 else value

    triples = []
    for rowid, key in zip(rowids, keys):
        values = (
            key,
            maybe(rng.choice([rng.randint(-10 ** 12, 10 ** 12),
                              rng.randint(0, 5)])),
            maybe(rng.choice([rng.choice(FLOATS), rng.uniform(-1e6, 1e6)])),
            maybe(rng.choice(TEXTS)),
            maybe(rng.random() < 0.5),
            maybe(f"{rng.randint(0, 9999):04d}-{rng.randint(1, 12):02d}-"
                  f"{rng.randint(1, 31):02d}"),
        )
        triples.append((rowid, rng.randint(0, 10 ** 6), values))
    return triples


def empty_table():
    table = HeapTable("t", SCHEMA)
    for name, column in INDEXES:
        table.create_index(name, column)
    return table


def put_one_by_one(triples):
    table = empty_table()
    for rowid, version, values in triples:
        table.restore_row(rowid, values, version)
    return table


def reference_csv(triples):
    """Every cell rendered by ``value_to_csv``, one row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for rowid, version, values in triples:
        writer.writerow([str(rowid), str(version),
                         *map(value_to_csv, values)])
    return buffer.getvalue()


def state(table):
    # repr tells -0.0 from 0.0 and keeps dict order
    return (repr(list(table.rows.items())), list(table.versions.items()),
            table._pk_index, table.next_rowid,
            {name: index.buckets for name, index in table.indexes.items()})


@pytest.mark.parametrize("seed", range(5))
def test_restore_csv_round_trip_equals_put_row(seed):
    triples = random_triples(seed)
    text = csvio.format_versioned_rows(triples, SCHEMA)
    assert text == reference_csv(triples)
    body = csvio.parse_versioned_rows(text, SCHEMA)
    assert list(body) == triples
    restored = empty_table()
    body.install_into(restored)
    assert state(restored) == state(put_one_by_one(triples))


@pytest.mark.parametrize("seed", range(5))
def test_table_file_round_trip_equals_put_row(seed):
    # a table file holds its rows in rowid order
    triples = sorted(random_triples(seed))
    table = put_one_by_one(triples)
    text = table.serialize()
    assert text.split("\n", 1)[1] == reference_csv(triples)
    assert state(HeapTable.deserialize(text)) == state(table)


def test_install_into_a_table_with_rows_keeps_them():
    triples = sorted(random_triples(7))
    table = put_one_by_one(triples[:100])
    csvio.parse_versioned_rows(
        csvio.format_versioned_rows(triples[100:], SCHEMA),
        SCHEMA).install_into(table)
    assert state(table) == state(put_one_by_one(triples))


def test_refused_install_changes_nothing():
    triples = sorted(random_triples(8))
    table = put_one_by_one(triples[:100])
    before = state(table)
    clash = triples[100:120] + [triples[5]]
    # text cells may hold newlines: the clash starts after those lines
    line = csvio.format_versioned_rows(clash[:20], SCHEMA).count("\n") + 1
    with pytest.raises(IntegrityError, match=f"^line {line}: duplicate "
                                             f"rowid {triples[5][0]} "):
        csvio.parse_versioned_rows(
            csvio.format_versioned_rows(clash, SCHEMA),
            SCHEMA).install_into(table)
    assert state(table) == before


DATE_SCHEMA = Schema([Column("day", SQLType.DATE)])

# _validate_date's verdicts: ASCII and other Unicode digits
DATES = [
    ("1998-01-02", True),
    ("1998-02-31", True),  # the shape is checked, not the calendar
    ("0000-01-01", True),
    ("9999-12-31", True),
    ("1998-1-01", False),
    ("98-01-01", False),
    ("1998-00-10", False),
    ("1998-13-01", False),
    ("1998-01-00", False),
    ("1998-01-32", False),
    ("1998-01-02 ", False),
    ("1998-01-02\n", False),
    ("1998/01/02", False),
    ("+998-01-01", False),
    ("1998-01-0a", False),
    ("1998-01-01-01", False),
    ("١٩٩٨-٠١-٠١", True),  # Arabic-Indic digits
    ("²⁰²⁴-01-01", True),  # superscripts: the year is never int()-ed
    ("2024-²¹-01", False),  # ... but the month is
]


def validate_date_accepts(text):
    try:
        _validate_date(text)
    except (TypeError_, ValueError):
        return False
    return True


@pytest.mark.parametrize("text,accepted", DATES,
                         ids=[repr(text) for text, _ in DATES])
def test_date_check_accepts_exactly_validate_dates_set(text, accepted):
    assert validate_date_accepts(text) is accepted
    csv_text = csvio.format_versioned_rows([(1, 1, (text,))], DATE_SCHEMA)
    if accepted:
        body = csvio.parse_versioned_rows(csv_text, DATE_SCHEMA)
        assert body.rows == [(text,)]
    else:
        with pytest.raises(ExecutionError, match="line 1: column day: "
                                                 "invalid DATE literal"):
            csvio.parse_versioned_rows(csv_text, DATE_SCHEMA)


def test_date_column_with_nulls_is_checked_cell_by_cell():
    text = csvio.format_versioned_rows(
        [(1, 1, (None,)), (2, 1, ("١٩٩٨-٠١-٠١",)), (3, 1, ("1998-13-01",))],
        DATE_SCHEMA)
    with pytest.raises(ExecutionError, match="line 3: "):
        csvio.parse_versioned_rows(text, DATE_SCHEMA)
