"""EXPLAIN ANALYZE under the rote planner.

``ANALYZE`` as a statement is gone (the planner keeps no statistics),
but the keyword still introduces ``EXPLAIN ANALYZE``, and its output
carries measured rows only: no estimate column or field.
"""

from __future__ import annotations

from repro.db import Database
from repro.db.sql.parser import parse_sql
from repro.db.sql import ast


def skewed_three_table_db():
    """Fact × fan-out junction × selective dimension."""
    db = Database()
    db.execute("CREATE TABLE f (k integer, d1 integer, d2 integer)")
    db.execute("CREATE TABLE j (d1 integer, payload integer)")
    db.execute("CREATE TABLE s (d2 integer, flag integer)")
    db.execute("INSERT INTO f VALUES " + ", ".join(
        f"({k}, {k % 100}, {(k * 7) % 300})" for k in range(600)))
    db.execute("INSERT INTO j VALUES " + ", ".join(
        f"({d1}, {p})" for d1 in range(100) for p in range(5)))
    db.execute("INSERT INTO s VALUES " + ", ".join(
        f"({d2}, {(d2 * 13) % 1000})" for d2 in range(300)))
    sql = ("SELECT count(*) FROM f, j, s WHERE f.d1 = j.d1 "
           "AND f.d2 = s.d2 AND s.flag < 10")
    return db, sql


class TestAnalyzeStatement:
    def test_explain_analyze_still_parses_as_explain(self):
        statement = parse_sql("EXPLAIN ANALYZE SELECT 1")[0]
        assert isinstance(statement, ast.Explain)
        assert statement.analyze


class TestExplainEstimates:
    def test_without_stats_explain_analyze_is_unchanged(self):
        db, sql = skewed_three_table_db()
        result = db.execute("EXPLAIN ANALYZE " + sql)
        text = "\n".join(row[0] for row in result.rows)
        assert "rows=" in text and "est=" not in text
        operators = result.stats["analyze"]["operators"]
        assert operators
        assert all(not key.startswith("est")
                   for entry in operators for key in entry)
