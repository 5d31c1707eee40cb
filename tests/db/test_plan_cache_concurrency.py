"""A prepared statement's kept plan under concurrent sessions.

The engine has no shared plan cache; the one plan a prepared statement
keeps is shared by every session that executes it. Sessions must
share that one plan, and it must stay snapshot-correct per session.
"""

import pytest

from repro.db import Database

pytestmark = pytest.mark.concurrency


def setup():
    database = Database()
    database.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


class TestScheduledSessions:
    def test_two_sessions_planning_the_same_sql_share_one_entry(
            self, plans):
        database = setup()
        prepared = database.prepare("SELECT v FROM t WHERE id = $1")
        a = database.create_session("a")
        b = database.create_session("b")
        for session, key in ((a, 1), (b, 2), (a, 2), (b, 1)):
            rows = database.execute_prepared(prepared, [key],
                                             session=session).rows
            assert rows == [(key * 10,)]
        assert len(plans) == 1

    def test_cached_plan_stays_snapshot_correct_across_sessions(self):
        """The regression the ambient read-view exists for: session b
        re-executes the *kept* plan inside its snapshot and must not
        see a's later committed write."""
        database = setup()
        prepared = database.prepare("SELECT v FROM t WHERE id = $1")
        a = database.create_session("a")
        b = database.create_session("b")

        def read(session):
            return database.execute_prepared(prepared, [1],
                                             session=session).rows

        # a keeps the plan, then writes through the same plan shape
        assert read(a) == [(10,)]
        database.execute("BEGIN", session=b)
        assert read(b) == [(10,)]
        database.execute("UPDATE t SET v = 99 WHERE id = 1", session=a)
        assert read(b) == [(10,)]
        database.execute("COMMIT", session=b)
        assert read(b) == [(99,)]
        assert read(a) == [(99,)]
