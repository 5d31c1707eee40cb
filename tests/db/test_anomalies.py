"""Transaction anomalies under the one-writer rule.

Each classic anomaly is two sessions' plain statement sequences, sent
over the wire, one connection per session, in the order a schedule
names: ``"a a b a"`` sends a's first two statements, then b's first,
then a's third. While one session has a transaction open, the other
session's BEGIN and writes are refused with a one-line
``TransientError`` and have no effect, so:

* dirty read          — forbidden (uncommitted writes are private)
* non-repeatable read — forbidden (no other session can commit while
  the transaction is open)
* lost update         — forbidden (the second writer is refused, and
  told so)
* write skew          — forbidden (snapshot isolation permitted it: two
  transactions read a shared invariant and wrote disjoint rows; now
  the second cannot write at all)

No statement here ever sleeps: the order of statements, not timing,
decides every case, so each is exactly reproducible. The retry test
injects its backoff's ``sleep``.
"""

import itertools
from pathlib import Path

import pytest

from repro.db import Database, DBClient, DBServer, RetryPolicy
from repro.errors import DatabaseError

pytestmark = pytest.mark.concurrency


def bank(*extra_sql):
    database = Database()
    database.execute(
        "CREATE TABLE accounts (id integer PRIMARY KEY, balance integer)")
    database.execute("INSERT INTO accounts VALUES (1, 100), (2, 100)")
    for sql in extra_sql:
        database.execute(sql)
    return database


def run(schedule, scripts, database=None):
    """Send each session's statements in the order ``schedule`` names,
    one letter per statement. Returns the database and, per session,
    each statement's result or the :class:`DatabaseError` it raised.
    Statements the schedule leaves out are never sent; closing the
    connections rolls back whatever is still open."""
    database = database if database is not None else bank()
    server = DBServer(database)
    clients = {name: DBClient(server.transport(), name, name)
               for name in scripts}
    pending = {name: iter(statements) for name, statements in scripts.items()}
    outcome = {name: [] for name in scripts}
    for client in clients.values():
        client.connect()
    for name in schedule.split():
        try:
            outcome[name].append(clients[name].execute(next(pending[name])))
        except DatabaseError as exc:
            outcome[name].append(exc)
    for client in clients.values():
        client.close()
    return database, outcome


def interleavings(scripts):
    """Every schedule of sessions ``a`` and ``b`` that sends all of
    their statements."""
    total = len(scripts["a"]) + len(scripts["b"])
    for b_positions in itertools.combinations(range(total),
                                              len(scripts["b"])):
        yield " ".join("b" if position in b_positions else "a"
                       for position in range(total))


def errors(outcome):
    return [type(entry).__name__ for results in outcome.values()
            for entry in results if isinstance(entry, Exception)]


def balance(database, account_id=1):
    return database.query(
        f"SELECT balance FROM accounts WHERE id = {account_id}")[0][0]


def total(database):
    return database.query("SELECT sum(balance) FROM accounts")[0][0]


class TestDirtyRead:
    """b must never observe a's uncommitted (later rolled back) write."""

    SCRIPTS = {
        "a": ["BEGIN",
              "UPDATE accounts SET balance = 999 WHERE id = 1",
              "ROLLBACK"],
        "b": ["SELECT balance FROM accounts WHERE id = 1"],
    }

    @pytest.mark.parametrize("schedule", [
        "a a b a",   # read while the dirty write is pending
        "a b a a",   # read between BEGIN and the write
        "a a a b",   # read after the rollback
        "b a a a",   # read before the transaction starts
    ])
    def test_never_observed(self, schedule):
        database, outcome = run(schedule, self.SCRIPTS)
        assert outcome["b"][0].rows == [(100,)]
        assert errors(outcome) == []  # a read is never refused
        assert balance(database) == 100

    def test_never_observed_in_any_interleaving(self):
        schedules = list(interleavings(self.SCRIPTS))
        assert len(schedules) == 4  # C(4,1) placements of b's read
        for schedule in schedules:
            _, outcome = run(schedule, self.SCRIPTS)
            assert outcome["b"][0].rows == [(100,)], schedule


class TestNonRepeatableRead:
    """Both of a's reads must return the same value: b's update is
    refused while a's transaction is open."""

    SCRIPTS = {
        "a": ["BEGIN",
              "SELECT balance FROM accounts WHERE id = 1",
              "SELECT balance FROM accounts WHERE id = 1",
              "COMMIT"],
        "b": ["UPDATE accounts SET balance = 250 WHERE id = 1"],
    }

    @pytest.mark.parametrize("schedule", [
        "a a b a a",   # update sent between the two reads
        "a b a a a",   # update sent before the first read
        "b a a a a",   # update commits before BEGIN: both reads see it
        "a a a b a",   # update sent after both reads
    ])
    def test_reads_are_repeatable(self, schedule):
        database, outcome = run(schedule, self.SCRIPTS)
        first, second = (result.rows[0][0] for result in outcome["a"][1:3])
        assert first == second, "read changed inside one transaction"
        # b is refused unless it ran before a's BEGIN
        landed = schedule.startswith("b")
        assert first == (250 if landed else 100)
        assert errors(outcome) == ([] if landed else ["TransientError"])
        assert balance(database) == (250 if landed else 100)

    def test_repeatable_in_any_interleaving(self):
        for schedule in interleavings(self.SCRIPTS):
            _, outcome = run(schedule, self.SCRIPTS)
            first, second = (result.rows[0][0]
                             for result in outcome["a"][1:3])
            assert first == second, schedule


def deposit(amount):
    return ["BEGIN",
            "SELECT balance FROM accounts WHERE id = 1",
            f"UPDATE accounts SET balance = balance + {amount} "
            f"WHERE id = 1",
            "COMMIT"]


class TestLostUpdate:
    """Two read-modify-write transactions on the same row: the second
    writer is refused while the first is open, so every increment
    either lands or its session got an error. None is silently
    overwritten."""

    SCRIPTS = {"a": deposit(10), "b": deposit(25)}
    AMOUNTS = {"a": 10, "b": 25}

    @pytest.mark.parametrize("schedule,expected", [
        # fully overlapped: b's BEGIN and UPDATE are refused
        ("a a b b a b a b", {100 + 10}),
        # b's BEGIN is refused; its UPDATE, sent after a commits, runs
        # as an autocommit and lands (b's COMMIT is never sent)
        ("a a a b b a b", {100 + 10 + 25}),
        # serial execution: both commit
        ("a a a a b b b b", {100 + 10 + 25}),
        ("b b b b a a a a", {100 + 10 + 25}),
    ])
    def test_no_update_is_lost(self, schedule, expected):
        database, outcome = run(schedule, self.SCRIPTS)
        assert balance(database) in expected
        landed = [name for name in "ab"
                  if len(outcome[name]) > 2
                  and not isinstance(outcome[name][2], Exception)]
        assert balance(database) == 100 + sum(
            self.AMOUNTS[n] for n in landed)
        if len(landed) < 2:
            assert "TransientError" in errors(outcome)

    def test_never_lost_in_any_interleaving(self):
        for schedule in interleavings(self.SCRIPTS):
            database, outcome = run(schedule, self.SCRIPTS)
            landed = [name for name in "ab"
                      if not isinstance(outcome[name][2], Exception)]
            assert landed, f"both updates refused under {schedule}"
            assert balance(database) == 100 + sum(
                self.AMOUNTS[n] for n in landed), schedule

    def test_conflicted_transaction_retries_to_success(self):
        """b's BEGIN is refused while a's transaction is open; its
        retry policy backs off (the injected sleep lets a finish) and
        the retried BEGIN succeeds, so both increments land."""
        database = bank()
        server = DBServer(database)
        alice = DBClient(server.transport(), "alice", "1")
        alice.connect()
        naps = []

        def nap(delay):
            naps.append(delay)
            if alice.in_transaction:
                alice.commit()

        policy = RetryPolicy(max_attempts=4, sleep=nap)
        bob = DBClient(server.transport(), "bob", "2", retry_policy=policy)
        bob.connect()
        alice.begin()
        alice.execute("UPDATE accounts SET balance = balance + 10 "
                      "WHERE id = 1")
        bob.begin()
        bob.execute("UPDATE accounts SET balance = balance + 25 "
                    "WHERE id = 1")
        bob.commit()
        assert naps == [policy.delay_for(0)]
        assert bob.retries_performed == 1
        assert balance(database) == 135


def withdraw(account_id):
    """Withdraw everything from one account, but only while the two
    accounts together keep at least 100 after it."""
    return ["BEGIN",
            "SELECT sum(balance) FROM accounts",
            f"UPDATE accounts SET balance = 0 WHERE id = {account_id} "
            f"AND (SELECT sum(balance) FROM accounts) >= 200",
            "COMMIT"]


class TestWriteSkew:
    """Both transactions check the invariant ``sum(balance) >= 100``
    and write *different* rows. Snapshot isolation let both commit,
    leaving the invariant broken. Under the one-writer rule the second
    writer is refused while the first is open, and a later one sees the
    first's commit."""

    SCRIPTS = {"a": withdraw(1), "b": withdraw(2)}

    @pytest.mark.parametrize("schedule", [
        "a a b b a b a b",   # fully interleaved
        "a b a b a b a b",   # lock-step
        "a a a b b b a b",   # a writes before b reads
    ])
    def test_second_writer_is_refused_and_invariant_holds(self, schedule):
        database, outcome = run(schedule, self.SCRIPTS)
        begin, read, update, commit = outcome["b"]
        assert type(begin).__name__ == "TransientError"
        assert read.rows == [(200,)]  # b reads committed state only
        assert type(update).__name__ == "TransientError"
        assert type(commit).__name__ == "TransactionError"
        assert outcome["a"][2].rowcount == 1
        assert total(database) == 100

    @pytest.mark.parametrize("schedule", [
        "a a a a b b b",     # serial: b sees a's commit and withdraws nothing
        "b b b b a a a",
    ])
    def test_serial_execution_preserves_the_invariant(self, schedule):
        database, outcome = run(schedule, self.SCRIPTS)
        first, second = schedule[0], schedule[-1]
        assert outcome[first][2].rowcount == 1
        assert outcome[second][2].rowcount == 0
        assert errors(outcome) == []
        assert total(database) == 100

    def test_materializing_the_conflict_restores_safety(self):
        """The textbook fix for snapshot isolation: touch a shared row
        so the write-sets overlap. It still holds, in every
        interleaving."""
        scripts = {
            name: script[:2] + ["UPDATE ledger SET withdrawals = "
                                "withdrawals + 1 WHERE id = 1"]
            + script[2:]
            for name, script in (("a", withdraw(1)), ("b", withdraw(2)))}
        for schedule in interleavings(scripts):
            database = bank(
                "CREATE TABLE ledger (id integer PRIMARY KEY, "
                "withdrawals integer)",
                "INSERT INTO ledger VALUES (1, 0)")
            run(schedule, scripts, database)
            assert total(database) >= 100, (
                f"invariant broken under {schedule} despite "
                f"materialized conflict")


def test_no_wall_clock_sleeps_in_the_concurrency_suite():
    """Concurrency tests control the order of statements; they never
    sleep and hope. Tests that exercise retry backoff inject their own
    sleep hook."""
    suite = Path(__file__).parent
    for name in ("test_anomalies.py", "test_mvcc.py",
                 "test_concurrent_commit_recovery.py"):
        text = (suite / name).read_text()
        forbidden = "time." + "sleep("  # split so this file passes too
        assert forbidden not in text, f"{name} sleeps"
