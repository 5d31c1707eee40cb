"""PlanCache under concurrent use.

Two angles: scheduler-driven sessions sharing cached plans through the
engine (LRU order and counters must stay coherent, and cached plans
must stay snapshot-correct per session), and a raw thread hammer on the
cache object itself — the regression for the counters/eviction race
that a single internal lock now prevents.
"""

import threading

import pytest

from repro.db import Database, InterleavingScheduler
from repro.db.engine import PlanCache

pytestmark = pytest.mark.concurrency


def setup():
    database = Database()
    database.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


class TestScheduledSessions:
    def test_two_sessions_planning_the_same_sql_share_one_entry(self):
        def probe():
            yield "SELECT v FROM t WHERE id = 1"
            yield "SELECT v FROM t WHERE id = 2"
            yield "SELECT v FROM t WHERE id = 1"

        scheduler = InterleavingScheduler(
            setup, {"a": probe, "b": probe}, through_wire=False)
        for outcome in scheduler.explore(limit=12, seed=3):
            cache = outcome.database.plan_cache
            keys = cache.keys()
            # same normalized SQL from both sessions → one entry each
            assert len(keys) == len(set(keys)), "duplicate cache entries"
            assert len(keys) == 2
            counters = cache.counters()
            gets = counters["hits"] + counters["misses"]
            assert gets >= 6  # both sessions, every statement consulted
            assert counters["misses"] == 2
            assert len(cache) == len(keys)

    def test_lru_order_reflects_the_schedule_not_the_session(self):
        def a():
            yield "SELECT v FROM t WHERE id = 1"

        def b():
            yield "SELECT v FROM t WHERE id = 2"

        scheduler = InterleavingScheduler(
            setup, {"a": a, "b": b}, through_wire=False)
        first = scheduler.run("a b").database.plan_cache.keys()
        second = scheduler.run("b a").database.plan_cache.keys()
        # keys() yields least-recently-used first
        assert first != second
        assert sorted(first) == sorted(second)

    def test_cached_plan_stays_snapshot_correct_across_sessions(self):
        """The regression the ambient read-view exists for: session b
        re-executes a *cached* plan inside its snapshot and must not
        see a's later committed write."""
        def b():
            yield "BEGIN"
            first = yield "SELECT v FROM t WHERE id = 1"
            second = yield "SELECT v FROM t WHERE id = 1"
            yield "COMMIT"
            return (first.rows[0][0], second.rows[0][0])

        def a():
            # warms the cache, then writes through the same plan shape
            yield "SELECT v FROM t WHERE id = 1"
            yield "UPDATE t SET v = 99 WHERE id = 1"

        scheduler = InterleavingScheduler(
            setup, {"a": a, "b": b}, through_wire=False)
        outcome = scheduler.run("a b b a b b")
        assert outcome.value("b") == (10, 10)
        assert outcome.query("SELECT v FROM t WHERE id = 1") == [(99,)]


class TestThreadHammer:
    def test_concurrent_get_put_never_corrupts_the_lru(self):
        cache = PlanCache(capacity=8)
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for round_number in range(300):
                    key = (f"q{(worker + round_number) % 12}",)
                    if cache.get(key) is None:
                        cache.put(key, object())
                    if round_number % 97 == 0:
                        cache.clear()
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        keys = cache.keys()
        assert len(keys) == len(set(keys)), "LRU order corrupted"
        assert len(keys) <= 8, "eviction failed to hold capacity"
        assert len(cache) == len(keys)
        counters = cache.counters()
        assert counters["hits"] >= 0 and counters["misses"] >= 0
        assert counters["hits"] + counters["misses"] == 4 * 300

    def test_eviction_and_counters_agree_under_threads(self):
        cache = PlanCache(capacity=4)
        barrier = threading.Barrier(8)

        def fill(worker: int) -> None:
            barrier.wait()
            for round_number in range(200):
                cache.put((worker, round_number), object())

        threads = [threading.Thread(target=fill, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 4
        assert len(cache.keys()) == 4
