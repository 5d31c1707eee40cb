"""Chaos-hardened serving: exactly-once retries, admission control,
graceful drain, connection reaping, group-commit aborts, and the
seeded randomized fault-campaign harness.

Campaign tests are marked ``chaos``; every campaign failure message
(and the parametrized test id) carries the seed, so a red CI run is
reproducible with ``run_campaign(seed, ...)`` locally.
"""

import pytest

from repro.db import Database, DBClient, DBServer, RetryPolicy
from repro.db import protocol
from repro.db.chaos import (
    CampaignSpec,
    FakeClock,
    expected_state,
    generate_workload,
    run_campaign,
    tree_bytes,
)
from repro.db.server import AdmissionControl
from repro.errors import (
    GroupCommitError,
    OverloadedError,
    ServerDrainingError,
    TransientError,
)
from repro.faults import FaultInjector, FaultyIO


def make_server(**kwargs):
    database = Database()
    database.execute("CREATE TABLE t (x integer, y integer)")
    return DBServer(database, **kwargs)


def make_client(server_or_transport, **kwargs):
    transport = (server_or_transport.transport()
                 if isinstance(server_or_transport, DBServer)
                 else server_or_transport)
    kwargs.setdefault("retry_policy",
                      RetryPolicy(max_attempts=5, base_delay=0.01,
                                  sleep=lambda _: None))
    client = DBClient(transport, "app", "p1", **kwargs)
    client.connect()
    return client


def lossy_transport(server, should_drop):
    """A transport that *executes* each request but loses the response
    of every frame ``should_drop`` matches — the ambiguous-outcome
    failure (work done, acknowledgement gone) that makes naive retries
    double-apply."""
    real = server.transport()

    def transport(request_text):
        frame = protocol.decode_frame(request_text)
        response = real(request_text)
        if should_drop(frame):
            raise TransientError("response frame lost")
        return response

    return transport


def drop_once(predicate):
    """Wrap ``predicate`` so it only fires on its first match."""
    armed = {"live": True}

    def should_drop(frame):
        if armed["live"] and predicate(frame):
            armed["live"] = False
            return True
        return False

    return should_drop


class TestExactlyOnceRetries:
    """A retried mutation whose original response was lost must return
    the recorded result, not re-execute — on every execution path."""

    def test_lost_text_response_applies_once(self):
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and "INSERT" in f.get("sql", ""))
        client = make_client(lossy_transport(server, drop))
        client.execute("INSERT INTO t VALUES (1, 10)")
        assert client.query("SELECT x FROM t") == [(1,)]
        assert server.database.dedupe_ledger.hits == 1

    def test_without_tokens_the_same_loss_double_applies(self):
        # the failure mode idempotency tokens exist to remove
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and "INSERT" in f.get("sql", ""))
        client = make_client(lossy_transport(server, drop),
                             idempotency_tokens=False)
        client.execute("INSERT INTO t VALUES (1, 10)")
        assert client.query("SELECT x FROM t") == [(1,), (1,)]

    def test_lost_prepared_response_applies_once(self):
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "bind-execute")
        client = make_client(lossy_transport(server, drop))
        prepared = client.prepare("INSERT INTO t VALUES ($1, $2)")
        prepared.execute((7, 70))
        assert client.query("SELECT x FROM t") == [(7,)]
        assert server.database.dedupe_ledger.hits == 1

    def test_lost_pipeline_response_applies_each_once(self):
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "pipeline")
        client = make_client(lossy_transport(server, drop))
        with client.pipeline() as batch:
            first = batch.execute("INSERT INTO t VALUES (1, 10)")
            second = batch.execute("INSERT INTO t VALUES (2, 20)")
        assert first.result().rowcount == 1
        assert second.result().rowcount == 1
        assert client.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]
        assert server.database.dedupe_ledger.hits == 2

    def test_lost_stream_open_does_not_leak_a_cursor(self):
        server = make_server()
        for value in range(6):
            server.database.execute(
                f"INSERT INTO t VALUES ({value}, {value * 10})")
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and f.get("fetch") is not None)
        client = make_client(lossy_transport(server, drop))
        cursor = client.execute_stream("SELECT x FROM t ORDER BY x",
                                       fetch_size=2)
        assert cursor.fetch_all() == [(x,) for x in range(6)]
        # the retried open replayed the original cursor frame instead
        # of opening a second cursor whose snapshot would pin MVCC
        # history forever
        assert server.server_counters()["open_cursors"] == 0
        assert server.database.mvcc.active_count() == 0

    def test_explicit_tokens_dedupe_across_clients(self):
        # the token, not the connection, is the idempotency key: a
        # failed-over client resending its predecessor's token gets
        # the recorded result
        server = make_server()
        first = make_client(server)
        first.execute("INSERT INTO t VALUES (1, 10)", token="job-42")
        second = make_client(server)
        result = second.execute("INSERT INTO t VALUES (1, 10)",
                                token="job-42")
        assert result.rowcount == 1
        assert second.query("SELECT x FROM t") == [(1,)]

    def test_ledger_survives_crash_recovery(self, tmp_path):
        # the dedupe ledger rides the WAL: a retry that lands on the
        # *restarted* server is still answered from the ledger
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (x integer)")
        server = DBServer(database)
        client = make_client(server)
        client.execute("INSERT INTO t VALUES (1)", token="epoch-1")
        server.shutdown()

        revived = DBServer(Database(data_directory=tmp_path))
        survivor = make_client(revived)
        result = survivor.execute("INSERT INTO t VALUES (1)",
                                  token="epoch-1")
        assert result.rowcount == 1
        assert survivor.query("SELECT x FROM t") == [(1,)]
        assert revived.database.dedupe_ledger.hits == 1

    def test_selects_are_not_tokenized(self):
        # read-only statements skip the ledger: they are naturally
        # idempotent, and ledger entries would evict mutation results
        server = make_server()
        client = make_client(server)
        client.query("SELECT x FROM t")
        client.query("SELECT x FROM t")
        assert server.database.dedupe_ledger.stores == 0


class TestAdmissionControl:
    def make_loaded_server(self, capacity, refill):
        clock = FakeClock()
        admission = AdmissionControl(capacity=capacity,
                                     refill_per_second=refill,
                                     timer=clock.read)
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        return DBServer(database, admission=admission), admission, clock

    def test_dry_bucket_sheds_with_retry_after_hint(self):
        server, admission, _ = self.make_loaded_server(2, 1.0)
        client = make_client(server, retry_policy=None)
        client.query("SELECT x FROM t")
        client.query("SELECT x FROM t")
        with pytest.raises(OverloadedError) as info:
            client.query("SELECT x FROM t")
        assert info.value.retry_after > 0
        assert admission.shed == 1

    def test_shed_happens_before_any_execution(self):
        server, _, _ = self.make_loaded_server(1, 0.0)
        client = make_client(server, retry_policy=None)
        client.query("SELECT x FROM t")
        with pytest.raises(OverloadedError):
            client.execute("INSERT INTO t VALUES (1)")
        # the shed insert never ran — nothing to double-apply later
        assert server.database.query("SELECT x FROM t") == []

    def test_client_backoff_waits_out_the_hint(self):
        server, admission, clock = self.make_loaded_server(1, 10.0)
        policy = RetryPolicy(max_attempts=6, base_delay=0.001,
                             sleep=clock.advance)
        client = make_client(server, retry_policy=policy)
        client.query("SELECT x FROM t")
        # bucket is dry; the retry sleeps through the hint on the
        # shared clock, after which the refilled bucket admits it
        assert client.query("SELECT x FROM t") == []
        assert admission.shed >= 1
        assert client.retries_performed >= 1

    def test_retry_after_floors_the_backoff_delay(self):
        delays = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.001,
                             sleep=delays.append)
        server, _, _ = self.make_loaded_server(1, 2.0)
        client = make_client(server, retry_policy=policy)
        client.query("SELECT x FROM t")
        # the recorded sleeps never advance the admission clock, so
        # the retries stay shed — what matters is each backoff was
        # floored by the server's ~0.5s hint, not the 1ms base delay
        with pytest.raises(OverloadedError):
            client.query("SELECT x FROM t")
        assert delays and min(delays) >= 0.4

    def test_pipeline_envelope_is_one_admission_unit(self):
        server, admission, _ = self.make_loaded_server(4, 0.0)
        client = make_client(server)
        with client.pipeline() as batch:
            handles = [batch.execute(f"INSERT INTO t VALUES ({n})")
                       for n in range(3)]
        assert all(handle.result().rowcount == 1 for handle in handles)
        # charged once (by depth), inner frames exempt: a mid-batch
        # shed would leave a partially-executed, unretryable envelope
        assert admission.admitted == 1
        assert admission.shed == 0

    def test_each_statement_costs_one_token(self):
        server, admission, _ = self.make_loaded_server(8, 0.0)
        client = make_client(server, retry_policy=None)
        for _ in range(8):
            client.query("SELECT x FROM t")
        with pytest.raises(OverloadedError):
            client.query("SELECT x FROM t")
        assert admission.admitted == 8


class TestGracefulDrain:
    def test_drain_rejects_new_statements(self):
        server = make_server()
        client = make_client(server, retry_policy=None)
        server.drain()
        with pytest.raises(ServerDrainingError) as info:
            client.execute("INSERT INTO t VALUES (1)")
        assert info.value.retry_after > 0
        assert server.server_counters()["drain_rejections"] == 1

    def test_drain_rejects_new_connections(self):
        server = make_server()
        server.drain()
        with pytest.raises(ServerDrainingError):
            DBClient(server.transport()).connect()

    def test_in_flight_transaction_finishes_during_drain(self):
        server = make_server()
        client = make_client(server, retry_policy=None)
        client.execute("BEGIN")
        client.execute("INSERT INTO t VALUES (1, 10)")
        server.drain()
        assert not server.drained  # the open transaction is in flight
        client.execute("INSERT INTO t VALUES (2, 20)")
        client.execute("COMMIT")
        assert server.drained
        assert server.database.query("SELECT x FROM t ORDER BY x") \
            == [(1,), (2,)]

    def test_open_cursor_drains_before_drained(self):
        server = make_server()
        for value in range(4):
            server.database.execute(
                f"INSERT INTO t VALUES ({value}, 0)")
        client = make_client(server, retry_policy=None)
        cursor = client.execute_stream("SELECT x FROM t", fetch_size=2)
        server.drain()
        assert not server.drained
        assert len(cursor.fetch_all()) == 4
        assert server.drained

    def test_undrain_restores_service(self):
        server = make_server()
        client = make_client(server, retry_policy=None)
        server.drain()
        with pytest.raises(ServerDrainingError):
            client.execute("INSERT INTO t VALUES (1, 10)")
        server.undrain()
        assert client.execute("INSERT INTO t VALUES (1, 10)").rowcount == 1


class TestConnectionReaping:
    def make_timed_server(self, timeout=10.0):
        clock = FakeClock()
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        server = DBServer(database, connection_timeout=timeout,
                          timer=clock.read)
        return server, clock

    def test_idle_connection_with_open_txn_is_reaped(self):
        server, clock = self.make_timed_server()
        zombie = make_client(server, retry_policy=None)
        zombie.execute("BEGIN")
        zombie.execute("INSERT INTO t VALUES (1)")
        clock.advance(60.0)
        # any live traffic sweeps the idle peer; its transaction is
        # rolled back so it cannot pin MVCC history
        live = make_client(server, retry_policy=None)
        live.query("SELECT x FROM t")
        counters = server.server_counters()
        assert counters["connections_reaped"] == 1
        assert server.database.mvcc.active_count() == 0
        assert server.database.query("SELECT x FROM t") == []

    def test_idle_connection_with_open_cursor_is_reaped(self):
        server, clock = self.make_timed_server()
        for value in range(6):
            server.database.execute(f"INSERT INTO t VALUES ({value})")
        zombie = make_client(server, retry_policy=None)
        zombie.execute_stream("SELECT x FROM t", fetch_size=2)
        assert server.server_counters()["open_cursors"] == 1
        clock.advance(60.0)
        live = make_client(server, retry_policy=None)
        live.query("SELECT x FROM t")
        assert server.server_counters()["open_cursors"] == 0
        assert server.database.mvcc.active_count() == 0

    def test_active_connection_is_not_reaped(self):
        server, clock = self.make_timed_server()
        client = make_client(server, retry_policy=None)
        for _ in range(5):
            clock.advance(5.0)  # busy: always inside the timeout
            client.query("SELECT x FROM t")
        assert server.server_counters()["connections_reaped"] == 0


class TestGroupCommitAbort:
    def make_faulty_server(self, tmp_path, injector):
        database = Database(data_directory=tmp_path,
                            io=FaultyIO(injector))
        return DBServer(database)

    def test_failed_group_fsync_aborts_every_member(self, tmp_path):
        plain = Database(data_directory=tmp_path)
        plain.execute("CREATE TABLE t (x integer)")
        plain.close()
        # occurrence 1 of wal.fsync is the pipeline's group commit
        injector = FaultInjector().fail_at("wal.fsync", occurrence=1)
        server = self.make_faulty_server(tmp_path, injector)
        client = make_client(server, retry_policy=None)
        with client.pipeline() as batch:
            handles = [batch.execute("INSERT INTO t VALUES (1)"),
                       batch.execute("INSERT INTO t VALUES (2)")]
        # every member aborted together — no half-acknowledged batch
        for handle in handles:
            with pytest.raises(GroupCommitError):
                handle.result()
        assert server.group_aborts == 1
        assert server.database.failed
        fresh = Database(data_directory=tmp_path)
        assert fresh.query("SELECT x FROM t") == []

    @pytest.mark.crash
    def test_retry_after_group_abort_recovery_is_exactly_once(
            self, tmp_path):
        plain = Database(data_directory=tmp_path)
        plain.execute("CREATE TABLE t (x integer)")
        plain.close()
        injector = FaultInjector().fail_at("wal.fsync", occurrence=1)
        server = self.make_faulty_server(tmp_path, injector)
        client = make_client(server, retry_policy=None)
        tokens = ("grp.0", "grp.1")
        with client.pipeline() as batch:
            handles = [batch.execute("INSERT INTO t VALUES (1)",
                                     token=tokens[0]),
                       batch.execute("INSERT INTO t VALUES (2)",
                                     token=tokens[1])]
        for handle in handles:
            with pytest.raises(GroupCommitError):
                handle.result()
        # the poisoned server refuses further work until restarted
        with pytest.raises(GroupCommitError):
            client.query("SELECT x FROM t")

        revived = DBServer(Database(data_directory=tmp_path))
        survivor = make_client(revived)
        with survivor.pipeline() as batch:
            first = batch.execute("INSERT INTO t VALUES (1)",
                                  token=tokens[0])
            second = batch.execute("INSERT INTO t VALUES (2)",
                                   token=tokens[1])
        assert first.result().rowcount == 1
        assert second.result().rowcount == 1
        # the abort truncated the WAL, so the retried tokens execute
        # fresh — once — and the table holds exactly one batch
        assert survivor.query("SELECT x FROM t ORDER BY x") \
            == [(1,), (2,)]


class TestWorkloadDeterminism:
    def test_same_seed_same_workload(self):
        spec = CampaignSpec(seed=11)
        assert generate_workload(spec) == generate_workload(spec)

    def test_different_seeds_differ(self):
        assert generate_workload(CampaignSpec(seed=1)) \
            != generate_workload(CampaignSpec(seed=2))

    def test_expected_state_applies_each_effect_once(self):
        spec = CampaignSpec(seed=3, clients=1, rounds=4)
        state = expected_state(spec)
        replayed = {}
        for steps in generate_workload(spec):
            for step in steps:
                for operation, key, operand in step["effects"]:
                    if operation == "insert":
                        replayed[key] = operand
                    elif operation == "update":
                        replayed[key] += operand
                    else:
                        replayed.pop(key)
        assert state == replayed


@pytest.mark.chaos
class TestFaultCampaigns:
    """Seeded end-to-end campaigns. The seed is in the test id and in
    every failure message — rerun a red seed with
    ``run_campaign(seed, some_dir)``."""

    def test_campaign_holds_all_invariants(self, campaign_seed,
                                           tmp_path):
        report = run_campaign(campaign_seed, tmp_path)
        assert report.steps > 0
        assert report.final_rows == expected_state(
            CampaignSpec(seed=campaign_seed))

    def test_survivor_package_is_byte_identical_to_oracle(self,
                                                          tmp_path):
        # satellite invariant spelled out: the chaos survivor's
        # checkpointed directory IS the fault-free replica of record
        seed = 28  # a seed whose campaign crashes at least once
        report = run_campaign(seed, tmp_path)
        assert report.crashes >= 1
        survivor = tree_bytes(tmp_path / f"survivor-{seed}")
        oracle = tree_bytes(tmp_path / f"oracle-{seed}")
        assert survivor == oracle

    def test_campaigns_are_reproducible(self, tmp_path):
        first = run_campaign(4, tmp_path / "a")
        second = run_campaign(4, tmp_path / "b")
        assert first.final_rows == second.final_rows
        assert first.crashes == second.crashes
        assert first.retries == second.retries
