"""Chaos-hardened serving: exactly-once retries and the seeded
randomized fault-campaign harness.

Campaign tests are marked ``chaos``; every campaign failure message
(and the parametrized test id) carries the seed, so a red CI run is
reproducible with ``run_campaign(seed, ...)`` locally.
"""

import pytest

from repro.db import Database, DBClient, DBServer, RetryPolicy
from repro.db import protocol
from repro.db.chaos import (
    CampaignSpec,
    expected_state,
    generate_workload,
    run_campaign,
    tree_bytes,
)
from repro.errors import TransientError


def make_server():
    database = Database()
    database.execute("CREATE TABLE t (x integer, y integer)")
    return DBServer(database)


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
        # wire faults and crashes keep the client retry path exercised
        assert report.retries >= 1
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
