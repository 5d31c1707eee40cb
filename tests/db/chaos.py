"""Randomized fault-campaign harness for the serving stack.

A *campaign* drives a seeded multi-client workload — autocommit DML,
runs of consecutive autocommit statements, multi-statement
transactions, range reads — against a
:class:`repro.db.server.DBServer`, one statement per frame, while a
seeded schedule of
faults fires underneath it: transient wire drops on both the request
and the response half of an exchange (:class:`tests.faults.FlakyTransport`),
transient disk failures and full process crashes in the durability
layer (:class:`tests.faults.FaultyIO` / :class:`tests.faults.SimulatedCrash`).
Clients retry through their :class:`repro.db.client.RetryPolicy`; the
driver retries whole steps after crashes, rebuilding the server from
the surviving directory exactly as an operator would. Each explicit
transaction runs within one step, and a step is re-driven until it
completes before the next client's step starts, so two clients'
transactions never overlap and the engine's one-writer rule refuses
no campaign statement.

After the campaign the harness checks four invariants, failing with
the campaign seed in the message so any run is replayable:

I1  **No committed write lost** — a fresh engine opened over the
    surviving directory contains every write the workload performed.
I2  **No retry double-applied** — final values match a pure-Python
    application of each step *exactly once* (updates are cumulative,
    so a double-apply shows up as a wrong value, a lost write as a
    missing one).
I3  **Nothing leaked** — once every client has disconnected, no
    connection and no open transaction survives on the server.
I4  **Replica of record** — a fault-free *oracle* run of the same
    seeded workload (same statements, same idempotency tokens)
    produces a byte-identical checkpointed data directory. This is the
    strongest exactly-once statement possible: the survivor's disk is
    indistinguishable from one that never saw a fault.

Determinism is load-bearing. Every retried statement carries the same
pinned idempotency token as its first attempt, ledger hits consume no
logical-clock tick, crashes roll the clock back to the last durable
batch, and the driver re-runs steps to completion in a fixed
round-robin order — so the survivor consumes exactly the tick and
rowid sequence of the oracle, which is what makes I4 byte-exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from repro.db.client import DBClient, RetryPolicy
from repro.db.engine import Database
from repro.db.server import DBServer
from repro.errors import DatabaseError, TransactionError, TransientError
from tests.faults import (
    FaultInjector,
    FaultyIO,
    FlakyTransport,
    SimulatedCrash,
)

# fault points a campaign may crash at (durability-layer writes); the
# recovery path is exercised from every one of them
CRASH_POINTS = ("wal.append", "wal.fsync",
                "checkpoint.table", "checkpoint.meta")
# fault points that fail transiently then heal (flaky-disk model)
FLAKY_POINTS = ("wal.fsync", "checkpoint.table")
WIRE_POINTS = ("wire.send", "wire.recv")

# a step is re-driven until it completes; fault schedules are finite,
# so only a real exactly-once bug keeps one failing this long
MAX_STEP_ATTEMPTS = 60
MAX_TEARDOWN_ATTEMPTS = 10


class CampaignFailure(AssertionError):
    """A chaos-campaign invariant violation; the message names the
    seed so the exact campaign replays with ``run_campaign(seed)``."""


@dataclass
class CampaignSpec:
    """One campaign's shape; everything downstream derives from ``seed``."""

    seed: int
    clients: int = 3
    rounds: int = 8
    checkpoint_every: int = 3
    max_crashes: int = 2
    faults: bool = True      # False = the fault-free oracle run


@dataclass
class CampaignReport:
    """What a completed campaign survived."""

    seed: int
    steps: int = 0
    crashes: int = 0
    retries: int = 0
    ledger_hits: int = 0
    ledger_stores: int = 0
    generations: int = 1
    final_rows: dict[int, int] = field(default_factory=dict)


# -- seeded workload ---------------------------------------------------------------


def _pick_dml(rng: random.Random, pool: list[int],
              live: list[int]) -> tuple[str, tuple]:
    """One mutating statement over this client's own key range.

    Clients own disjoint key ranges, so the round-robin schedule is
    conflict-free and the final state is order-independent — which is
    what lets a pure-Python replay of the step list serve as the
    exactly-once expectation.
    """
    kinds = ["insert"]
    if live:
        kinds += ["update", "update", "delete"]
    kind = rng.choice(kinds)
    if kind == "insert":
        key = pool.pop(0)
        value = rng.randint(0, 999)
        live.append(key)
        return (f"INSERT INTO kv VALUES ({key}, {value})",
                ("insert", key, value))
    if kind == "update":
        key = rng.choice(live)
        delta = rng.randint(1, 99)
        return (f"UPDATE kv SET v = v + {delta} WHERE k = {key}",
                ("update", key, delta))
    key = live.pop(rng.randrange(len(live)))
    return f"DELETE FROM kv WHERE k = {key}", ("delete", key, 0)


def _make_step(rng: random.Random, client_index: int, step_index: int,
               pool: list[int], live: list[int]) -> dict[str, Any]:
    token = f"c{client_index}.s{step_index}"
    # the seven-way draw is fixed: changing it would change every
    # seed's workload and effects. A "pipeline" draw is a run of 2-4
    # consecutive autocommit statements, a "stream" draw a plain select
    kind = rng.choice(["dml", "dml", "dml", "txn", "pipeline",
                       "select", "stream"])
    if kind in ("select", "stream"):
        bound = client_index * 1000 + rng.randint(1, 500)
        return {"kind": "select",
                "sql": f"SELECT k, v FROM kv WHERE k < {bound}",
                "effects": []}
    if kind == "dml":
        count = 1
    elif kind == "txn":
        count = rng.randint(1, 3)
    else:
        count = rng.randint(2, 4)
    picked = [_pick_dml(rng, pool, live) for _ in range(count)]
    body = [(sql, f"{token}.{position}")
            for position, (sql, _) in enumerate(picked)]
    effects = [effect for _, effect in picked]
    if kind == "txn":
        return {"kind": "txn", "begin_token": f"{token}.begin",
                "body": body, "commit_token": f"{token}.commit",
                "effects": effects}
    return {"kind": "dml", "body": body, "effects": effects}


def generate_workload(spec: CampaignSpec) -> list[list[dict[str, Any]]]:
    """Per-client step lists, fully determined by the spec's seed.

    The oracle run regenerates the identical workload — including the
    idempotency tokens pinned on every mutating statement — from the
    same seed.
    """
    rng = random.Random(spec.seed)
    workload = []
    for client_index in range(spec.clients):
        pool = list(range(client_index * 1000, client_index * 1000 + 500))
        live: list[int] = []
        workload.append([
            _make_step(rng, client_index, step_index, pool, live)
            for step_index in range(spec.rounds)])
    return workload


def expected_state(spec: CampaignSpec) -> dict[int, int]:
    """Final key→value map from applying every step exactly once."""
    state: dict[int, int] = {}
    for steps in generate_workload(spec):
        for step in steps:
            for operation, key, operand in step["effects"]:
                if operation == "insert":
                    state[key] = operand
                elif operation == "update":
                    state[key] += operand
                else:
                    state.pop(key)
    return state


# -- the campaign driver -----------------------------------------------------------


class ChaosHarness:
    """Drives one seeded campaign against one data directory."""

    def __init__(self, data_dir: str | Path, spec: CampaignSpec) -> None:
        self.spec = spec
        self.data_dir = Path(data_dir)
        self.workload = generate_workload(spec)
        self.report = CampaignReport(seed=spec.seed)
        # fault stream, separate from the workload stream: consumed
        # lazily but in a deterministic order (generations are created
        # in seed-determined sequence)
        self._fault_rng = random.Random(spec.seed * 7919 + 1)
        self._crash_plan = self._plan_crashes() if spec.faults else []
        self.generation = 0
        self.server: Optional[DBServer] = None
        self.clients: list[DBClient] = []

    # -- construction ------------------------------------------------------------

    def _plan_crashes(self) -> list[tuple[str, int]]:
        return [(self._fault_rng.choice(CRASH_POINTS),
                 self._fault_rng.randint(1, 12))
                for _ in range(self._fault_rng.randint(0, self.spec.max_crashes))]

    def _wire_injector(self) -> FaultInjector:
        injector = FaultInjector(seed=self._fault_rng.randrange(1 << 30))
        for _ in range(self._fault_rng.randint(0, 3)):
            # occurrence 1 on each point is the connect exchange;
            # dropping it would orphan a half-open connection the
            # retry then duplicates, so faults start at occurrence 2
            injector.fail_at(self._fault_rng.choice(WIRE_POINTS),
                             occurrence=self._fault_rng.randint(2, 15),
                             times=self._fault_rng.randint(1, 2))
        return injector

    def setup(self) -> None:
        """Phase 1 (fault-free): create the schema, checkpoint, close."""
        database = Database(data_directory=self.data_dir)
        database.execute(
            "CREATE TABLE kv (k integer PRIMARY KEY, v integer)")
        database.close()
        self._build_generation()

    def _build_generation(self) -> None:
        """(Re)build server and clients over the surviving directory."""
        injector = FaultInjector(seed=self.spec.seed + self.generation)
        io = None
        if self.spec.faults:
            if self.generation < len(self._crash_plan):
                point, occurrence = self._crash_plan[self.generation]
                injector.crash_at(point, occurrence)
            for _ in range(self._fault_rng.randint(0, 2)):
                injector.fail_at(
                    self._fault_rng.choice(FLAKY_POINTS),
                    occurrence=self._fault_rng.randint(1, 10))
            io = FaultyIO(injector)
        self.injector = injector
        self.server = DBServer(Database(data_directory=self.data_dir, io=io))
        self.clients = []
        for client_index in range(self.spec.clients):
            transport = self.server.transport()
            if self.spec.faults:
                transport = FlakyTransport(transport, self._wire_injector())
            # faults fire by occurrence count, not by time, so backoff
            # need not wait
            policy = RetryPolicy(
                max_attempts=10, base_delay=0.01, max_delay=0.2,
                sleep=lambda _seconds: None)
            client = DBClient(transport, client_name=f"chaos{client_index}",
                              process_id=str(client_index),
                              retry_policy=policy)
            client.connect()
            self.clients.append(client)

    # -- driving -----------------------------------------------------------------

    def run(self) -> CampaignReport:
        self.setup()
        for round_index in range(self.spec.rounds):
            for client_index in range(self.spec.clients):
                self._drive_step(
                    client_index,
                    self.workload[client_index][round_index])
            if (round_index + 1) % self.spec.checkpoint_every == 0:
                self._maintenance_checkpoint()
        self._teardown()
        self._check_invariants()
        return self.report

    def _drive_step(self, client_index: int, step: dict[str, Any]) -> None:
        """Run one step to completion, surviving crashes and exhausted
        client retry budgets; every re-attempt reuses the step's pinned
        tokens, so completion is exactly-once by construction."""
        self.report.steps += 1
        for attempt in range(MAX_STEP_ATTEMPTS):
            try:
                self._run_step(client_index, step, attempt)
                return
            except SimulatedCrash:
                self._recover()
            except TransientError:
                # the client's retry budget ran out: re-drive the whole
                # step
                pass
        raise CampaignFailure(
            f"seed {self.spec.seed}: step {step!r} did not complete "
            f"after {MAX_STEP_ATTEMPTS} attempts")

    def _run_step(self, client_index: int, step: dict[str, Any],
                  attempt: int) -> None:
        client = self.clients[client_index]
        kind = step["kind"]
        if kind == "dml":
            # each statement is its own autocommit; on a re-drive the
            # ones that already applied are answered by the ledger
            for sql, token in step["body"]:
                client.execute(sql, token=token)
        elif kind == "select":
            client.execute(step["sql"])
        else:
            self._run_txn(client, step, first=attempt == 0)

    def _run_txn(self, client: DBClient, step: dict[str, Any],
                 first: bool) -> None:
        if not first and not client.in_transaction:
            # COMMIT probe: if the lost attempt actually committed, the
            # durable ledger answers this token and nothing re-executes
            # (and no clock tick is consumed — tick parity with the
            # oracle is what keeps I4 byte-exact)
            try:
                client.execute("COMMIT", token=step["commit_token"])
                return
            except TransactionError:
                pass  # it never committed: re-run the whole transaction
        client.execute("BEGIN", token=step["begin_token"])
        for sql, token in step["body"]:
            client.execute(sql, token=token)
        client.execute("COMMIT", token=step["commit_token"])

    def _maintenance_checkpoint(self) -> None:
        try:
            self.server.database.checkpoint()
        except SimulatedCrash:
            self._recover()
        except (TransientError, TransactionError):
            # a transiently-failed checkpoint is harmless, and an open
            # transaction blocks checkpointing: either way the WAL still
            # holds everything, and the post-teardown checkpoint (all
            # connections closed) catches up
            pass

    def _recover(self) -> None:
        """What an operator does after a crash: restart the server on
        the same directory (WAL recovery) and reconnect the clients."""
        self.report.crashes += 1
        self.generation += 1
        self.report.generations += 1
        self._collect_counters()
        self._build_generation()

    def _collect_counters(self) -> None:
        for client in self.clients:
            self.report.retries += client.retries_performed
        if self.server is not None:
            database = self.server.database
            self.report.ledger_hits += database.dedupe_ledger.hits
            self.report.ledger_stores += database.dedupe_ledger.stores

    def _teardown(self) -> None:
        """Disconnect every client and leave a checkpointed directory."""
        for _ in range(MAX_TEARDOWN_ATTEMPTS):
            try:
                for client in self.clients:
                    if client.connected:
                        try:
                            client.close()
                        except DatabaseError:
                            # a retried close whose first ack was lost:
                            # the server already forgot the connection
                            client.connection_id = None
                self.server.database.checkpoint()
                self._collect_counters()
                return
            except SimulatedCrash:
                self._recover()
            except TransientError:
                pass
        raise CampaignFailure(
            f"seed {self.spec.seed}: teardown did not complete")

    # -- invariants ---------------------------------------------------------------

    def _check_invariants(self) -> None:
        seed = self.spec.seed
        server, database = self.server, self.server.database
        # I3: nothing leaked once every connection is gone
        if server.open_connections:
            raise CampaignFailure(
                f"seed {seed}: leaked {server.open_connections} "
                f"connection(s) after teardown")
        if database.writer is not None:
            raise CampaignFailure(
                f"seed {seed}: session {database.writer.name!r} still "
                f"holds an open transaction after teardown")
        # I1 + I2: reopen fresh and compare against the exactly-once
        # expectation (missing key = lost write; wrong value = a retry
        # was double-applied or dropped)
        expected = expected_state(self.spec)
        fresh = Database(data_directory=self.data_dir)
        actual = dict(fresh.query("SELECT k, v FROM kv"))
        self.report.final_rows = actual
        if actual != expected:
            missing = sorted(set(expected) - set(actual))
            extra = sorted(set(actual) - set(expected))
            wrong = sorted(key for key in set(actual) & set(expected)
                           if actual[key] != expected[key])
            raise CampaignFailure(
                f"seed {seed}: survivor diverged from exactly-once "
                f"expectation — lost keys {missing}, phantom keys "
                f"{extra}, double-applied/corrupted keys {wrong}")


# -- campaign entry points ---------------------------------------------------------


def tree_bytes(root: str | Path) -> dict[str, bytes]:
    """Relative path → bytes for every file under ``root``."""
    root = Path(root)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_campaign(seed: int, base_dir: str | Path,
                 clients: int = 3, rounds: int = 8,
                 oracle: bool = True) -> CampaignReport:
    """Run one seeded campaign (plus its fault-free oracle twin) and
    check all four invariants; returns the survivor's report."""
    base_dir = Path(base_dir)
    spec = CampaignSpec(seed=seed, clients=clients, rounds=rounds)
    harness = ChaosHarness(base_dir / f"survivor-{seed}", spec)
    report = harness.run()
    if oracle:
        oracle_spec = replace(spec, faults=False)
        oracle_harness = ChaosHarness(base_dir / f"oracle-{seed}",
                                      oracle_spec)
        oracle_report = oracle_harness.run()
        # I4: the survivor's checkpointed directory must be
        # byte-identical to the fault-free oracle's
        survivor_tree = tree_bytes(base_dir / f"survivor-{seed}")
        oracle_tree = tree_bytes(base_dir / f"oracle-{seed}")
        if set(survivor_tree) != set(oracle_tree):
            raise CampaignFailure(
                f"seed {seed}: survivor file set "
                f"{sorted(survivor_tree)} != oracle "
                f"{sorted(oracle_tree)}")
        different = [name for name in sorted(survivor_tree)
                     if survivor_tree[name] != oracle_tree[name]]
        if different:
            raise CampaignFailure(
                f"seed {seed}: survivor directory is not byte-identical "
                f"to the fault-free oracle; differing files: {different}")
        if report.final_rows != oracle_report.final_rows:
            raise CampaignFailure(
                f"seed {seed}: survivor rows diverge from oracle rows")
    return report
