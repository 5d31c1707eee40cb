"""Explicit transactions in virtual-OS runs.

An audited run with an explicit transaction replays byte-identically:
P1 opens a transaction, updates three observations, rolls it back, and
then commits a single-row update in autocommit. P2 runs after P1 and
writes observations 1-5 to a file. Both package flavours must replay
that file exactly. Only the replay is asserted here: what the trace
records for the rolled-back statement is a separate question.

A spawned child runs to completion before its parent continues, so a
child that writes while its parent holds an open transaction is
refused by the one-writer rule, and the parent gets the error.
"""

import pytest

from repro.core import ldv_audit, ldv_exec
from repro.errors import TransientError
from repro.workloads import halos

WRITER_BINARY = "/opt/txn/bin/writer"
READER_BINARY = "/opt/txn/bin/reader"
RUN_BINARY = "/opt/txn/bin/run"
OUTPUT_FILE = "/results/observations.txt"


def writer(ctx) -> int:
    client = ctx.connect_db(halos.SERVER_NAME)
    client.execute("BEGIN")
    client.execute(
        "UPDATE observations SET brightness = 0.0 WHERE obs_id <= 3")
    client.execute("ROLLBACK")
    client.execute(
        "UPDATE observations SET brightness = 1.0 WHERE obs_id = 4")
    client.close()
    return 0


def reader(ctx) -> int:
    client = ctx.connect_db(halos.SERVER_NAME)
    rows = client.query(
        "SELECT obs_id, brightness FROM observations "
        "WHERE obs_id <= 5 ORDER BY obs_id")
    client.close()
    ctx.write_file(OUTPUT_FILE,
                   "".join(f"{obs_id},{value}\n" for obs_id, value in rows))
    return 0


def run(ctx) -> int:
    for binary in (WRITER_BINARY, READER_BINARY):
        child = ctx.spawn(binary)
        if child.exit_code != 0:
            return child.exit_code
    return 0


PROGRAMS = {WRITER_BINARY: writer, READER_BINARY: reader, RUN_BINARY: run}


@pytest.mark.parametrize("mode", ["server-included", "server-excluded"])
def test_rolled_back_transaction_replays_byte_identically(tmp_path, mode):
    world = halos.build_world(n_particles=30, n_observations=40)
    before = dict(world.database.query(
        "SELECT obs_id, brightness FROM observations WHERE obs_id <= 5"))
    for binary, program in PROGRAMS.items():
        world.vos.register_program(binary, program)
        world.registry[binary] = program
    ldv_audit(world.vos, RUN_BINARY, tmp_path / "pkg", mode=mode,
              database=world.database, server_name=world.server_name,
              server_binary_paths=world.server_binary_paths)
    original = world.vos.fs.read_file(OUTPUT_FILE)
    # the rollback left obs 1-3 alone; only the committed update landed
    expected = {**before, 4: 1.0}
    assert original.decode() == "".join(
        f"{obs_id},{expected[obs_id]}\n" for obs_id in sorted(expected))
    result = ldv_exec(tmp_path / "pkg", world.registry, binary=RUN_BINARY)
    assert result.outputs[OUTPUT_FILE] == original
    assert result.validated


def test_child_writing_inside_the_parents_transaction_is_refused():
    world = halos.build_world(n_particles=30, n_observations=40)
    query = "SELECT brightness FROM observations WHERE obs_id <= 4"
    before = world.database.query(query)

    def parent(ctx) -> int:
        client = ctx.connect_db(halos.SERVER_NAME)
        client.execute("BEGIN")
        client.execute(
            "UPDATE observations SET brightness = 0.5 WHERE obs_id = 1")
        try:
            ctx.spawn(WRITER_BINARY)  # blocks until the child exits
        finally:
            client.execute("ROLLBACK")
            client.close()
        return 0

    world.vos.register_program(WRITER_BINARY, writer)
    world.vos.register_program("/opt/txn/bin/parent", parent)
    with pytest.raises(TransientError, match="one session writes"):
        world.vos.run("/opt/txn/bin/parent")
    assert world.database.query(query) == before
    assert world.database.writer is None
