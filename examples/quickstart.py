"""Quickstart: audit a DB application, package it, re-execute it.

Builds a tiny world — a database server, an input file, and an
application that reads the file, queries and updates the database, and
writes a report — then:

1. audits the run with ``ldv_audit`` (server-included),
2. re-executes the package with ``ldv_exec`` on a fresh virtual OS,
3. checks the replayed output equals the original byte-for-byte.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import Database, DBServer, VirtualOS, ldv_audit, ldv_exec


def app(ctx):
    """The application Alice wants to share."""
    threshold = float(ctx.read_text("/data/threshold.txt"))
    client = ctx.connect_db("main")
    client.execute("INSERT INTO sales VALUES (100, 42.0, 'quickstart')")
    (total,) = client.execute(
        f"SELECT sum(price) FROM sales WHERE price > {threshold}"
    ).rows[0]
    client.execute("UPDATE sales SET region = 'seen' WHERE price > 12")
    client.close()
    ctx.write_file("/data/report.txt", f"total above threshold: {total}\n")
    return 0


def build_world():
    vos = VirtualOS()
    database = Database(clock=vos.clock)
    database.execute(
        "CREATE TABLE sales (id integer PRIMARY KEY, price float, "
        "region text)")
    database.execute(
        "INSERT INTO sales VALUES (1, 5, 'east'), (2, 11, 'west'), "
        "(3, 14, 'west'), (4, 2, 'north')")
    vos.register_db_server("main", DBServer(database).transport())
    vos.fs.write_file("/data/threshold.txt", "10\n", create_parents=True)
    vos.fs.write_file("/usr/lib/dbms/postgres",
                      b"\x7fELF postgres" + b"\0" * 65536,
                      create_parents=True)
    vos.register_program("/bin/app", app)
    return vos, database


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="ldv-quickstart-") as workdir:
        run(Path(workdir))


def run(workdir: Path) -> None:
    vos, database = build_world()

    print("== audit (server-included) ==")
    report = ldv_audit(
        vos, "/bin/app", workdir / "package",
        mode="server-included", database=database, server_name="main",
        server_binary_paths=["/usr/lib/dbms/postgres"])
    original = vos.fs.read_text("/data/report.txt")
    print(f"application exit code : {report.process.exit_code}")
    print(f"original output       : {original.strip()}")
    print(f"package               : {report.package_path}")
    print(f"package size          : {report.package_bytes} bytes")
    print(f"relevant tuples shipped: {report.packaging.tuple_count} "
          f"(of {database.query('SELECT count(*) FROM sales')[0][0]} "
          "in the DB — app-created rows are excluded)")

    print("\n== re-execute on a fresh machine ==")
    result = ldv_exec(workdir / "package", {"/bin/app": app})
    replayed = result.outputs["/data/report.txt"].decode()
    print(f"replayed output       : {replayed.strip()}")
    print(f"restored tuples       : {result.restored_tuples}")
    assert replayed == original, "replay must reproduce the original!"
    print("\nreplay reproduced the original output exactly.")


if __name__ == "__main__":
    main()
