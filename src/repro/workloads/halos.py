"""Alice's halo finder (the running example of Sections I–II, Fig 1).

Two processes over a shared sky-survey database:

* **P1, the halo finder** — reads a simulation snapshot file
  (particle positions), clusters nearby particles into candidate
  halos, and INSERTs them into the ``candidates`` table,
* **P2, the matcher** — runs a join of ``candidates`` against the
  pre-existing ``observations`` table (the Sloan stand-in) and writes
  the confirmed halos to a result file.

The observations table plays SkyServer's role: only the small subset
actually joined against should end up in a server-included package,
and the candidate tuples (created by the application) must be
excluded — exactly the t2/t3 discussion of Section II.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.db.engine import Database
from repro.db.server import DBServer
from repro.vos.kernel import VirtualOS

SERVER_NAME = "sky"
HALO_FINDER_BINARY = "/opt/halo/bin/halo-finder"
MATCHER_BINARY = "/opt/halo/bin/matcher"
PIPELINE_BINARY = "/opt/halo/bin/pipeline"
SIMULATION_FILE = "/data/simulation.csv"
RESULT_FILE = "/results/halos.txt"

_CELL = 10.0  # clustering grid size, matching the observation grid


def halo_finder(ctx) -> int:
    """P1: cluster simulation particles into candidate halos."""
    lines = ctx.read_text(SIMULATION_FILE).splitlines()
    cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for line in lines[1:]:  # header row
        x_text, y_text = line.split(",")
        x, y = float(x_text), float(y_text)
        cells.setdefault((int(x // _CELL), int(y // _CELL)), []).append(
            (x, y))
    client = ctx.connect_db(SERVER_NAME)
    halo_id = 0
    for (cell_x, cell_y), particles in sorted(cells.items()):
        if len(particles) < 3:
            continue  # not dense enough to be a halo
        halo_id += 1
        client.execute(
            "INSERT INTO candidates VALUES "
            f"({halo_id}, {cell_x}, {cell_y}, {len(particles)})")
    client.close()
    return 0


def matcher(ctx) -> int:
    """P2: confirm candidates against the observation catalogue."""
    client = ctx.connect_db(SERVER_NAME)
    rows = client.query(
        "SELECT c.halo_id, c.cell_x, c.cell_y, o.obs_id, o.brightness "
        "FROM candidates c, observations o "
        "WHERE c.cell_x = o.cell_x AND c.cell_y = o.cell_y "
        "AND o.brightness > 0.5 ORDER BY c.halo_id, o.obs_id")
    client.close()
    report = ["halo_id,cell_x,cell_y,obs_id,brightness"]
    for halo_id, cell_x, cell_y, obs_id, brightness in rows:
        report.append(f"{halo_id},{cell_x},{cell_y},{obs_id},{brightness}")
    ctx.write_file(RESULT_FILE, "\n".join(report) + "\n")
    return 0


def pipeline(ctx) -> int:
    """Fig 1's structure: run P1, then P2."""
    for binary in (HALO_FINDER_BINARY, MATCHER_BINARY):
        child = ctx.spawn(binary)
        if child.exit_code != 0:
            return child.exit_code
    return 0


PROGRAMS: dict[str, Callable] = {
    HALO_FINDER_BINARY: halo_finder,
    MATCHER_BINARY: matcher,
    PIPELINE_BINARY: pipeline,
}


@dataclass
class HaloWorld:
    vos: VirtualOS
    database: Database
    registry: dict[str, Callable] = field(default_factory=dict)
    server_name: str = SERVER_NAME
    server_binary_paths: list[str] = field(default_factory=list)
    n_observations: int = 0


def build_world(n_particles: int = 400, n_observations: int = 500,
                seed: int = 7, data_dir=None) -> HaloWorld:
    """Provision the halo-finder scenario."""
    vos = VirtualOS()
    database = Database(data_directory=data_dir, clock=vos.clock)
    database.execute(
        "CREATE TABLE observations (obs_id integer PRIMARY KEY, "
        "cell_x integer, cell_y integer, brightness double precision)")
    database.execute(
        "CREATE TABLE candidates (halo_id integer PRIMARY KEY, "
        "cell_x integer, cell_y integer, particles integer)")
    rng = random.Random(seed)
    tick = database.clock.tick()
    database.catalog.get_table("observations").insert_many(
        [(obs_id, rng.randint(0, 19), rng.randint(0, 19),
          round(rng.random(), 3))
         for obs_id in range(1, n_observations + 1)], tick)
    database.catalog.mark_dirty("observations")
    if data_dir is not None:
        database.checkpoint()
    vos.register_db_server(SERVER_NAME, DBServer(database).transport())

    lines = ["x,y"]
    for _ in range(n_particles):
        # clump particles around a few attractors so halos form
        cx = rng.choice([25.0, 85.0, 145.0])
        cy = rng.choice([35.0, 95.0])
        lines.append(f"{cx + rng.gauss(0, 3):.2f},"
                     f"{cy + rng.gauss(0, 3):.2f}")
    vos.fs.write_file(SIMULATION_FILE, "\n".join(lines) + "\n",
                      create_parents=True)
    vos.fs.write_file("/usr/lib/dbms/postgres",
                      b"\x7fELF postgres" + b"\0" * (2 << 20),
                      create_parents=True)
    for binary, fn in PROGRAMS.items():
        vos.register_program(binary, fn, size=32 << 10)
    return HaloWorld(
        vos=vos, database=database, registry=dict(PROGRAMS),
        server_binary_paths=["/usr/lib/dbms/postgres"],
        n_observations=n_observations)
