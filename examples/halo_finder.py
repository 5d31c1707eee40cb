"""Alice's halo finder — the running example of the paper (Fig 1).

Alice runs a two-process pipeline: P1 clusters a simulation snapshot
into candidate halos and inserts them into a sky-survey database; P2
joins the candidates against the (pre-existing) observation catalogue
and writes the confirmed halos to a file. She shares the run with Bob,
who:

(i)   re-executes the whole pipeline,
(ii)  re-executes only P2 (partial re-execution),
(iii) inspects the provenance: which observation tuples does the
      result file actually depend on?

Run:  python examples/halo_finder.py
"""

import tempfile
from pathlib import Path

from repro.core import ldv_audit, ldv_exec
from repro.core.replay import ReplaySession
from repro.provenance import DependencyInference
from repro.workloads import halos


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="ldv-halos-") as workdir:
        run(Path(workdir))


def run(workdir: Path) -> None:
    world = halos.build_world(n_particles=600, n_observations=800)

    print("== Alice audits her pipeline ==")
    report = ldv_audit(
        world.vos, halos.PIPELINE_BINARY, workdir / "package",
        mode="server-included", database=world.database,
        server_name=world.server_name,
        server_binary_paths=world.server_binary_paths)
    original = world.vos.fs.read_text(halos.RESULT_FILE)
    halo_count = len(original.splitlines()) - 1
    print(f"confirmed halos            : {halo_count}")
    print(f"observation tuples in DB   : {world.n_observations}")
    print(f"tuple versions in package  : {report.packaging.tuple_count} "
          "(only the observations the join touched)")
    print(f"package size               : {report.package_bytes} bytes")

    print("\n== (iii) provenance: what does the result depend on? ==")
    inference = DependencyInference(report.session.trace)
    deps = inference.dependencies_of(f"file:{halos.RESULT_FILE}")
    observation_deps = sorted(
        d for d in deps if d.startswith("tuple:observations"))
    file_deps = sorted(d for d in deps if d.startswith("file:"))
    print(f"depends on {len(observation_deps)} observation tuple "
          f"versions, e.g. {observation_deps[:3]}")
    print(f"depends on files: {file_deps}")
    assert f"file:{halos.SIMULATION_FILE}" in deps

    print("\n== (i) Bob re-executes the whole pipeline ==")
    result = ldv_exec(workdir / "package", world.registry)
    assert result.outputs[halos.RESULT_FILE].decode() == original
    print("full replay reproduced the result file exactly "
          f"({result.restored_tuples} tuples restored first)")

    print("\n== (ii) Bob re-executes only P2 (the matcher) ==")
    session = ReplaySession(workdir / "package", world.registry)
    session.prepare()
    # P1 has not run in this world, so the candidates table is empty —
    # Bob first re-runs P1 to regenerate them, then iterates on P2
    session.run(halos.HALO_FINDER_BINARY, [])
    partial = session.run(halos.MATCHER_BINARY, [])
    assert partial.outputs[halos.RESULT_FILE].decode() == original
    print("P1 + P2 partial runs reproduced the result; Bob can now "
          "swap in his own matcher against the same restored state.")


if __name__ == "__main__":
    main()
