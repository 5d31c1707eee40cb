"""Sharing a TPC-H experiment: LDV vs PTU vs a virtual machine.

Runs the paper's Section IX-A application (Insert / Select / Update
over TPC-H) and builds all three package kinds, then compares package
sizes and re-execution behaviour — a miniature of Figures 7b/9 and
Table III.

Run:  python examples/tpch_sharing.py
"""

import tempfile
import time
from pathlib import Path

from repro.baselines import VMIModel, build_ptu_package
from repro.core import ldv_audit, ldv_exec
from repro.core.package import Package
from repro.workloads.app import APP_BINARY, build_world
from repro.workloads.tpch.dbgen import TPCHConfig
from repro.workloads.tpch.queries import variant_by_id


def megabytes(count: int) -> str:
    return f"{count / 1_000_000:.2f} MB"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="ldv-tpch-") as workdir:
        run(Path(workdir))


def run(workdir: Path) -> None:
    config = TPCHConfig(scale_factor=0.001)
    variant = variant_by_id(config, "Q1-1")
    print(f"workload: {variant.query_id}  {variant.sql[:70]}...")

    packages = {}
    for kind in ("ptu", "included", "excluded"):
        world = build_world(scale_factor=0.001, variant=variant,
                            insert_count=100, update_count=20,
                            data_dir=workdir / f"pgdata-{kind}")
        out = workdir / f"pkg-{kind}"
        if kind == "ptu":
            build_ptu_package(world.vos, APP_BINARY, out, world.database,
                              world.server_name,
                              world.server_binary_paths, ["10"])
        else:
            mode = ("server-included" if kind == "included"
                    else "server-excluded")
            ldv_audit(world.vos, APP_BINARY, out, mode=mode, argv=["10"],
                      database=world.database,
                      server_name=world.server_name,
                      server_binary_paths=world.server_binary_paths)
        packages[kind] = (out, world)

    print("\n== package sizes (Fig 9) ==")
    sizes = {}
    for kind, (out, _world) in packages.items():
        package = Package.load(out)
        sizes[kind] = package.total_bytes()
        breakdown = ", ".join(
            f"{component}={megabytes(count)}"
            for component, count in sorted(package.breakdown().items()))
        print(f"{kind:>9}: {megabytes(sizes[kind]):>10}   ({breakdown})")
    vmi = VMIModel()
    world = packages["included"][1]
    image = vmi.image_bytes(
        server_bytes=sum(world.vos.fs.size_of(path)
                         for path in world.server_binary_paths),
        data_bytes=world.database.catalog.data_directory.total_bytes())
    print(f"{'vmi':>9}: {megabytes(image):>10}   (base OS image + server "
          f"+ data; {image / sizes['included']:.0f}x server-included)")

    print("\n== package contents (Table III) ==")
    for kind, (out, _world) in packages.items():
        summary = Package.load(out).contents_summary()
        data = ("full" if summary["full_data_files"]
                else "empty" if summary["empty_data_dir"] else "none")
        print(f"{kind:>9}: server={summary['db_server']!s:5} "
              f"data={data:5} provenance={summary['db_provenance']}")

    print("\n== re-execution (Fig 7b flavour) ==")
    for kind, (out, world) in packages.items():
        start = time.perf_counter()
        result = ldv_exec(out, world.registry)
        elapsed = time.perf_counter() - start
        original = world.vos.fs.read_file("/data/results.txt")
        match = result.outputs["/data/results.txt"] == original
        print(f"{kind:>9}: {elapsed:6.3f}s  restored={result.restored_tuples:6d} "
              f"tuples  replayed={result.replayed_statements:4d} stmts  "
              f"output match={match}")
        assert match


if __name__ == "__main__":
    main()
