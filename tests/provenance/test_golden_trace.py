"""Golden digests of a server-included audit's combined trace.

A small seeded world (TPC-H SF 0.001, seed 7, 10 INSERTs, 3 UPDATEs,
the query run twice) is audited once per workload query, and four
things are pinned by sha256:

* the serialized trace, ``json.dumps(trace.to_json())`` — what
  ``trace.json.gz`` held in trace format 1,
* the edge insertion order, ``(source, target, label)`` per edge of
  ``trace.edges()`` — what ``prov_export`` and ``tracetool`` iterate,
* the relevant tuple store, ``(rowid, version, values)`` per table —
  what the restore CSVs hold,
* the bytes of ``trace.json.gz`` as ``Package.write_trace`` writes
  them (trace format 2).

A query result's lineage arrives as a frozenset whose iteration order
follows string hashing, and the hasRead edges are added in that order,
so the audit runs in a child interpreter with a fixed
``PYTHONHASHSEED``. The package must not follow hashing: the written
trace is the same under a second seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_AUDIT = """
import hashlib, json, tempfile
from repro.core.package import TRACE_NAME, Manifest, Package, PackageKind
from repro.monitor import AuditSession
from repro.provenance import COMBINED_MODEL, ExecutionTrace
from repro.workloads.app import APP_BINARY, build_world
from repro.workloads.tpch.dbgen import TPCHConfig
from repro.workloads.tpch.queries import variant_by_id

def digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

out = {}
for variant_id in ("Q3-4", "Q1-5"):
    variant = variant_by_id(TPCHConfig(scale_factor=0.001, seed=7),
                            variant_id)
    world = build_world(0.001, variant=variant, insert_count=10,
                        update_count=3, seed=7)
    with AuditSession(world.vos, "server-included",
                      database=world.database) as session:
        process = world.vos.run(APP_BINARY, ["2"])
    assert process.exit_code == 0
    trace = session.trace
    store = session.relevant_tuples
    with tempfile.TemporaryDirectory() as tmp:
        package = Package.create(tmp, Manifest(PackageKind.SERVER_INCLUDED,
                                               APP_BINARY))
        package.write_trace(trace)
        written = (package.root / TRACE_NAME).read_bytes()
        decoded = package.read_trace(COMBINED_MODEL)
    out[variant_id] = {
        "edges": trace.edge_count,
        "trace_json": digest(trace.to_json()),
        "edge_order": digest([(e.source, e.target, e.label)
                              for e in trace.edges()]),
        "relevant": digest([[table, store.rows_for(table)]
                            for table in store.tables()]),
        "trace_v2": hashlib.sha256(written).hexdigest(),
        "trace_v2_decoded": digest(decoded.to_json()),
    }
print(json.dumps(out))
"""

GOLDEN = {
    "Q3-4": {
        "edges": 10472,
        "trace_json": "1165027d266410f4a164889bccd3bccfe30d6bed6c01f60efccbbed19b0cfca2",
        "edge_order": "e47d2f090bd0e4029ed79d162c632134a0f21436b4fba526d0efc67fb3e1c236",
        "relevant": "a5f883f76334f936167f0215ad636ca56e3fcb066dcdf39685058334faeed1fe",
        "trace_v2": "de44d5fb1bc594ff0e7c8123ea8c31e20e01014d3c1e3464fb348021059bb473",
    },
    "Q1-5": {
        "edges": 9072,
        "trace_json": "271c3e77a77595961b9a293cc3882cb719ece1d617dfc1d4d07d603673df25b7",
        "edge_order": "1ab79b15b70f04555d4b4a9750050b66c959ef68ce10d9b80f8704cbf1b73d09",
        "relevant": "74a2a033939a04c5cea076338616ae7b45ce816ca717fab13294640d454ba931",
        "trace_v2": "ec0d1960843c45b2076d75008e2b74bb2607148a80d451dfff5c197a474ea1af",
    },
}


def run_audit(hash_seed):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", _AUDIT], env=env,
                               capture_output=True, text=True, check=True)
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def digests():
    return run_audit("0")


@pytest.mark.parametrize("variant_id", sorted(GOLDEN))
@pytest.mark.parametrize("key", ["edges", "trace_json", "edge_order",
                                 "relevant", "trace_v2"])
def test_server_included_trace_matches_golden(digests, variant_id, key):
    assert digests[variant_id][key] == GOLDEN[variant_id][key]


@pytest.mark.parametrize("variant_id", sorted(GOLDEN))
def test_written_trace_reads_back_as_the_audited_trace(digests,
                                                       variant_id):
    assert digests[variant_id]["trace_v2_decoded"] == \
        GOLDEN[variant_id]["trace_json"]


def test_written_trace_does_not_follow_string_hashing(digests):
    other = run_audit("1")
    for variant_id in GOLDEN:
        assert other[variant_id]["trace_v2"] == \
            digests[variant_id]["trace_v2"]
