"""Repeatability as a property: for randomly generated applications,
replayed outputs must equal the original outputs byte-for-byte, in
both packaging modes."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ldv_audit, ldv_exec
from repro.db import Database, DBServer
from repro.vos import VirtualOS

SERVER_BINARIES = ["/usr/lib/dbms/postgres"]


# ---------------------------------------------------------------------------
# random applications: a sequence of DB actions + file writes
# ---------------------------------------------------------------------------


@st.composite
def programs(draw):
    """A random but well-formed application: a list of actions."""
    n = draw(st.integers(min_value=1, max_value=8))
    actions = []
    next_id = 1000
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["insert", "select", "sum", "update", "delete", "write"]))
        if kind == "insert":
            actions.append(("insert", next_id,
                            draw(st.integers(-50, 50))))
            next_id += 1
        elif kind == "select":
            actions.append(("select", draw(st.integers(-20, 20))))
        elif kind == "sum":
            actions.append(("sum",))
        elif kind == "update":
            actions.append(("update", draw(st.integers(-20, 20)),
                            draw(st.integers(-5, 5))))
        elif kind == "delete":
            actions.append(("delete", draw(st.integers(30, 50))))
        else:
            actions.append(("write", draw(st.integers(0, 3))))
    return actions


def make_app(actions):
    def app(ctx):
        client = ctx.connect_db("main")
        outputs = []
        for action in actions:
            if action[0] == "insert":
                client.execute(
                    f"INSERT INTO t VALUES ({action[1]}, {action[2]})")
            elif action[0] == "select":
                rows = client.execute(
                    f"SELECT id FROM t WHERE v > {action[1]} "
                    "ORDER BY id").rows
                outputs.append(f"select:{len(rows)}")
            elif action[0] == "sum":
                (total,) = client.execute(
                    "SELECT sum(v) FROM t").rows[0]
                outputs.append(f"sum:{total}")
            elif action[0] == "update":
                result = client.execute(
                    f"UPDATE t SET v = v + {action[2]} "
                    f"WHERE v > {action[1]}")
                outputs.append(f"update:{result.rowcount}")
            elif action[0] == "delete":
                result = client.execute(
                    f"DELETE FROM t WHERE id = {action[1]}")
                outputs.append(f"delete:{result.rowcount}")
            else:
                ctx.write_file(f"/out/file{action[1]}.txt",
                               "|".join(outputs))
        ctx.write_file("/out/final.txt", "|".join(outputs))
        client.close()
        return 0
    return app


def build_world(app):
    vos = VirtualOS()
    database = Database(clock=vos.clock)
    database.execute(
        "CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    database.execute(
        "INSERT INTO t VALUES (1, 10), (2, -3), (3, 25), (4, 0), "
        "(5, 40), (6, -17)")
    vos.register_db_server("main", DBServer(database).transport())
    vos.fs.write_file(SERVER_BINARIES[0], b"\x7fELF" + b"\0" * 1024,
                      create_parents=True)
    vos.register_program("/bin/app", app)
    return vos, database


def collect_outputs(vos):
    if not vos.fs.exists("/out"):
        return {}
    return {path: vos.fs.read_file(path)
            for path in vos.fs.all_files("/out")}


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_server_excluded_round_trip(self, tmp_path_factory, actions):
        tmp_path = tmp_path_factory.mktemp("rt-excl")
        app = make_app(actions)
        vos, database = build_world(app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=database,
                  server_name="main")
        original = collect_outputs(vos)
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        for path, content in original.items():
            assert result.outputs.get(path) == content

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_server_included_round_trip(self, tmp_path_factory, actions):
        tmp_path = tmp_path_factory.mktemp("rt-incl")
        app = make_app(actions)
        vos, database = build_world(app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=database,
                  server_name="main",
                  server_binary_paths=SERVER_BINARIES)
        original = collect_outputs(vos)
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        for path, content in original.items():
            assert result.outputs.get(path) == content

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_relevance_streaming_equals_trace_based(self,
                                                    tmp_path_factory,
                                                    actions):
        """The audit-time streaming collector must agree with the
        declarative trace-based computation (Section VII-D)."""
        from repro.core import relevant_tuple_versions
        tmp_path = tmp_path_factory.mktemp("rt-rel")
        app = make_app(actions)
        vos, database = build_world(app)
        report = ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                           mode="server-included", database=database,
                           server_name="main",
                           server_binary_paths=SERVER_BINARIES)
        streamed = report.session.relevant_tuples.refs()
        declarative = relevant_tuple_versions(report.session.trace)
        assert streamed == declarative

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_replay_is_idempotent(self, tmp_path_factory, actions):
        tmp_path = tmp_path_factory.mktemp("rt-idem")
        app = make_app(actions)
        vos, database = build_world(app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=database,
                  server_name="main",
                  server_binary_paths=SERVER_BINARIES)
        first = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        second = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert first.outputs == second.outputs
        assert first.restored_tuples == second.restored_tuples
