"""Kernel, process, syscall, and tracer tests."""

import pytest

from repro.db import Database, DBServer
from repro.errors import (
    BadFileDescriptorError,
    ProcessError,
    ProgramNotFoundError,
    VosError,
)
from repro.vos import VirtualOS
from repro.vos.process import ProcessState
from repro.vos.syscalls import SyscallName
from tests.vos.recording_tracer import RecordingTracer


@pytest.fixture
def vos():
    return VirtualOS()


@pytest.fixture
def tracer(vos):
    recorder = RecordingTracer()
    vos.attach_tracer(recorder)
    return recorder


class TestProgramRegistration:
    def test_register_writes_binary_file(self, vos):
        vos.register_program("/bin/app", lambda ctx: 0, size=2048)
        assert vos.fs.size_of("/bin/app") == 2048
        assert vos.fs.read_file("/bin/app").startswith(b"\x7fELF")

    def test_has_program(self, vos):
        vos.register_program("/bin/app", lambda ctx: 0)
        assert vos.has_program("/bin/app")
        assert not vos.has_program("/bin/ghost")

    def test_run_unregistered_raises(self, vos):
        with pytest.raises(ProgramNotFoundError):
            vos.run("/bin/ghost")

    def test_program_resolved_through_symlink(self, vos):
        vos.register_program("/opt/app-1.0/bin/app", lambda ctx: 7)
        vos.fs.mkdir("/usr/bin", parents=True)
        vos.fs.symlink("/usr/bin/app", "/opt/app-1.0/bin/app")
        assert vos.run("/usr/bin/app").exit_code == 7


class TestProcessLifecycle:
    def test_exit_code_from_return(self, vos):
        vos.register_program("/bin/ok", lambda ctx: None)
        vos.register_program("/bin/fail", lambda ctx: 3)
        assert vos.run("/bin/ok").exit_code == 0
        assert vos.run("/bin/fail").exit_code == 3

    def test_process_state_transitions(self, vos):
        states = []
        vos.register_program(
            "/bin/app", lambda ctx: states.append(ctx.process.state))
        process = vos.run("/bin/app")
        assert states == [ProcessState.RUNNING]
        assert process.state is ProcessState.EXITED

    def test_double_exit_raises(self, vos):
        vos.register_program("/bin/app", lambda ctx: 0)
        process = vos.run("/bin/app")
        with pytest.raises(ProcessError):
            process.exit(0, 99)

    def test_exception_still_emits_exit(self, vos, tracer):
        def boom(ctx):
            raise RuntimeError("boom")
        vos.register_program("/bin/boom", boom)
        with pytest.raises(RuntimeError):
            vos.run("/bin/boom")
        exits = tracer.of(SyscallName.EXIT)
        assert exits and exits[0].arg("code") == 1

    def test_spawn_emits_fork_and_execve(self, vos, tracer):
        vos.register_program("/bin/child", lambda ctx: 0)
        vos.register_program(
            "/bin/parent", lambda ctx: ctx.spawn("/bin/child").exit_code)
        vos.run("/bin/parent")
        forks = tracer.of(SyscallName.FORK)
        assert len(forks) == 1
        child_pid = forks[0].arg("child")
        execs = [e for e in tracer.of(SyscallName.EXECVE)
                 if e.pid == child_pid]
        assert execs[0].arg("path") == "/bin/child"

    def test_genealogy_recorded(self, vos):
        vos.register_program("/bin/child", lambda ctx: 0)
        vos.register_program(
            "/bin/parent", lambda ctx: ctx.spawn("/bin/child").exit_code)
        parent = vos.run("/bin/parent")
        children = vos.processes.children_of(parent.pid)
        assert len(children) == 1
        assert children[0].binary == "/bin/child"

    def test_argv_and_env_passed(self, vos):
        seen = {}
        def app(ctx):
            seen["argv"] = ctx.argv
            seen["env"] = dict(ctx.env)
        vos.register_program("/bin/app", app)
        vos.run("/bin/app", argv=["--fast"], env={"MODE": "test"})
        assert seen["argv"] == ["--fast"]
        assert seen["env"] == {"MODE": "test"}

    def test_child_inherits_env(self, vos):
        seen = {}
        vos.register_program(
            "/bin/child", lambda ctx: seen.update(ctx.env) or 0)
        vos.register_program(
            "/bin/parent",
            lambda ctx: ctx.spawn("/bin/child", env={"EXTRA": "1"}).exit_code)
        vos.run("/bin/parent", env={"BASE": "x"})
        assert seen == {"BASE": "x", "EXTRA": "1"}


class TestFileIO:
    def test_open_read_close_events(self, vos, tracer):
        vos.fs.write_file("/in.txt", b"data")
        def app(ctx):
            with ctx.open("/in.txt") as handle:
                assert handle.read() == b"data"
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")
        names = [event.name for event in tracer.events if event.pid != 0]
        assert SyscallName.OPEN in names
        assert SyscallName.READ in names
        assert SyscallName.CLOSE in names

    def test_open_before_close_ticks_increase(self, vos, tracer):
        vos.fs.write_file("/in.txt", b"data")
        vos.register_program("/bin/app",
                             lambda ctx: len(ctx.read_file("/in.txt")))
        vos.run("/bin/app")
        opens = tracer.of(SyscallName.OPEN)
        closes = tracer.of(SyscallName.CLOSE)
        assert opens[0].tick < closes[0].tick

    def test_write_file_appears_in_fs(self, vos):
        vos.register_program(
            "/bin/app", lambda ctx: ctx.write_file("/out.txt", "result"))
        vos.run("/bin/app")
        assert vos.fs.read_text("/out.txt") == "result"

    def test_append_file(self, vos):
        vos.fs.write_file("/log", b"a")
        vos.register_program("/bin/app",
                             lambda ctx: ctx.append_file("/log", "b"))
        vos.run("/bin/app")
        assert vos.fs.read_text("/log") == "ab"

    def test_read_from_write_handle_raises(self, vos):
        def app(ctx):
            with ctx.open("/x", "w") as handle:
                with pytest.raises(BadFileDescriptorError):
                    handle.read()
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")

    def test_use_after_close_raises(self, vos):
        vos.fs.write_file("/x", b"1")
        def app(ctx):
            handle = ctx.open("/x")
            handle.close()
            with pytest.raises(BadFileDescriptorError):
                handle.read()
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")

    def test_leaked_fds_closed_at_exit(self, vos, tracer):
        vos.fs.write_file("/x", b"1")
        vos.register_program("/bin/app", lambda ctx: ctx.open("/x") and 0)
        vos.run("/bin/app")
        assert len(tracer.of(SyscallName.CLOSE)) == 1

    def test_fds_start_at_three(self, vos):
        vos.fs.write_file("/x", b"1")
        fds = []
        def app(ctx):
            fds.append(ctx.open("/x").fd)
            fds.append(ctx.open("/x").fd)
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")
        assert fds == [3, 4]

    def test_unlink_and_mkdir_emit_events(self, vos, tracer):
        vos.fs.write_file("/x", b"1")
        def app(ctx):
            ctx.mkdir("/newdir")
            ctx.unlink("/x")
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")
        assert tracer.of(SyscallName.MKDIR)
        assert tracer.of(SyscallName.UNLINK)
        assert not vos.fs.exists("/x")
        assert vos.fs.is_dir("/newdir")


class TestDBIntegration:
    @pytest.fixture
    def served(self, vos):
        database = Database(clock=vos.clock)
        database.execute("CREATE TABLE t (x integer)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        vos.register_db_server("main", DBServer(database).transport())
        return database

    def test_connect_and_query(self, vos, served, tracer):
        rows = []
        def app(ctx):
            client = ctx.connect_db("main")
            rows.extend(client.query("SELECT count(*) FROM t"))
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")
        assert rows == [(2,)]
        assert tracer.of(SyscallName.CONNECT)
        assert tracer.of(SyscallName.SEND)
        assert tracer.of(SyscallName.RECV)

    def test_connect_unknown_server_raises(self, vos):
        vos.register_program("/bin/app",
                             lambda ctx: ctx.connect_db("ghost") and 0)
        with pytest.raises(VosError):
            vos.run("/bin/app")

    def test_client_decorator_applied(self, vos, served):
        decorated = []
        vos.client_decorators.append(
            lambda client, process: decorated.append(
                (client.client_name, process.pid)))
        def app(ctx):
            ctx.connect_db("main").close()
        vos.register_program("/bin/app", app)
        process = vos.run("/bin/app")
        assert decorated == [("app", process.pid)]

    def test_leaked_connections_closed_at_exit(self, vos, served):
        clients = []
        def app(ctx):
            clients.append(ctx.connect_db("main"))
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")
        assert not clients[0].connected

    def test_db_shares_logical_clock(self, vos, served):
        """Engine version stamps interleave with syscall ticks."""
        ticks = []
        def app(ctx):
            client = ctx.connect_db("main")
            before = vos.clock.now
            client.execute("INSERT INTO t VALUES (3)")
            ticks.append((before, vos.clock.now))
        vos.register_program("/bin/app", app)
        vos.run("/bin/app")
        heap = served.catalog.get_table("t")
        insert_version = max(heap.versions.values())
        before, after = ticks[0]
        assert before < insert_version < after


class TestTracers:
    def test_detach_stops_events(self, vos, tracer):
        vos.register_program("/bin/app", lambda ctx: 0)
        vos.detach_tracer(tracer)
        vos.run("/bin/app")
        assert tracer.events == []

    def test_filtered_recording(self, vos):
        recorder = RecordingTracer(only={SyscallName.EXECVE})
        vos.attach_tracer(recorder)
        vos.register_program("/bin/app", lambda ctx: 0)
        vos.run("/bin/app")
        assert {event.name for event in recorder.events} == {
            SyscallName.EXECVE}

    def test_events_have_increasing_ticks(self, vos, tracer):
        vos.fs.write_file("/x", b"1")
        vos.register_program("/bin/app",
                             lambda ctx: len(ctx.read_file("/x")))
        vos.run("/bin/app")
        ticks = [event.tick for event in tracer.events]
        assert ticks == sorted(ticks)
        assert len(set(ticks)) == len(ticks)
