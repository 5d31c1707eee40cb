"""Program-side API tests: FileHandle modes, traced transports,
context helpers."""

import pytest

from repro.db import Database, DBServer
from repro.errors import BadFileDescriptorError, VosError
from repro.vos import VirtualOS
from repro.vos.programs import program
from repro.vos.syscalls import SyscallName
from tests.vos.recording_tracer import RecordingTracer


@pytest.fixture
def vos():
    return VirtualOS()


def run(vos, fn):
    vos.register_program("/bin/app", fn)
    return vos.run("/bin/app")


class TestFileHandleModes:
    def test_w_truncates(self, vos):
        vos.fs.write_file("/f", b"old content")
        def app(ctx):
            with ctx.open("/f", "w") as handle:
                handle.write("new")
        run(vos, app)
        assert vos.fs.read_text("/f") == "new"

    def test_a_appends(self, vos):
        vos.fs.write_file("/f", b"start-")
        def app(ctx):
            with ctx.open("/f", "a") as handle:
                handle.write("end")
        run(vos, app)
        assert vos.fs.read_text("/f") == "start-end"

    def test_a_creates_missing(self, vos):
        def app(ctx):
            with ctx.open("/log", "ab") as handle:
                handle.write(b"x")
        run(vos, app)
        assert vos.fs.read_file("/log") == b"x"

    def test_multiple_writes_accumulate(self, vos):
        def app(ctx):
            with ctx.open("/f", "w") as handle:
                handle.write("a")
                handle.write("b")
                handle.write("c")
        run(vos, app)
        assert vos.fs.read_text("/f") == "abc"

    def test_write_to_read_handle_raises(self, vos):
        vos.fs.write_file("/f", b"x")
        def app(ctx):
            with ctx.open("/f", "r") as handle:
                with pytest.raises(BadFileDescriptorError):
                    handle.write(b"y")
        run(vos, app)

    def test_unsupported_mode_raises(self, vos):
        def app(ctx):
            with pytest.raises(VosError):
                ctx.open("/f", "r+")
        run(vos, app)

    def test_read_text_helper(self, vos):
        vos.fs.write_file("/f", "héllo".encode())
        captured = []
        run(vos, lambda ctx: captured.append(ctx.read_text("/f")))
        assert captured == ["héllo"]

    def test_write_returns_byte_count(self, vos):
        counts = []
        def app(ctx):
            with ctx.open("/f", "w") as handle:
                counts.append(handle.write("héllo"))
        run(vos, app)
        assert counts == [len("héllo".encode())]

    def test_double_close_is_noop(self, vos):
        vos.fs.write_file("/f", b"x")
        tracer = RecordingTracer(only={SyscallName.CLOSE})
        vos.attach_tracer(tracer)
        def app(ctx):
            handle = ctx.open("/f")
            handle.close()
            handle.close()
        run(vos, app)
        assert len(tracer.events) == 1


class TestTracedDBTransport:
    def test_send_recv_sizes_reported(self, vos):
        database = Database(clock=vos.clock)
        database.execute("CREATE TABLE t (x integer)")
        vos.register_db_server("main", DBServer(database).transport())
        tracer = RecordingTracer(only={SyscallName.SEND,
                                       SyscallName.RECV})
        vos.attach_tracer(tracer)
        def app(ctx):
            client = ctx.connect_db("main")
            client.query("SELECT 1")
            client.close()
        run(vos, app)
        sends = [e for e in tracer.events if e.name is SyscallName.SEND]
        recvs = [e for e in tracer.events if e.name is SyscallName.RECV]
        # connect + query + close = 3 round trips
        assert len(sends) == len(recvs) == 3
        assert all(event.result > 0 for event in sends + recvs)
        assert all(event.arg("server") == "main"
                   for event in sends + recvs)

    def test_program_decorator_marks_function(self):
        @program
        def main(ctx):
            return 0
        assert main.__vos_program__ is True


class TestContextHelpers:
    def test_pid_property(self, vos):
        pids = []
        process = run(vos, lambda ctx: pids.append(ctx.pid))
        assert pids == [process.pid]

    def test_mkdir_parents(self, vos):
        run(vos, lambda ctx: ctx.mkdir("/a", parents=True))
        assert vos.fs.is_dir("/a")

    def test_append_file_helper_emits_syscalls(self, vos):
        tracer = RecordingTracer(only={SyscallName.OPEN,
                                       SyscallName.WRITE,
                                       SyscallName.CLOSE})
        vos.attach_tracer(tracer)
        run(vos, lambda ctx: ctx.append_file("/log", "entry\n"))
        names = [event.name for event in tracer.events]
        assert names == [SyscallName.OPEN, SyscallName.WRITE,
                         SyscallName.CLOSE]
