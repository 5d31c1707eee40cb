"""The virtual OS kernel: programs, processes, syscall dispatch.

Programs are Python callables registered under a binary path in the
virtual filesystem. :meth:`VirtualOS.run` executes one as a process —
synchronously and deterministically — emitting a syscall event for
every observable action. Attached :class:`Tracer` objects see the
events exactly as a ptrace supervisor would.

The kernel also owns the *DB rendezvous*: database servers register a
wire transport under a name, and processes connect to them through
:meth:`repro.vos.programs.ProcessContext.connect_db`, which emits a
``connect`` syscall and wraps the transport so every round trip emits
``send``/``recv`` events. Client *decorators* let a monitor or
replayer attach interceptors to every new client — the LDV
instrumentation point.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.clockwork import LogicalClock
from repro.db.client import DBClient
from repro.errors import ProgramNotFoundError, VosError
from repro.vos.filesystem import VirtualFileSystem
from repro.vos.process import Process, ProcessTable
from repro.vos.ptrace import Tracer
from repro.vos.syscalls import SyscallEvent, SyscallName

ProgramFn = Callable[["ProcessContext"], Optional[int]]
ClientDecorator = Callable[[DBClient, Process], None]

_FAKE_ELF_MAGIC = b"\x7fELF\x02\x01\x01\x00"


class VirtualOS:
    """One simulated machine: filesystem + processes + DB rendezvous."""

    def __init__(self, clock: LogicalClock | None = None) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self.fs = VirtualFileSystem()
        self.processes = ProcessTable()
        self.tracers: list[Tracer] = []
        self._programs: dict[str, ProgramFn] = {}
        self._db_servers: dict[str, Callable[[str], str]] = {}
        self.client_decorators: list[ClientDecorator] = []

    # -- tracers ---------------------------------------------------------------

    def attach_tracer(self, tracer: Tracer) -> None:
        self.tracers.append(tracer)

    def detach_tracer(self, tracer: Tracer) -> None:
        self.tracers.remove(tracer)

    def emit(self, pid: int, name: SyscallName, result: Any = None,
             **args: Any) -> SyscallEvent:
        """Record one syscall: tick the clock, notify every tracer."""
        event = SyscallEvent.make(self.clock.tick(), pid, name,
                                  result, **args)
        for tracer in self.tracers:
            tracer.on_syscall(event)
        return event

    # -- programs ----------------------------------------------------------------

    def register_program(self, binary_path: str, fn: ProgramFn,
                         size: int = 4096) -> None:
        """Install a callable as an executable binary.

        A synthetic ELF-looking file of ``size`` bytes is written at
        ``binary_path`` so packaging has real bytes to copy.
        """
        payload = _FAKE_ELF_MAGIC + binary_path.encode()
        if len(payload) < size:
            payload += b"\x00" * (size - len(payload))
        self.fs.write_file(binary_path, payload, create_parents=True)
        self._programs[self.fs.resolve(binary_path)] = fn

    def bind_program(self, binary_path: str, fn: ProgramFn) -> None:
        """Associate a callable with an *existing* binary file.

        Used by replay: the package supplies the binary bytes; the
        program registry supplies the behaviour. Raises if the file is
        absent (a package missing its binary must not run).
        """
        if not self.fs.is_file(binary_path):
            raise ProgramNotFoundError(
                f"no binary file at {binary_path!r} to bind")
        self._programs[self.fs.resolve(binary_path)] = fn

    def has_program(self, binary_path: str) -> bool:
        try:
            return self.fs.resolve(binary_path) in self._programs
        except VosError:
            return False

    # -- DB rendezvous ---------------------------------------------------------------

    def register_db_server(self, name: str,
                           transport: Callable[[str], str]) -> None:
        self._db_servers[name] = transport

    def db_transport(self, name: str) -> Callable[[str], str]:
        transport = self._db_servers.get(name)
        if transport is None:
            raise VosError(f"no DB server registered as {name!r}")
        return transport

    # -- process execution ---------------------------------------------------------------

    def run(self, binary_path: str, argv: list[str] | None = None,
            env: dict[str, str] | None = None,
            parent: Process | None = None) -> Process:
        """Execute a registered program as a new process.

        When ``parent`` is given, a ``fork`` is emitted on the parent
        followed by ``execve`` on the child — the event pair PTU uses
        to build the process genealogy.
        """
        from repro.vos.programs import ProcessContext  # local: avoid cycle

        try:
            resolved = self.fs.resolve(binary_path)
        except VosError as exc:
            raise ProgramNotFoundError(str(exc)) from exc
        fn = self._programs.get(resolved)
        if fn is None:
            raise ProgramNotFoundError(
                f"no program registered at {binary_path!r}")
        process = self.processes.create(
            resolved, list(argv or []), parent, self.clock.now)
        if parent is not None:
            self.emit(parent.pid, SyscallName.FORK, result=process.pid,
                      child=process.pid)
        self.emit(process.pid, SyscallName.EXECVE, path=resolved,
                  argv=list(argv or []))
        process.started_at = self.clock.now
        context = ProcessContext(self, process, dict(env or {}))
        exit_code = 1
        try:
            returned = fn(context)
            exit_code = int(returned) if returned is not None else 0
        finally:
            context.close_all()
            self.emit(process.pid, SyscallName.EXIT, result=exit_code,
                      code=exit_code)
            process.exit(exit_code, self.clock.now)
        return process
