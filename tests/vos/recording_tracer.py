"""A tracer that keeps every syscall event, for tests that assert
what the virtual kernel emitted."""

from __future__ import annotations

from repro.vos.ptrace import Tracer
from repro.vos.syscalls import SyscallEvent, SyscallName


class RecordingTracer(Tracer):
    """Keeps every event (optionally filtered by syscall name)."""

    def __init__(self, only: set[SyscallName] | None = None) -> None:
        self.events: list[SyscallEvent] = []
        self.only = only

    def on_syscall(self, event: SyscallEvent) -> None:
        if self.only is None or event.name in self.only:
            self.events.append(event)

    def of(self, name: SyscallName) -> list[SyscallEvent]:
        return [event for event in self.events if event.name is name]

    def clear(self) -> None:
        self.events.clear()
