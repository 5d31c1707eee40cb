"""The tracer interface — ptrace for the virtual OS.

A :class:`Tracer` attached to a :class:`repro.vos.kernel.VirtualOS`
receives every :class:`SyscallEvent` the kernel emits, in order. This
is the observation surface PTU builds OS provenance from; the tests'
recording tracer lives in ``tests/vos/recording_tracer.py``.
"""

from __future__ import annotations

from repro.vos.syscalls import SyscallEvent


class Tracer:
    """Base class: override :meth:`on_syscall`."""

    def on_syscall(self, event: SyscallEvent) -> None:
        """Called synchronously for every syscall."""
