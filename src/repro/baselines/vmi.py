"""The virtual-machine-image baseline (Section IX-F) as a calibrated
analytical model.

The paper's VMI numbers are simple: a bare-bones Debian Wheezy image
plus the installed DB server plus the copied data and sources comes to
8.2 GB — about 80× the average LDV package — and replaying queries in
the VM is "slightly slower than a non-audited PostgreSQL execution"
(Figure 8b) on top of a boot cost. A hypervisor is out of scope for a
pure-Python reproduction, so this module models exactly those observed
quantities:

* image size  = base OS image + server binaries + full data files +
  application files,
* replay time = boot time + slowdown_factor × native time.

The factor defaults are calibrated to the paper's qualitative claims
(VM replay is the slowest configuration in Fig 8b; the image is ~80×
an average LDV package). See DESIGN.md, substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass

# A bare-bones Debian Wheezy 64-bit install, per the paper's setup.
DEFAULT_BASE_IMAGE_BYTES = 1_200_000_000
# Boot + service start before the first query can run.
DEFAULT_BOOT_SECONDS = 30.0
# "slightly slower than a non-audited PostgreSQL execution"
DEFAULT_SLOWDOWN = 1.25


@dataclass
class VMIModel:
    """Size and replay-time model of the VMI packaging option."""

    base_image_bytes: int = DEFAULT_BASE_IMAGE_BYTES
    boot_seconds: float = DEFAULT_BOOT_SECONDS
    slowdown_factor: float = DEFAULT_SLOWDOWN

    def image_bytes(self, server_bytes: int, data_bytes: int,
                    application_bytes: int = 0) -> int:
        """Total VMI size for a provisioned experiment."""
        return (self.base_image_bytes + server_bytes + data_bytes
                + application_bytes)

    def replay_seconds(self, native_seconds: float,
                       include_boot: bool = False) -> float:
        """Query/application time inside the VM.

        Figure 8b plots per-query replay times with the VM already
        running, so boot is excluded by default; pass
        ``include_boot=True`` for end-to-end comparisons.
        """
        total = self.slowdown_factor * native_seconds
        if include_boot:
            total += self.boot_seconds
        return total

