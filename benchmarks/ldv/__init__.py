"""The LDV pipeline benchmark: audit → package → replay for the
server-included, server-excluded and PTU package flavours (see
README.md)."""

from pathlib import Path

# the checkout the benchmark runs in: the program is imported from its
# src/ and every file the benchmark writes stays inside it
ROOT = Path(__file__).resolve().parents[2]
