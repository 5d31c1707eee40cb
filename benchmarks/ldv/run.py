"""Run one workload of the LDV pipeline benchmark (see ``cli.py``).

Builds nothing: it imports the program from ``src/`` of the checkout it
sits in, and fails before measuring anything if that is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"{sys.argv[0]}: no program source at {ROOT / 'src'}")
    # replace this script's directory with the checkout, so sibling
    # module names cannot shadow standard-library modules
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ldv.cli import run_one

    sys.exit(run_one(sys.argv[1:]))
