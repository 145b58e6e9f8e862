"""Run one workload of the end-to-end serving benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``
directory, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero when a report fails the correctness gate or
when the program's sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: program sources not found at {SRC}")
    # Drop this script's directory: its trace.py would shadow the stdlib.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    from benchmarks.e2e.bench import main

    sys.exit(main())
