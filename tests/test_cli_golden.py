"""Golden stdout pins for the ``fleet`` and ``watch`` single-run paths.

For a fixed seed every line these commands print is deterministic except
the wall-clock readings: ``critical_path_s`` and the ``tick-latency-p99``
SLO row.  Those lines are dropped, and since the dropped row can widen
its table's columns, each kept line is compared with its whitespace runs
collapsed and a table rule reduced to one ``-``.  Everything else must
match the files in ``tests/golden/`` exactly.  To regenerate a file after
an intended output change, run the command with ``PYTHONPATH=src python
-m repro.cli ...`` and pass its stdout through :func:`deterministic_lines`.
"""

import io
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAST = ["--scale", "0.05", "--epochs", "6", "--records", "120"]
WALL_CLOCK = ("critical_path_s", "tick-latency-p99")

CASES = {
    "fleet_streams2": ["fleet", "--task", "TA10", "--streams", "2",
                       "--max-horizons", "8"],
    "fleet_shards2": ["fleet", "--task", "TA10", "--shards", "2",
                      "--streams", "2", "--max-horizons", "8"],
    "watch_faults": ["watch", "--task", "TA10", "--plain", "--streams", "4",
                     "--max-horizons", "12", "--fault-rate", "0.4",
                     "--refresh-ticks", "4"],
}


def deterministic_lines(text):
    lines = []
    for line in text.splitlines():
        if any(key in line for key in WALL_CLOCK):
            continue
        tokens = line.split()
        if tokens and not line.strip("- "):
            tokens = ["-"]
        lines.append(" ".join(tokens))
    return lines


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    out = io.StringIO()
    assert main(CASES[name] + FAST, out=out) == 0
    expected = (GOLDEN / f"cli_{name}.txt").read_text(encoding="utf-8")
    assert deterministic_lines(out.getvalue()) == expected.splitlines()
