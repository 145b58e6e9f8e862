"""Digest every pinned workload's serving report, to check byte-identity.

    PYTHONPATH=src python -m benchmarks.report_digests --seeds 0 1
    PYTHONPATH=src python -m benchmarks.report_digests --compare head.txt base.txt

The first form runs each workload that ``BENCHMARK.json`` lists once per
seed, untimed and untraced, and prints one ``workload seed sha256`` line per
run.  The digest is taken over
``json.dumps(report.to_dict(include_detections=True), sort_keys=True)``, so a
change that claims byte-identical reports must print the same lines as its
parent.  The second form reads two such listings, prints a Markdown table of
both columns and exits non-zero when any digest differs or is missing on
one side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

Key = Tuple[str, str]


def workload_names() -> List[str]:
    """The workloads ``BENCHMARK.json`` declares, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec["workloads"]]


def report_digest(name: str, seed: int) -> str:
    """sha256 of one full run's canonical report JSON."""
    from benchmarks.e2e.workloads import WORKLOADS, prepare

    prepared = prepare(WORKLOADS[name], seed)
    report = prepared.run(prepared.service(), lambda shard, tick: None)
    text = json.dumps(report.to_dict(include_detections=True), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def parse_listing(text: str) -> Dict[Key, str]:
    """``{(workload, seed): sha256}`` from the printed listing."""
    digests: Dict[Key, str] = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 3:
            digests[(fields[0], fields[1])] = fields[2]
    return digests


def compare(head: Dict[Key, str], base: Dict[Key, str]) -> Tuple[str, bool]:
    """A Markdown table of both columns, and whether every digest matches."""
    lines = [
        "## Report identity (PR head vs merge-base)",
        "",
        "| workload | seed | head | merge-base | same |",
        "|---|---|---|---|---|",
    ]
    same_all = bool(head) and head.keys() == base.keys()
    for key in sorted(head.keys() | base.keys()):
        mine, theirs = head.get(key, "-"), base.get(key, "-")
        same = mine == theirs
        same_all = same_all and same
        lines.append(
            f"| {key[0]} | {key[1]} | `{mine[:16]}` | `{theirs[:16]}` | "
            f"{'yes' if same else '**NO**'} |"
        )
    return "\n".join(lines) + "\n", same_all


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.report_digests", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument(
        "--compare", nargs=2, metavar=("HEAD", "BASE"), default=None,
        help="compare two printed listings instead of running workloads",
    )
    args = parser.parse_args(argv)
    if args.compare is not None:
        head, base = (parse_listing(Path(p).read_text()) for p in args.compare)
        table, same = compare(head, base)
        sys.stdout.write(table)
        return 0 if same else 1
    import repro

    # Which program is digested: a src directory on PYTHONPATH shadows an
    # installed copy, and the log should show that it did.
    print(f"# repro from {Path(repro.__file__).parent}", file=sys.stderr)
    for name in workload_names():
        for seed in args.seeds:
            print(f"{name} {seed} {report_digest(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
