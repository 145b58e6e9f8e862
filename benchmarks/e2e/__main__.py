"""Command line: run every workload, or compare result files.

    PYTHONPATH=src python -m benchmarks.e2e run --seed 0 [--workload NAME]
        [--repeat N] [--out FILE] [--trace-out DIR] [--seconds S] [--smoke]
    PYTHONPATH=src python -m benchmarks.e2e compare PARENT.json... -- CHANGE.json...

``run`` takes each workload in its own fresh child process, one after
another, and exits non-zero naming any workload whose reports failed the
correctness gate.  ``compare`` labels each workload x metric pairing
better, worse, unchanged or unresolved against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy

from .bench import quartiles
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def fingerprint() -> Dict[str, object]:
    """The machine a result file was measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _child(workload: str, seed: int, seconds: float, trace: bool,
           smoke: bool, trace_out: Optional[Path]) -> Optional[Dict]:
    """Run one workload in a fresh interpreter; its record, or ``None``."""
    with tempfile.TemporaryDirectory() as tmp:
        record_path = Path(tmp) / "record.json"
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--json-out", str(record_path),
        ]
        if smoke:
            command.append("--smoke")
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        # Everything but the machine-readable last line.
        print("\n".join(result.stdout.splitlines()[:-1]), flush=True)
        if not record_path.exists():
            return None
        return json.loads(record_path.read_text())


def combine(records: List[Dict]) -> Dict:
    """One workload's invocations as one record: each metric's value is the
    median of the invocations' values, its quartiles are taken over them,
    and ``n`` counts invocations.  A host slowdown that covers one whole
    invocation then moves the quartiles, not the median."""
    if len(records) == 1:
        return records[0]
    metrics = {}
    for key, metric in records[0]["metrics"].items():
        q1, q2, q3 = quartiles([r["metrics"][key]["value"] for r in records])
        metrics[key] = {"value": q2, "unit": metric["unit"], "q1": q1,
                        "q3": q3, "n": len(records)}
    return {
        "workload": records[0]["workload"],
        "seed": records[0]["seed"],
        "correct": all(r["correct"] for r in records),
        "invocations": records,
        "metrics": metrics,
    }


def cmd_run(args) -> int:
    names = args.workload or list(WORKLOADS)
    out: Dict[str, object] = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "workloads": {},
        "layers": {},
    }
    bad: List[str] = []
    records: Dict[str, List[Dict]] = {name: [] for name in names}
    # Round-robin, so each workload's invocations are spread over the set.
    for _ in range(args.repeat):
        for name in names:
            record = _child(name, args.seed, args.seconds, False, args.smoke,
                            None)
            if record is None or not record["correct"]:
                bad.append(name)
            if record is not None:
                records[name].append(record)
    for name in names:
        if records[name]:
            out["workloads"][name] = combine(records[name])
    if args.trace_out is not None:
        for name in names:
            record = _child(name, args.seed, args.seconds, True, args.smoke,
                            args.trace_out)
            if record is None or not record["correct"]:
                bad.append(name)
            if record is not None:
                out["layers"][name] = record
    if args.repeat > 1:
        for name, record in out["workloads"].items():
            print(f"{name} seed={args.seed}: median [q1, q3] over "
                  f"{len(record['invocations'])} invocations")
            for key, m in record["metrics"].items():
                print(f"  {key:<32} {m['value']:>12.6g} {m['unit']:<11} "
                      f"q1={m['q1']:.6g} q3={m['q3']:.6g}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    if bad:
        print(f"correctness gate failed: {', '.join(sorted(set(bad)))}",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def load_bounds() -> Dict[str, Dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def _side(files: List[Dict], workload: str, metric: str) -> Optional[tuple]:
    """(q1, median, q3, values) of one side: quartiles over the files when
    there are several, else the single file's own quartiles."""
    entries = [
        f["workloads"][workload]["metrics"][metric]
        for f in files
        if metric in f.get("workloads", {}).get(workload, {}).get("metrics", {})
    ]
    if not entries:
        return None
    if len(entries) == 1:
        m = entries[0]
        q1 = m["value"] if m.get("q1") is None else m["q1"]
        q3 = m["value"] if m.get("q3") is None else m["q3"]
        return q1, m["value"], q3, [m["value"]]
    values = [m["value"] for m in entries]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, values


def label(parent: tuple, change: tuple, bound: float, better: str) -> str:
    """better / worse / unchanged / unresolved for one pairing."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3, p_values = parent
    c_q1, c_med, c_q3, c_values = change

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else 0.0

    if spread(p_q1, p_med, p_q3) > bound or spread(c_q1, c_med, c_q3) > bound:
        # Separation needs several files a side: one file gives one value.
        separated = len(p_values) > 1 and len(c_values) > 1 and all(
            sign * c > sign * p for c in c_values for p in p_values
        )
        return "better" if separated else "unresolved"
    rel = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if rel < -bound:
        return "worse"
    if rel > bound:
        return "better"
    return "unchanged"


def cmd_compare(args) -> int:
    parents = [json.loads(Path(p).read_text()) for p in args.parent]
    changes = [json.loads(Path(p).read_text()) for p in args.change]
    bounds = load_bounds()
    workloads = sorted({w for f in parents + changes for w in f["workloads"]})
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36}  label")
    for workload in workloads:
        for metric, spec in bounds.items():
            parent = _side(parents, workload, metric)
            change = _side(changes, workload, metric)
            if parent is None or change is None:
                continue
            verdict = label(parent, change, spec["bound"], spec["better"])
            cells = [
                f"{s[1]:.6g} [{s[0]:.6g}, {s[2]:.6g}]" for s in (parent, change)
            ]
            print(f"{workload:<16} {metric:<18} {cells[0]:>36} {cells[1]:>36}"
                  f"  {verdict}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads, one child each")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    run.add_argument("--seconds", type=float, default=16.0)
    run.add_argument("--repeat", type=int, default=1,
                     help="invocations per workload, taken round-robin")
    run.add_argument("--out", type=Path, default=None)
    run.add_argument("--trace-out", type=Path, default=None,
                     help="also take a traced pass; Chrome traces land here")
    run.add_argument("--smoke", action="store_true")
    compare = sub.add_parser("compare", help="PARENT.json... -- CHANGE.json...")
    compare.add_argument("parent", nargs="+")
    if argv[:1] == ["compare"]:
        if "--" not in argv:
            parser.error("compare needs PARENT.json... -- CHANGE.json...")
        split = argv.index("--")
        args = parser.parse_args(argv[:split])
        args.change = argv[split + 1:]
        if not args.change:
            parser.error("compare needs at least one CHANGE.json after --")
        return cmd_compare(args)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
