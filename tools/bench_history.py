#!/usr/bin/env python3
"""Print the trajectory of the committed benchmark records.

For each ``BENCH_*.json`` in the repository root, in the order in which git
first added them (files git does not know yet come last, by name), prints
each workload's end-to-end metrics as named in ``BENCHMARK.json``: the
parent's median, the change's median and the pairs the change won.  The
records' layouts differ; two are read:

* ``summary[workload][metric]`` holding ``parent_median``,
  ``change_median``, ``change_wins`` and ``pairs``, the layout that
  ``tools/bench_pairs.py`` writes;
* ``summary[workload][metric]`` holding ``parent_q1_median_q3``,
  ``change_q1_median_q3`` and ``change_wins``, with ``pairs`` beside the
  metrics.

A file that is not JSON or has no ``summary`` object of workloads is named
with the reason, not skipped, and the exit status is then 1.  A value a
record does not hold prints as ``-``.

Run from the repository root:

    python3 tools/bench_history.py                 # every BENCH_*.json here
    python3 tools/bench_history.py A.json B.json   # these files, in this order
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit_order(paths: list[Path]) -> list[Path]:
    """``paths`` sorted by the commit that added each, oldest first."""
    added: dict[str, int] = {}
    try:
        log = subprocess.run(
            ["git", "log", "--reverse", "--diff-filter=A", "--name-only", "--format=",
             "--", "BENCH_*.json"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        log = ""
    for name in log.split():
        added.setdefault(name, len(added))
    return sorted(paths, key=lambda p: (added.get(p.name, len(added)), p.name))


def _median(record: dict, side: str):
    if f"{side}_median" in record:
        return record[f"{side}_median"]
    quartiles = record.get(f"{side}_q1_median_q3")
    return quartiles[1] if isinstance(quartiles, list) and len(quartiles) == 3 else None


def _number(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else "-"


def rows(data, metrics: list[str]) -> list[tuple[str, ...]]:
    """(workload, metric, parent median, change median, wins) per metric;
    ``ValueError`` if ``data`` has no summary of workloads."""
    summary = data.get("summary") if isinstance(data, dict) else None
    if not isinstance(summary, dict) or not summary or not all(
        isinstance(w, dict) for w in summary.values()
    ):
        raise ValueError("no 'summary' object of workloads")
    out = []
    for workload, entry in summary.items():
        for metric in metrics:
            record = entry.get(metric)
            if not isinstance(record, dict):
                continue
            pairs = record.get("pairs", entry.get("pairs"))
            wins = record.get("change_wins")
            out.append((
                workload, metric, _number(_median(record, "parent")),
                _number(_median(record, "change")),
                f"{_number(wins)}/{_number(pairs)}",
            ))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="BENCH files to print (default: every BENCH_*.json in commit order)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in spec["end_to_end"]]
    files = args.files or commit_order(list(ROOT.glob("BENCH_*.json")))
    unreadable = 0
    for path in files:
        try:
            table = rows(json.loads(path.read_text(encoding="utf-8")), metrics)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            print(f"{path.name}: cannot read: {exc}")
            unreadable += 1
            continue
        print(f"== {path.name}")
        width = max([len(r[0]) for r in table] + [8])
        print(f"  {'workload':<{width}}  {'metric':<28} {'parent':>12} {'change':>12}  wins")
        for workload, metric, parent, change, wins in table:
            print(f"  {workload:<{width}}  {metric:<28} {parent:>12} {change:>12}  {wins}")
    return 1 if unreadable else 0


if __name__ == "__main__":
    sys.exit(main())
