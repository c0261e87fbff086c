#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarise them.

For each workload and each seed 1..N, runs ``perfbench/run.py --workload W
--seed S --seconds SEC --trace 0`` once from each of two checkouts, one run
at a time: the parent first for odd seeds, the change first for even seeds.
Each run's last stdout line is its JSON result.  The output file holds:

* ``runs``: every run's workload, seed, side, exit status, ``correct``,
  ``attempted``, ``failed`` and end-to-end metric values;
* ``summary[workload][metric]`` for each end-to-end metric of this
  checkout's ``BENCHMARK.json``: ``parent_median``, ``parent_q1``,
  ``parent_q3`` (``statistics.quantiles(n=4)`` over the parent's runs),
  ``change_median``, ``change_worse_by`` (the relative move of the median
  toward worse), ``bound``, ``exceeds_bound`` (``change_worse_by`` is more
  than ``bound``), ``change_wins`` and ``ties`` (pairs where the
  change reads strictly better, or equal), ``pairs`` and
  ``median_gap_exceeds_parent_iqr``; beside the metrics,
  ``final_loss_bitwise_equal``, and per side the operations that ``failed``
  and the ``failed_runs`` (exit status not 0 or result not ``correct``);
* ``regressions``: each workload and metric whose ``exceeds_bound`` holds,
  with its ``worse_by`` and ``bound``;
* ``claims``: for each ``--claim WORKLOAD:METRIC:K``, whether the change
  won at least K pairs and its median beat the parent's by more than the
  parent's interquartile range (``met``);
* ``trace1`` with ``--trace1``: one ``--trace 1`` run per side and workload
  at seed 5, with every metric it printed.

The file is rewritten after every run, so an interrupted run keeps the
pairs it finished.  ``tools/bench_history.py`` prints it.  Exit status 1
if a run failed, a metric is worse than the parent by more than its bound,
or a claim was not met.

    python3 tools/bench_pairs.py ../parent . --workloads kg-variants-d100 \\
        --pairs 10 --seconds 40 --claim kg-variants-d100:peak_rss_mb:9 --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE1_SEED = 5


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``tree``: its exit status and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        result, metrics = {}, {}
    run = {"workload": workload, "seed": seed, "rc": proc.returncode,
           "correct": bool(result.get("correct")) and proc.returncode == 0,
           "attempted": result.get("attempted"), "failed": result.get("failed"),
           "metrics": metrics}
    if not run["correct"]:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def describe(tree: Path) -> dict:
    """The tree's git commit, if it is a checkout, and the SHA-256 of its
    ``src`` files as ``perfbench/run.py`` computes it."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    git = done.stdout.strip() if (tree / ".git").exists() and done.returncode == 0 else None
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(path.relative_to(tree).as_posix().encode())
        h.update(path.read_bytes())
    return {"git": git, "src_sha256": h.hexdigest()}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(runs: list[dict], workload: str, spec: list[dict]) -> dict:
    """The ``summary`` entry of one workload over its finished pairs."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
    entry: dict = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent, change = [b[0] for b in both], [b[1] for b in both]
        q1, mid, q3 = quartiles(parent)
        new = statistics.median(change)
        gain = (mid - new) if lower else (new - mid)
        worse, bound = (-gain / mid if mid else None), metric.get("bound")
        entry[name] = {
            "parent_median": mid, "parent_q1": q1, "parent_q3": q3, "change_median": new,
            "change_worse_by": None if worse is None else round(worse, 4), "bound": bound,
            "exceeds_bound": None not in (worse, bound) and worse > bound,
            "change_wins": sum((c < p) if lower else (c > p) for p, c in both),
            "ties": sum(c == p for p, c in both), "pairs": len(both),
            "median_gap_exceeds_parent_iqr": gain > q3 - q1,
            "parent_runs": parent, "change_runs": change,
        }
    entry["final_loss_bitwise_equal"] = bool(pairs) and all(
        p["parent"]["metrics"].get("final_loss") == p["change"]["metrics"].get("final_loss")
        for p in pairs)
    sides = ("parent", "change")
    entry["failed"] = {side: sum(p[side]["failed"] or 0 for p in pairs) for side in sides}
    entry["failed_runs"] = {side: sum(not p[side]["correct"] for p in pairs) for side in sides}
    return entry


def regressions(summary: dict) -> list[dict]:
    """Each workload and metric whose change median is worse than the
    parent's by more than the metric's bound."""
    return [{"workload": w, "metric": m, "worse_by": r["change_worse_by"], "bound": r["bound"]}
            for w, entry in summary.items() for m, r in entry.items()
            if isinstance(r, dict) and r.get("exceeds_bound")]


def claim_verdict(claim: str, summary: dict) -> dict:
    workload, metric, k = claim.rsplit(":", 2)
    record = summary.get(workload, {}).get(metric)
    verdict = {"workload": workload, "metric": metric, "k": int(k), "met": False}
    if record:
        verdict.update(
            {key: record[key] for key in ("parent_median", "parent_q1", "parent_q3",
                                          "change_median", "change_wins", "pairs")},
            met=record["change_wins"] >= int(k) and record["median_gap_exceeds_parent_iqr"])
    return verdict


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC:K")
    p.add_argument("--trace1", action="store_true",
                   help="add one --trace 1 run per side and workload")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    p.add_argument("--note", default="", help="what the change does, kept as the file's 'what'")
    args = p.parse_args(argv)
    for claim in args.claim:
        if len(claim.rsplit(":", 2)) != 3 or not claim.rsplit(":", 1)[1].isdigit():
            p.error(f"--claim {claim!r}: expected WORKLOAD:METRIC:K")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record: dict = {
        "what": args.note, "parent": describe(trees["parent"]), "change": describe(trees["change"]),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"tools/bench_pairs.py: seeds 1..{args.pairs} per workload, one run at a time, "
                  "parent first for odd seeds and change first for even seeds",
        "summary": {}, "runs": [],
    }

    def save() -> None:
        record["summary"] = {w: summarize(record["runs"], w, spec) for w in args.workloads}
        record["regressions"] = regressions(record["summary"])
        record["claims"] = [claim_verdict(c, record["summary"]) for c in args.claim]
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    total, done = 2 * args.pairs * len(args.workloads), 0
    for workload in args.workloads:
        for seed in range(1, args.pairs + 1):
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                start = time.perf_counter()
                run = run_once(trees[side], workload, seed, args.seconds, 0)
                record["runs"].append({**run, "side": side})
                done += 1
                print(f"[{done}/{total}] {workload} seed {seed} {side}: rc {run['rc']}, "
                      f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
                save()
    if args.trace1:
        record["trace1"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {TRACE1_SEED} "
                       f"--seconds {args.seconds:g} --trace 1",
            "runs": {f"{w}/{side}": {**run_once(trees[side], w, TRACE1_SEED, args.seconds, 1),
                                     "side": side}
                     for w in args.workloads for side in ("parent", "change")},
        }
    save()
    for c in record["claims"]:
        print(f"claim {c['workload']} {c['metric']}: change won {c.get('change_wins', 0)}/"
              f"{c.get('pairs', 0)} pairs (need {c['k']}), median {c.get('parent_median')} -> "
              f"{c.get('change_median')}, parent IQR {c.get('parent_q1')}..{c.get('parent_q3')}: "
              f"{'met' if c['met'] else 'not met'}")
    for r in record["regressions"]:
        print(f"regression {r['workload']} {r['metric']}: worse by {r['worse_by']:.1%} "
              f"(bound {r['bound']:.0%})")
    failed = [r for r in record["runs"] + list(record.get("trace1", {}).get("runs", {}).values())
              if not r["correct"]]
    for r in failed:
        print(f"failed run: {r['workload']} seed {r['seed']} {r['side']} rc {r['rc']}")
    met = all(c["met"] for c in record["claims"])
    return 1 if failed or record["regressions"] or not met else 0


if __name__ == "__main__":
    sys.exit(main())
