import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# Stands in for perfbench/run.py: logs each run and prints canned results
# chosen by the tree's name (parent or change), the workload and the seed.
STUB = """
import argparse, json, sys
from pathlib import Path

p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag, required=True)
args = p.parse_args()
tree = Path(__file__).resolve().parents[1]
side, seed = tree.name, int(args.seed)
with open(tree.parent / "order.log", "a") as log:
    log.write(f"{args.workload} {seed} {side} {args.trace}\\n")
i = (seed - 1) % 4
rss = {"parent": [101, 102, 103, 104], "change": [81, 82, 200, 84]}[side][i]
qps = {"parent": [10, 10, 10, 10], "change": [12, 10, 9, 13]}[side][i]
loss = 0.75 if args.workload == "x" and side == "change" else 0.5
failed = int(args.workload == "x" and side == "change" and seed == 2)
print("a human-readable line")
print(json.dumps({"correct": not failed, "attempted": 5, "failed": failed, "metrics": {
    "peak_rss_mb": {"value": rss, "unit": "MB"},
    "analogy_relational_q_per_s": {"value": qps, "unit": "1/s"},
    "final_loss": {"value": loss, "unit": "loss"},
}}))
sys.exit(1 if failed else 0)
"""


def test_pairs_alternate_and_summary_holds_medians_quartiles_wins_and_claims(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB)
        (tmp_path / side / "src").mkdir()
    out = tmp_path / "BENCH_stub.json"
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workloads", "w", "x", "--pairs", "4", "--seconds", "1",
         "--claim", "w:peak_rss_mb:3", "--claim", "w:peak_rss_mb:4", "--trace1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1  # a failed run, a regression and an unmet claim
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    pairs = ["1 parent", "1 change", "2 change", "2 parent", "3 parent", "3 change",
             "4 change", "4 parent"]
    assert order == ([f"w {p} 0" for p in pairs] + [f"x {p} 0" for p in pairs]
                     + ["w 5 parent 1", "w 5 change 1", "x 5 parent 1", "x 5 change 1"])

    record = json.loads(out.read_text())
    rss = record["summary"]["w"]["peak_rss_mb"]
    assert (rss["parent_q1"], rss["parent_median"], rss["parent_q3"]) == (101.25, 102.5, 103.75)
    assert rss["change_median"] == 83.0
    assert (rss["change_wins"], rss["ties"], rss["pairs"]) == (3, 0, 4)
    assert rss["median_gap_exceeds_parent_iqr"] is True
    assert rss["change_worse_by"] == round((83.0 - 102.5) / 102.5, 4)
    qps = record["summary"]["w"]["analogy_relational_q_per_s"]  # higher is better
    assert (qps["parent_median"], qps["change_median"]) == (10, 11.0)
    assert (qps["change_wins"], qps["ties"]) == (2, 1)
    assert record["summary"]["w"]["final_loss_bitwise_equal"] is True
    assert record["summary"]["x"]["final_loss_bitwise_equal"] is False
    assert record["summary"]["w"]["failed"] == {"parent": 0, "change": 0}
    assert record["summary"]["x"]["failed"] == {"parent": 0, "change": 1}
    assert record["summary"]["x"]["failed_runs"] == {"parent": 0, "change": 1}
    assert [c["met"] for c in record["claims"]] == [True, False]
    # Only x's final_loss is worse than its 5% bound; w's medians are better.
    loss = record["summary"]["x"]["final_loss"]
    assert (loss["change_worse_by"], loss["bound"], loss["exceeds_bound"]) == (0.5, 0.05, True)
    assert record["summary"]["w"]["final_loss"]["exceeds_bound"] is False
    assert record["regressions"] == [
        {"workload": "x", "metric": "final_loss", "worse_by": 0.5, "bound": 0.05}]
    assert len(record["runs"]) == 16 and set(record["trace1"]["runs"]) == {
        "w/parent", "w/change", "x/parent", "x/change"}

    lines = proc.stdout.splitlines()
    assert lines[0].startswith("claim w peak_rss_mb: change won 3/4 pairs (need 3)")
    assert lines[0].endswith(": met") and lines[1].endswith(": not met")
    assert lines[2] == "regression x final_loss: worse by 50.0% (bound 5%)"
    assert lines[3] == "failed run: x seed 2 change rc 1"

    # One pair of x has no failed run and no claim: the regression alone fails.
    alone = subprocess.run(
        [sys.executable, str(TOOLS / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workloads", "x", "--pairs", "1", "--seconds", "1",
         "--out", str(tmp_path / "BENCH_x.json")],
        capture_output=True, text=True,
    )
    assert alone.returncode == 1
    assert alone.stdout.splitlines() == ["regression x final_loss: worse by 50.0% (bound 5%)"]

    history = subprocess.run([sys.executable, str(TOOLS / "bench_history.py"), str(out)],
                             capture_output=True, text=True)
    assert history.returncode == 0
    assert ["w", "peak_rss_mb", "102.5", "83", "3/4"] in [
        line.split() for line in history.stdout.splitlines()]
