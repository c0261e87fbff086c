import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_history.py"


def test_prints_medians_and_wins_and_names_an_unreadable_file(tmp_path):
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps({"summary": {
        "cli-bigvocab": {
            "analogy_3cosadd_q_per_s": {
                "parent_median": 1110.0, "change_median": 2651.0, "change_wins": 10, "pairs": 10,
            },
            "failed": {"parent": 0, "change": 0},
        },
        "joint-relworld": {
            "pairs": 8,
            "setup_s": {"parent_q1_median_q3": [0.1, 0.15, 0.2],
                        "change_q1_median_q3": [0.1, 0.125, 0.2], "change_wins": 5},
        },
    }}))
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text('{"summary": ')
    proc = subprocess.run([sys.executable, str(TOOL), str(bad), str(good)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("BENCH_bad.json: cannot read: ")
    assert lines[1] == "== BENCH_good.json"
    assert lines[3].split() == ["cli-bigvocab", "analogy_3cosadd_q_per_s", "1110", "2651", "10/10"]
    assert lines[4].split() == ["joint-relworld", "setup_s", "0.15", "0.125", "5/8"]
    assert len(lines) == 5
