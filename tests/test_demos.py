import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_corpus_and_vocabulary.py", "02_knowledge_models.py"]
)
def test_demo_runs(tmp_path, demo):
    """The quick demos run to completion against this checkout's source."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
