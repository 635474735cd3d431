"""The repository scripts run from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_make_golden_reproduces_golden_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "golden"
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_golden.py"), "--golden-dir", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("c0.json", "modulation_slope.csv", "dimension_free.csv"):
        assert (out / name).read_bytes() == (REPO / "golden" / name).read_bytes(), name
