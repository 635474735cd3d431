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


def test_quick_experiment_reports_are_byte_identical_across_reruns(tmp_path):
    reports = []
    for name in ("a", "b"):
        done = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "run_experiments.py"), "--quick",
             "--out-dir", str(tmp_path / name)],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert sorted(reports[0]) == ["dimension_sweep.csv", "duality_runs.json",
                                  "hilbert_growth.json", "lemma_reports.json",
                                  "modulation_sweep.csv"]
    assert reports[0] == reports[1]
