"""The example scripts run end to end on small settings."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)


def test_defect_demo_flags_the_planted_pairs(tmp_path):
    result = run_script("defect_demo.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert "flagged 2 pair(s)" in result.stdout


@pytest.mark.parametrize("name, columns", [
    ("iteration_curve.py", ["seed", "iteration", "czsr_acc", "prototype_change"]),
    ("distortion_sweep.py", ["seed", "distortion", "cm", "irc_gap", "czsr_acc"]),
])
def test_sweep_writes_its_csv(tmp_path, name, columns):
    result = run_script(name, tmp_path, "--seeds", "2")
    assert result.returncode == 0, result.stderr
    with open(tmp_path / name.replace(".py", ".csv"), newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and list(rows[0]) == columns
    assert {row["seed"] for row in rows} == {"0", "1"}
