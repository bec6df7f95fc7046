"""The example scripts and the README quick start run end to end on small settings."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(argv, tmp_path):
    """Run ``python ARGV`` in ``tmp_path`` with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)


def run_script(name, tmp_path, *args):
    return run_python([str(ROOT / "scripts" / name), *args], tmp_path)


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


@pytest.mark.parametrize("name", ["iteration_curve.py", "distortion_sweep.py"])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_sweep_refuses_fewer_than_one_seed(tmp_path, name, seeds):
    result = run_script(name, tmp_path, "--seeds", seeds)
    assert result.returncode == 2
    assert "--seeds must be at least 1" in result.stderr
    assert not (tmp_path / name.replace(".py", ".csv")).exists()


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (Python)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["1.0", "1.0", "1.0", "()"]
