"""Each script under scripts/ runs to the end at a size that takes seconds."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import bandscan

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *args, cwd):
    src = os.path.dirname(os.path.dirname(bandscan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=300)


def test_remainder_study_runs(tmp_path):
    proc = _run_script("run_remainder_study.py", "--scales", "0.3", "--n", "24", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[:2] == ["0.3", "24"]


def test_remainder_study_reports_an_oracle_failure_on_its_row(tmp_path):
    # at a = 0.2 and n = 24 the inclusion spans only 1.53 grid cells, which the
    # FD oracle refuses; the study once ended there in a traceback
    proc = _run_script("run_remainder_study.py", "--scales", "0.2", "0.3", "--n", "24",
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[1].split()[:2] == ["0.2", "24"]
    assert "oracle failure: only 1.53 grid cells" in lines[1]
    assert lines[2].split()[:2] == ["0.3", "24"] and "oracle failure" not in lines[2]


def test_gap_experiment_reports_an_oracle_failure_on_its_row(tmp_path):
    # at a = 0.2 and n = 24 the inclusion spans only 1.53 grid cells, which
    # the FD oracle refuses; the sweep goes on to the next scale
    proc = _run_script("run_gap_experiment.py", "--scales", "0.2", "0.3", "--n", "24",
                       "--verify", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("a=0.2:") and "oracle failure: only 1.53 grid cells" in lines[0]
    assert lines[1].startswith("a=0.3:") and "oracle failure" not in lines[1]
    with open(tmp_path / "gap_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["a"] for r in rows] == ["0.2", "0.3"]
    assert rows[0]["predicted_lo"] and rows[0]["measured_lo"] == rows[0]["measured_hi"] == ""
    assert float(rows[1]["measured_lo"]) < float(rows[1]["measured_hi"])


def test_gap_experiment_refuses_a_q_the_oracle_cannot_mask(tmp_path):
    # the FD oracle masks the sphere of q = 1: at q = 2 the sweep once printed
    # the sphere's measured gap beside the q = 2 prediction and exited 0
    proc = _run_script("run_gap_experiment.py", "--scales", "0.4", "--q", "2", "--n", "24",
                       "--verify", cwd=tmp_path)
    assert proc.returncode == 2
    assert "error: q: the finite-difference oracle masks a sphere" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not any(tmp_path.iterdir())


def test_remainder_study_refuses_a_grid_past_the_cap_before_its_first_solve(tmp_path):
    # each scale also solves at 2n = 128, past the FD oracle's n <= 96
    proc = _run_script("run_remainder_study.py", "--scales", "0.3", "--n", "64", cwd=tmp_path)
    assert proc.returncode == 2
    assert "error: n: " in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_remainder_study_names_a_scale_too_large_for_the_cell(tmp_path):
    # the FD oracle's refusal once read "inclusion radius must satisfy 0 <= a < pi/2",
    # and came after the first scale's mask, capacitance and printed header
    proc = _run_script("run_remainder_study.py", "--scales", "0.3", "2", "--n", "24",
                       cwd=tmp_path)
    assert proc.returncode == 2
    assert "error: a: must be >= 0 and < 0.5*pi, got 2.0" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
