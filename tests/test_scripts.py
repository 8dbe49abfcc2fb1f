"""The experiment scripts run end to end at tiny sizes."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(env, name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def header(path):
    return path.read_text().splitlines()[0]


def test_resilience_experiment(tmp_path, child_env):
    run_script(child_env, "resilience_experiment.py", "--n", 40, "--m", 2, "--seeds", 2,
               "--record-every", 0.25, "--out-dir", tmp_path)
    assert header(tmp_path / "attack_trace.csv") == "fraction_removed,diameter,lcc_size,components"
    assert header(tmp_path / "error_trace.csv").startswith("fraction_removed,diameter_median,")


def test_compare_degree_distributions(tmp_path, child_env):
    out = tmp_path / "cmp.csv"
    run_script(child_env, "compare_degree_distributions.py", "--n", 200, "--m", 2, "--out", out)
    assert header(out) == "k,p_observed,p_reference"


def test_synchronization_experiment(tmp_path, child_env):
    out = tmp_path / "sync.csv"
    proc = run_script(child_env, "synchronization_experiment.py", "--tmax", 5, "--out", out)
    assert header(out) == "t,sync_error"
    assert len(out.read_text().splitlines()) == 502  # header + 501 grid points
    assert "lambda2=" in proc.stdout


def test_output_digests(tmp_path, child_env):
    proc = run_script(child_env, "output_digests.py", tmp_path / "out", "--n", 60)
    lines = proc.stdout.splitlines()
    assert len(lines) == 51  # 47 command outputs and the 4 edge lists
    digest, name = lines[0].split("  ")
    assert len(digest) == 64 and name == "ba49.analyze.csv"
    again = run_script(child_env, "output_digests.py", tmp_path / "again", "--n", 60)
    assert again.stdout == proc.stdout
