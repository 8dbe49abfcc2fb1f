"""The scripts run end to end."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from netsync.generators import BAParams, ERParams, generate_ba, generate_er
from netsync.metrics import summarize
from netsync.powerlaw import fit_mle
from netsync.resilience import RandomError, TargetedAttack, run_resilience
from netsync.synchronization import spectral_stability

from oracles import fraction_when_lcc_below

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(env, name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_paper_table(child_env):
    """The same table twice, whose values are those of the library calls on
    the same generated graphs."""
    out = run_script(child_env, "paper_table.py").stdout
    assert run_script(child_env, "paper_table.py").stdout == out
    lines = [re.split(r"\s{2,}", line.strip()) for line in out.splitlines()]
    assert lines[0] == ["EEN (published)", "ER(49, 351)", "BA(49, 8)"]
    table = {line[0]: line[1:] for line in lines[1:]}
    assert table["lambda2"][0] == "-0.66"  # the published EEN column
    graphs = [generate_er(ERParams(n=49, m=351, seed=3)), generate_ba(BAParams(n=49, m=8, seed=5))]
    for i, g in enumerate(graphs):
        summary = summarize(g)
        expected = {
            "APL": summary.average_path_length,
            "C": summary.global_clustering,
            "gamma": fit_mle(g.degrees()).gamma,
            "lambda2": spectral_stability(g).lambda2,
            "attack collapse": fraction_when_lcc_below(
                run_resilience(g, TargetedAttack()).rows, g.n // 2),
            "error collapse": fraction_when_lcc_below(
                run_resilience(g, RandomError(0)).rows, g.n // 2),
        }
        for row, value in expected.items():
            assert float(table[row][i + 1]) == pytest.approx(value, abs=5.1e-5), row


def test_output_digests(tmp_path, child_env):
    proc = run_script(child_env, "output_digests.py", tmp_path / "out", "--n", 60)
    lines = proc.stdout.splitlines()
    assert len(lines) == 51  # 47 command outputs and the 4 edge lists
    digest, name = lines[0].split("  ")
    assert len(digest) == 64 and name == "ba49.analyze.csv"
    again = run_script(child_env, "output_digests.py", tmp_path / "again", "--n", 60)
    assert again.stdout == proc.stdout
