"""The demo scripts run to completion on small inputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# scripts/search_sweep.py and scripts/io_sweep.py are left out: each rewrites a
# checked-in BENCH file
SCRIPT_RUNS = {
    "chain_shields": ["--sites", "200", "--draws", "3", "--trials", "3"],
    "run_demo_pipeline": ["--out", "{tmp}"],
    "stabilization_tails": ["--replicates", "5"],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_RUNS))
def test_script_exits_0(tmp_path, script):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    args = [a.format(tmp=tmp_path / "out") for a in SCRIPT_RUNS[script]]
    path = os.path.join(ROOT, "scripts", f"{script}.py")
    run = subprocess.run([sys.executable, path, *args], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
