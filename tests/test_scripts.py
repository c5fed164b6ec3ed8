"""The demo and sweep scripts run to completion on small inputs."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each script runs with the test's tmp_path as working directory, so a sweep
# writes its BENCH file there and not over the checked-in one
SCRIPT_RUNS = {
    "chain_shields": ["--sites", "200", "--draws", "3", "--trials", "3"],
    "run_demo_pipeline": ["--out", "{tmp}"],
    "stabilization_tails": ["--replicates", "5"],
    "search_sweep": ["--label", "smoke"],
    "io_sweep": ["--label", "smoke"],
    "exact_sweep": ["--label", "smoke"],
}
# sweep script -> the BENCH file it writes and the keys of its entry
BENCH_FILES = {
    "search_sweep": ("BENCH_search_rounds.json", {"hardcore", "wr_line", "graph_build_rss"}),
    "io_sweep": ("BENCH_config_io.json", {"io"}),
    "exact_sweep": ("BENCH_dense_exact.json", {"dense", "aloha_exact_rss"}),
}
# the checked-in BENCH files, and those the sweeps write, which must be there
CHECKED_IN_BENCH = sorted(
    {name for name in os.listdir(ROOT) if name.startswith("BENCH_") and name.endswith(".json")}
    | {name for name, _ in BENCH_FILES.values()}
)


@pytest.mark.parametrize("script", sorted(SCRIPT_RUNS))
def test_script_exits_0(tmp_path, script):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    args = [a.format(tmp=tmp_path / "out") for a in SCRIPT_RUNS[script]]
    path = os.path.join(ROOT, "scripts", f"{script}.py")
    run = subprocess.run([sys.executable, path, *args], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    if script in BENCH_FILES:
        name, keys = BENCH_FILES[script]
        with open(tmp_path / name) as fh:
            results = json.load(fh)
        assert set(results) == {"smoke"}
        assert keys <= set(results["smoke"])


@pytest.mark.parametrize("name", CHECKED_IN_BENCH)
def test_bench_file_has_parent_and_change(name):
    # a speed claim needs before and after figures, each with its machine
    with open(os.path.join(ROOT, name)) as fh:
        results = json.load(fh)
    for label in ("parent", "change"):
        assert {"nproc", "python", "numpy"} <= set(results[label])
