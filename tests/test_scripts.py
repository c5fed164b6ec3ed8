"""The demo and sweep scripts run to completion on small inputs."""

import ast
import glob
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


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _names_read(tree, strings=False):
    """Names that a module reads: Name ids, attribute names and, if strings,
    string constants.  A top-level definition's own body does not count as a
    read of its name."""
    used = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if strings and isinstance(node, ast.Constant) else None)
            if isinstance(name, str) and name != own:
                used.add(name)
    return used


def test_every_public_name_has_a_reader():
    # a public function or class of the package that only its own definition
    # and __init__ name is code that no pipeline path, script, benchmark
    # tracer or acceptance criterion runs
    modules = [_parse(p) for p in glob.glob(os.path.join(ROOT, "src", "markopt", "*.py"))
               if os.path.basename(p) != "__init__.py"]
    readers = [_parse(p) for p in glob.glob(os.path.join(ROOT, "scripts", "*.py"))]
    readers.append(_parse(os.path.join(ROOT, "tests", "test_acceptance.py")))
    bench = [_parse(p) for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))]
    used = set().union(*map(_names_read, modules + readers),
                       *(_names_read(t, strings=True) for t in bench))
    public = {stmt.name for tree in modules for stmt in tree.body
              if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")}
    unread = sorted(public - used)
    assert not unread, f"public names nothing reads: {', '.join(unread)}"
