"""The demo scripts run to completion on small inputs, and the layer sweep in full."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each demo script runs with the test's tmp_path as working directory
SCRIPT_RUNS = {
    "chain_shields": ["--sites", "200", "--draws", "3", "--trials", "3"],
    "run_demo_pipeline": ["--out", "{tmp}"],
    "stabilization_tails": ["--replicates", "5"],
}
# layer of the one layer_sweep.py run -> the BENCH file it writes; the run's
# working directory is a temporary one, so it leaves the checked-in files alone
SWEEP_LAYERS = {
    "search_sweep": "BENCH_search_rounds.json",
    "exact_sweep": "BENCH_dense_exact.json",
    "io_sweep": "BENCH_config_io.json",
}
# the checked-in BENCH files, and those the sweep writes, which must be there
CHECKED_IN_BENCH = sorted(
    {name for name in os.listdir(ROOT) if name.startswith("BENCH_") and name.endswith(".json")}
    | set(SWEEP_LAYERS.values())
)


def key_tree(obj):
    """The nested key structure of a BENCH entry: each dict's keys with the
    structure of their values, and each list's items in order."""
    if isinstance(obj, dict):
        return {key: key_tree(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [key_tree(item) for item in obj]
    return None


def run_script(script, args, cwd):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    path = os.path.join(ROOT, "scripts", f"{script}.py")
    run = subprocess.run([sys.executable, path, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


@pytest.fixture(scope="module")
def layer_sweep_dir(tmp_path_factory):
    """Working directory of one full layer_sweep.py run, shared by its layers."""
    cwd = tmp_path_factory.mktemp("layer_sweep")
    run_script("layer_sweep", ["--label", "smoke"], cwd)
    return cwd


@pytest.mark.parametrize("script", sorted(SCRIPT_RUNS) + sorted(SWEEP_LAYERS))
def test_script_exits_0(request, tmp_path, script):
    if script in SCRIPT_RUNS:
        run_script(script, [a.format(tmp=tmp_path / "out") for a in SCRIPT_RUNS[script]], tmp_path)
        return
    # every row and key of the checked-in figures, and nothing else
    name = SWEEP_LAYERS[script]
    with open(request.getfixturevalue("layer_sweep_dir") / name) as fh:
        results = json.load(fh)
    with open(os.path.join(ROOT, name)) as fh:
        checked_in = json.load(fh)
    assert set(results) == {"smoke"}
    assert key_tree(results["smoke"]) == key_tree(checked_in["change"]), name


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
