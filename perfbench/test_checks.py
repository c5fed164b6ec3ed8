"""Each output check accepts real markopt output and rejects a corrupted copy.

    python3 -m pytest perfbench

The pipelines are the benchmark's own, shrunk so that the whole module runs
in well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from markopt.cli import main  # noqa: E402

import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {  # (workload, pipeline index) -> spec fields replaced for speed
    ("chain-search", 0): {"window": {"kind": "line", "n": 30}, "replicates": 2},
    ("grain-search", 0): {"window": {"kind": "cube", "d": 2, "L": 3.0}, "replicates": 2},
    ("growth-exact", 0): {"window": {"kind": "cube", "d": 2, "L": 5.0}, "replicates": 1},
    ("growth-exact", 1): {"window": {"kind": "cube", "d": 2, "L": 4.0}, "replicates": 1},
    ("small-brute", 0): {"replicates": 4},
}


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """One small run directory per pipeline, made by the markopt CLI."""
    runs = {}
    for (name, index), changes in SMALL.items():
        pipeline = WORKLOADS[name][index]
        spec = dict(pipeline.spec, seed=3, **changes)
        base = tmp_path_factory.mktemp(f"{name}-{index}")
        spec_path = base / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = str(base / "run")
        for command in pipeline.commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--spec", str(spec_path), "--out", out]) == 0
        runs[(name, index)] = (pipeline, spec, out)
    return runs


def _edit(out: str, sub: str, edit) -> None:
    """Apply edit to the point list of replicate 0 in one output subdirectory."""
    path = os.path.join(out, sub, "rep_00000.json")
    with open(path) as fh:
        cfg = json.load(fh)
    edit(cfg["points"])
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def _first(out: str, sub: str, test) -> int:
    with open(os.path.join(out, sub, "rep_00000.json")) as fh:
        return next(i for i, p in enumerate(json.load(fh)["points"]) if test(p["opt"]))


def flip_sign(sub):
    def corrupt(out):
        k = _first(out, sub, lambda opt: opt["sign"] != "0")
        _edit(out, sub, lambda points: points[k]["opt"].update(sign="0"))

    return corrupt


def shift_weights(out):
    def shift(points):
        # +5 on both weights of site 0 raises the optimum by more than 4
        base = points[0]["base"]
        base["weights"] = [w + 5.0 for w in base["weights"]]

    _edit(out, "configs", shift)


def flip_retain(sub):
    def corrupt(out):
        k = _first(out, sub, lambda opt: opt["retain"])
        _edit(out, sub, lambda points: points[k]["opt"].update(retain=False))

    return corrupt


def shift_retained_grain(out):
    k = _first(out, "marked", lambda opt: opt["retain"])

    def shift(points):
        points[k]["base"]["grain"] += 0.3

    _edit(out, "configs", shift)


def shift_radius(out):
    def shift(points):
        points[0]["opt"]["radius"] += 1e-3

    _edit(out, "exact", shift)


def zero_radius(out):
    _edit(out, "exact", lambda points: points[0]["opt"].update(radius=0.0))


def scale_prob(out):
    def scale(points):
        points[0]["opt"]["prob"] *= 0.9

    _edit(out, "exact", scale)


def turn_offset(out):
    def turn(points):
        x, y = points[0]["base"]["offset"]
        points[0]["base"]["offset"] = [y, -x]

    _edit(out, "configs", turn)


CORRUPTIONS = [
    ("chain-search", 0, "flip_optimized_sign", flip_sign("marked")),
    ("chain-search", 0, "flip_exact_sign", flip_sign("exact")),
    ("chain-search", 0, "shift_weights", shift_weights),
    ("grain-search", 0, "flip_optimized_retain", flip_retain("marked")),
    ("grain-search", 0, "shift_retained_grain", shift_retained_grain),
    ("growth-exact", 0, "shift_lilypond_radius", shift_radius),
    ("growth-exact", 0, "zero_lilypond_radius", zero_radius),
    ("growth-exact", 1, "scale_aloha_prob", scale_prob),
    ("growth-exact", 1, "turn_aloha_offset", turn_offset),
    ("small-brute", 0, "flip_exact_retain", flip_retain("exact")),
    ("small-brute", 0, "shift_retained_grain", shift_retained_grain),
]


@pytest.mark.parametrize("key", sorted(SMALL), ids=lambda k: f"{k[0]}-{k[1]}")
def test_clean_output_passes(clean_runs, key):
    pipeline, spec, out = clean_runs[key]
    pipeline.check(out, spec)


@pytest.mark.parametrize(
    "name,index,label,corrupt", CORRUPTIONS, ids=[c[2] for c in CORRUPTIONS]
)
def test_corrupted_output_fails(clean_runs, tmp_path, name, index, label, corrupt):
    pipeline, spec, out = clean_runs[(name, index)]
    broken = str(tmp_path / "broken")
    shutil.copytree(out, broken)
    corrupt(broken)
    with pytest.raises(CheckFailed):
        pipeline.check(broken, spec)


def test_traced_counts_repeat(capsys):
    """Two traced runs of one seed report identical per-layer counts."""
    from tracing import COUNT_METRICS

    counts = []
    for _ in range(2):
        argv = ["--workload", "chain-search", "--seed", "5", "--seconds", "0", "--trace", "1"]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({name: result["metrics"][name]["value"] for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["models.score_calls"] > 0
