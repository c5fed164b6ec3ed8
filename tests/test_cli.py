"""Command line driver: spec loading, pipelines, exit codes, reproducibility."""

import csv
import json
import math
import os

import pytest

from markopt.cli import (
    _resolve_threads,
    load_experiment_spec,
    main,
)
from markopt.core import ValidationError, load_configuration
from markopt.estimate import read_results_csv
from markopt.exact import ROUTES
from markopt.models import MODEL_KINDS


def write_spec(tmp_path, obj, name="spec.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def wr_line_spec(n=10, replicates=3, seed=7, **extra):
    obj = {
        "name": "wr-smoke",
        "window": {"kind": "line", "n": n},
        "model": {"kind": "wr_line"},
        "policies": ["oracle:wr-chain", "local-search"],
        "search": {"k_max": 2, "mode": "exhaustive"},
        "replicates": replicates,
        "seed": seed,
    }
    obj.update(extra)
    return obj


def hardcore_spec(replicates=4, seed=3):
    return {
        "name": "hc-smoke",
        "window": {"kind": "cube", "d": 1, "L": 6.0},
        "model": {"kind": "hardcore", "radius_lo": 0.1, "radius_hi": 0.4},
        "intensity": 1.0,
        "policies": ["neutral", "all-retain", "local-search"],
        "search": {"k_max": 1, "mode": "exhaustive"},
        "replicates": replicates,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# spec loading


class TestSpecLoading:
    def test_round_trip_fields(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec())
        spec = load_experiment_spec(path)
        assert spec.name == "wr-smoke"
        assert spec.window.kind == "line"
        assert spec.model.kind == "wr_line"
        assert spec.intensity is None
        assert [p.label for p in spec.policies] == ["oracle:wr-chain", "local-search"]
        assert spec.search.k_max == 2
        assert spec.replicates == 3
        assert spec.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_experiment_spec(os.path.join(tmp_path, "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_experiment_spec(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(bogus=1, extra=2))
        with pytest.raises(ValidationError, match=r"unknown spec fields \['bogus', 'extra'\]"):
            load_experiment_spec(path)

    def test_unknown_model_kind(self, tmp_path):
        obj = wr_line_spec()
        obj["model"] = {"kind": "teleport"}
        with pytest.raises(ValidationError, match="unknown model kind"):
            load_experiment_spec(write_spec(tmp_path, obj))

    def test_unknown_model_parameter(self, tmp_path):
        obj = wr_line_spec()
        obj["model"] = {"kind": "wr_line", "wingspan": 3}
        with pytest.raises(ValidationError, match="bad model parameters"):
            load_experiment_spec(write_spec(tmp_path, obj))

    def test_model_window_mismatch(self, tmp_path):
        # path loss exponent must exceed the dimension, checked against the window
        obj = {
            "name": "bad-aloha",
            "window": {"kind": "cube", "d": 2, "L": 10.0},
            "model": {"kind": "aloha", "beta": 1.5},
            "intensity": 1.0,
            "replicates": 1,
            "seed": 0,
        }
        with pytest.raises(ValidationError):
            load_experiment_spec(write_spec(tmp_path, obj))

    def test_graph_window_rejects_intensity(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(intensity=2.0))
        with pytest.raises(ValidationError, match="no intensity"):
            load_experiment_spec(path)

    def test_cube_window_requires_intensity(self, tmp_path):
        obj = hardcore_spec()
        del obj["intensity"]
        with pytest.raises(ValidationError, match="positive intensity"):
            load_experiment_spec(write_spec(tmp_path, obj))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "zero"])
    def test_bad_seed(self, tmp_path, seed):
        path = write_spec(tmp_path, wr_line_spec(seed=seed))
        with pytest.raises(ValidationError, match="seed"):
            load_experiment_spec(path)

    def test_bad_replicates(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(replicates=-2))
        with pytest.raises(ValidationError, match="replicates"):
            load_experiment_spec(path)

    def test_unknown_search_parameter(self, tmp_path):
        obj = wr_line_spec()
        obj["search"] = {"k_max": 2, "warp": True}
        with pytest.raises(ValidationError, match=r"unknown search parameters \['warp'\]"):
            load_experiment_spec(write_spec(tmp_path, obj))

    def test_policy_with_inline_search(self, tmp_path):
        obj = hardcore_spec()
        obj["policies"] = [{"name": "local-search", "search": {"k_max": 2}}]
        spec = load_experiment_spec(write_spec(tmp_path, obj))
        assert spec.policies[0].search.k_max == 2

    def test_unknown_policy_field(self, tmp_path):
        obj = hardcore_spec()
        obj["policies"] = [{"name": "local-search", "sweep": 4}]
        with pytest.raises(ValidationError, match="unknown policy fields"):
            load_experiment_spec(write_spec(tmp_path, obj))

    def test_defaults(self, tmp_path):
        obj = {
            "name": "defaults",
            "window": {"kind": "line", "n": 5},
            "model": {"kind": "wr_line"},
        }
        spec = load_experiment_spec(write_spec(tmp_path, obj))
        assert spec.replicates == 20
        assert spec.seed == 0
        assert spec.policies == []
        assert spec.search.k_max == 1


# ---------------------------------------------------------------------------
# exit codes through main()


class TestExitCodes:
    def test_invalid_spec_is_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, wr_line_spec(intensity=1.0))
        code = main(["generate", "--spec", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_override_out_of_range_is_2(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec())
        code = main(["generate", "--spec", path, "--out", str(tmp_path / "out"), "--seed", "-3"])
        assert code == 2

    def test_optimize_before_generate_is_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, wr_line_spec())
        code = main(["optimize", "--spec", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "run generate" in capsys.readouterr().err

    def test_work_cap_is_3(self, tmp_path, capsys):
        # depth-3 ball has 22 sites and the tree model has no structured fallback
        obj = {
            "name": "tree-too-big",
            "window": {"kind": "tree", "depth": 3},
            "model": {"kind": "wr_tree"},
            "replicates": 1,
            "seed": 1,
        }
        path = write_spec(tmp_path, obj)
        out = str(tmp_path / "out")
        assert main(["generate", "--spec", path, "--out", out]) == 0
        code = main(["exact", "--spec", path, "--out", out])
        assert code == 3
        assert "refused:" in capsys.readouterr().err

    def test_bad_threads_value_is_2(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec())
        code = main(["generate", "--spec", path, "--out", str(tmp_path / "o"), "--threads", "0"])
        assert code == 2

    @pytest.mark.parametrize("where", ["spec", "policy"])
    @pytest.mark.parametrize("command", ["optimize", "estimate"])
    def test_search_epsilon_is_unknown(self, tmp_path, capsys, where, command):
        out = str(tmp_path / "out")
        assert main(["generate", "--spec", write_spec(tmp_path, wr_line_spec()), "--out", out]) == 0
        if where == "spec":
            obj = wr_line_spec(search={"k_max": 2, "mode": "exhaustive", "epsilon": 1e-6})
        else:
            obj = wr_line_spec(policies=[{"name": "local-search", "search": {"epsilon": 1e-6}}])
        path = write_spec(tmp_path, obj, name="epsilon.json")
        capsys.readouterr()
        assert main([command, "--spec", path, "--out", out]) == 2
        assert "unknown search parameters ['epsilon']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "oracle, kind",
        [(o, kind) for o, (_, kinds) in ROUTES.items() for kind in MODEL_KINDS
         if kind not in kinds],
    )
    def test_uncertified_oracle_is_2(self, tmp_path, capsys, oracle, kind):
        window, intensity = {
            "wr_line": ({"kind": "line", "n": 6}, None),
            "wr_tree": ({"kind": "tree", "depth": 1}, None),
            "hardcore": ({"kind": "cube", "d": 1, "L": 6.0}, 1.0),
            "caching": ({"kind": "cube", "d": 1, "L": 3.0}, 1.0),
        }.get(kind, ({"kind": "cube", "d": 2, "L": 4.0}, 0.5))
        obj = {"name": "uncertified", "window": window, "model": {"kind": kind},
               "policies": [f"oracle:{oracle}"], "replicates": 1, "seed": 1}
        if intensity is not None:
            obj["intensity"] = intensity
        path = write_spec(tmp_path, obj)
        assert main(["estimate", "--spec", path, "--out", str(tmp_path / "out")]) == 2
        assert f"error: oracle:{oracle} does not certify {kind}" in capsys.readouterr().err

    def test_uncertified_oracle_is_2_without_replicates(self, tmp_path, capsys):
        obj = dict(hardcore_spec(replicates=0), policies=["neutral", "oracle:aloha"])
        out = tmp_path / "out"
        assert main(["estimate", "--spec", write_spec(tmp_path, obj), "--out", str(out)]) == 2
        assert "error: oracle:aloha does not certify hardcore" in capsys.readouterr().err
        assert not (out / "estimate_summary.json").exists()


class TestThreadResolution:
    def test_explicit_wins(self):
        assert _resolve_threads(4) == 4

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("MARKOPT_THREADS", raising=False)
        assert _resolve_threads(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("MARKOPT_THREADS", "3")
        assert _resolve_threads(None) == 3

    def test_env_not_integer(self, monkeypatch):
        monkeypatch.setenv("MARKOPT_THREADS", "two")
        with pytest.raises(ValidationError, match="MARKOPT_THREADS"):
            _resolve_threads(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            _resolve_threads(0)


# ---------------------------------------------------------------------------
# generate


class TestGenerate:
    def test_layout_and_manifest(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(replicates=3))
        out = tmp_path / "run"
        assert main(["generate", "--spec", path, "--out", str(out)]) == 0
        for k in range(3):
            assert (out / "configs" / f"rep_{k:05d}.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["name"] == "wr-smoke"
        assert manifest["model"]["kind"] == "wr_line"
        assert manifest["replicates"] == 3
        assert manifest["seed"] == 7

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(replicates=3))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--spec", path, "--out", str(out_a)]) == 0
        assert main(["generate", "--spec", path, "--out", str(out_b)]) == 0
        for k in range(3):
            rel = os.path.join("configs", f"rep_{k:05d}.json")
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(replicates=2))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--spec", path, "--out", str(out_a)]) == 0
        assert main(["generate", "--spec", path, "--out", str(out_b), "--seed", "99"]) == 0
        rel = os.path.join("configs", "rep_00000.json")
        assert (out_a / rel).read_bytes() != (out_b / rel).read_bytes()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_configs_load_back(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(n=8, replicates=1))
        out = tmp_path / "run"
        assert main(["generate", "--spec", path, "--out", str(out)]) == 0
        c = load_configuration(str(out / "configs" / "rep_00000.json"))
        assert c.model_id == "wr_line"
        assert c.n_points == 8


# ---------------------------------------------------------------------------
# optimize / exact / estimate pipelines


class TestOptimizePipeline:
    def run_pipeline(self, tmp_path, spec_obj):
        path = write_spec(tmp_path, spec_obj)
        out = tmp_path / "run"
        assert main(["generate", "--spec", path, "--out", str(out)]) == 0
        assert main(["optimize", "--spec", path, "--out", str(out)]) == 0
        assert main(["exact", "--spec", path, "--out", str(out)]) == 0
        return out

    def test_outputs_and_certificates(self, tmp_path):
        out = self.run_pipeline(tmp_path, wr_line_spec(n=8, replicates=3))
        rows = read_results_csv(str(out / "results.csv"))
        assert [r["policy"] for r in rows] == ["local-search"] * 3
        assert all(r["admissible"] for r in rows)
        summary = json.loads((out / "optimize_summary.json").read_text())
        assert sum(summary["certificates"].values()) == 3
        assert all(k.startswith("locally-optimal") for k in summary["certificates"])
        for info in summary["traces"]:
            # null stands for the -inf total of an inadmissible start
            initial = -math.inf if info["initial_total"] is None else info["initial_total"]
            assert info["final_total"] >= initial
        for k in range(3):
            marked = load_configuration(str(out / "marked" / f"rep_{k:05d}.json"))
            assert all(p.opt is not None for p in marked.points)

    def test_search_bounded_by_exact(self, tmp_path):
        out = self.run_pipeline(tmp_path, wr_line_spec(n=10, replicates=4))
        search = {r["replicate"]: r for r in read_results_csv(str(out / "results.csv"))}
        exact_rows = {r["replicate"]: r for r in read_results_csv(str(out / "results_exact.csv"))}
        assert set(search) == set(exact_rows) == {0, 1, 2, 3}
        for k, row in exact_rows.items():
            assert row["policy"] == "exact"
            assert search[k]["total_score"] <= row["total_score"] + 1e-9
        summary = json.loads((out / "exact_summary.json").read_text())
        assert [s["method"] for s in summary["solutions"]] == ["brute"] * 4

    def test_wr_line_falls_back_to_chain_solver(self, tmp_path):
        # 40 sites overflow the enumeration cap but the chain route still answers
        out = self.run_pipeline(tmp_path, wr_line_spec(n=40, replicates=2))
        summary = json.loads((out / "exact_summary.json").read_text())
        methods = {s["method"] for s in summary["solutions"]}
        assert methods == {"chain-dp"}
        for s in summary["solutions"]:
            assert s["segments"] >= 0 and isinstance(s["flags"], list)

    def test_optimize_deterministic_across_threads(self, tmp_path):
        path = write_spec(tmp_path, wr_line_spec(n=10, replicates=4))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, threads in ((out_a, "1"), (out_b, "4")):
            assert main(["generate", "--spec", path, "--out", str(out)]) == 0
            assert main(
                ["optimize", "--spec", path, "--out", str(out), "--threads", threads]
            ) == 0
        rows_a = read_results_csv(str(out_a / "results.csv"))
        rows_b = read_results_csv(str(out_b / "results.csv"))
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("elapsed_ms"), rb.pop("elapsed_ms")
            assert ra == rb
        for k in range(4):
            rel = os.path.join("marked", f"rep_{k:05d}.json")
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        summary = (out_a / "optimize_summary.json").read_bytes()
        assert summary == (out_b / "optimize_summary.json").read_bytes()
        assert main(["optimize", "--spec", path, "--out", str(out_b), "--threads", "1"]) == 0
        assert summary == (out_b / "optimize_summary.json").read_bytes()
        traces = json.loads(summary)["traces"]
        assert all(t["swap_evaluations"] > 0 for t in traces if t["rounds"] > 0)
        assert any(t["rounds"] > 0 for t in traces)

    def test_summaries_are_strict_json(self, tmp_path):
        """Non-finite totals and means are written as null, never as NaN or
        Infinity: every start below is inadmissible, and so is every iid
        random marking of a 60-site chain."""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        obj = wr_line_spec(n=60, replicates=3, policies=["random-iid", "local-search"])
        path = write_spec(tmp_path, obj)
        out = tmp_path / "run"
        for command in ("generate", "optimize", "exact", "estimate"):
            assert main([command, "--spec", path, "--out", str(out)]) == 0
        summaries = {
            name: json.loads((out / name).read_text(), parse_constant=reject)
            for name in ("optimize_summary.json", "exact_summary.json", "estimate_summary.json")
        }
        traces = summaries["optimize_summary.json"]["traces"]
        assert [t["initial_total"] for t in traces] == [None] * 3
        assert all(isinstance(t["final_total"], float) for t in traces)
        random_iid = summaries["estimate_summary.json"]["random-iid"]
        assert random_iid["mean"] is None and random_iid["inadmissible_fraction"] == 1.0


class TestEstimatePipeline:
    def test_estimate_outputs(self, tmp_path):
        path = write_spec(tmp_path, hardcore_spec(replicates=6))
        out = tmp_path / "run"
        assert main(["estimate", "--spec", path, "--out", str(out)]) == 0
        rows = read_results_csv(str(out / "results.csv"))
        assert {r["policy"] for r in rows} == {"neutral", "all-retain", "local-search"}
        summary = json.loads((out / "estimate_summary.json").read_text())
        assert summary["neutral"]["mean"] == 0.0
        assert summary["local-search"]["mean"] >= summary["neutral"]["mean"]
        for entry in summary.values():
            assert entry["replicates"] == 6
            assert entry["ci95"][0] <= entry["mean"] <= entry["ci95"][1]

    def test_estimate_deterministic_across_threads(self, tmp_path):
        path = write_spec(tmp_path, hardcore_spec(replicates=5))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--spec", path, "--out", str(out_a), "--threads", "1"]) == 0
        assert main(["estimate", "--spec", path, "--out", str(out_b), "--threads", "4"]) == 0
        assert (out_a / "estimate_summary.json").read_bytes() == (
            out_b / "estimate_summary.json"
        ).read_bytes()

    def test_threads_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARKOPT_THREADS", "2")
        path = write_spec(tmp_path, hardcore_spec(replicates=3))
        out = tmp_path / "run"
        assert main(["estimate", "--spec", path, "--out", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_no_policies(self, tmp_path, capsys):
        obj = hardcore_spec(replicates=2)
        obj["policies"] = []
        path = write_spec(tmp_path, obj)
        assert main(["estimate", "--spec", path, "--out", str(tmp_path / "run")]) == 0
        assert "no policies requested" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# compare


class TestCompare:
    def make_run(self, tmp_path, label, seed=7, threads="1"):
        path = write_spec(tmp_path, wr_line_spec(n=8, replicates=3, seed=seed), f"{label}.json")
        out = tmp_path / label
        assert main(["generate", "--spec", path, "--out", str(out)]) == 0
        assert main(["optimize", "--spec", path, "--out", str(out), "--threads", threads]) == 0
        return out

    def test_identical_runs_have_zero_gap(self, tmp_path, capsys):
        out_a = self.make_run(tmp_path, "a")
        out_b = self.make_run(tmp_path, "b", threads="4")
        report = tmp_path / "report.json"
        code = main(["compare", str(out_a), str(out_b), "--report", str(report)])
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["experiment"] == "wr-smoke"
        assert obj["rows_compared"] == 3
        assert obj["max_total_score_gap"] == 0.0
        assert obj["max_n_points_gap"] == 0
        assert obj["admissible_mismatches"] == 0
        assert "max total score gap 0" in capsys.readouterr().out

    def test_different_seeds_show_gap(self, tmp_path):
        out_a = self.make_run(tmp_path, "a", seed=7)
        out_b = self.make_run(tmp_path, "b", seed=8)
        report = tmp_path / "report.json"
        assert main(["compare", str(out_a), str(out_b), "--report", str(report)]) == 0
        obj = json.loads(report.read_text())
        assert obj["max_total_score_gap"] > 0.0

    def test_name_mismatch_is_2(self, tmp_path, capsys):
        out_a = self.make_run(tmp_path, "a")
        path = write_spec(tmp_path, wr_line_spec(name="other-experiment"), "other.json")
        out_b = tmp_path / "other"
        assert main(["generate", "--spec", path, "--out", str(out_b)]) == 0
        assert main(["optimize", "--spec", path, "--out", str(out_b)]) == 0
        code = main(["compare", str(out_a), str(out_b)])
        assert code == 2
        assert "names differ" in capsys.readouterr().err

    def test_missing_manifest_is_2(self, tmp_path):
        out_a = self.make_run(tmp_path, "a")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["compare", str(out_a), str(empty)]) == 2

    def test_missing_results_is_2(self, tmp_path):
        out_a = self.make_run(tmp_path, "a")
        path = write_spec(tmp_path, wr_line_spec(), "gen-only.json")
        out_b = tmp_path / "gen-only"
        assert main(["generate", "--spec", path, "--out", str(out_b)]) == 0
        assert main(["compare", str(out_a), str(out_b)]) == 2


# ---------------------------------------------------------------------------
# exact dispatch coverage for the non-enumerable kinds


class TestExactDispatch:
    def test_lilypond_route(self, tmp_path):
        obj = {
            "name": "lily-smoke",
            "window": {"kind": "cube", "d": 2, "L": 8.0},
            "model": {"kind": "lilypond"},
            "intensity": 0.5,
            "replicates": 2,
            "seed": 5,
        }
        path = write_spec(tmp_path, obj)
        out = tmp_path / "run"
        assert main(["generate", "--spec", path, "--out", str(out)]) == 0
        assert main(["exact", "--spec", path, "--out", str(out)]) == 0
        summary = json.loads((out / "exact_summary.json").read_text())
        for s in summary["solutions"]:
            assert s["method"] == "growth"
            assert s["residual"] < 1e-9

    def test_aloha_route(self, tmp_path):
        obj = {
            "name": "aloha-smoke",
            "window": {"kind": "cube", "d": 2, "L": 8.0},
            "model": {"kind": "aloha", "beta": 4.0},
            "intensity": 0.5,
            "replicates": 2,
            "seed": 5,
        }
        path = write_spec(tmp_path, obj)
        out = tmp_path / "run"
        assert main(["generate", "--spec", path, "--out", str(out)]) == 0
        assert main(["exact", "--spec", path, "--out", str(out)]) == 0
        summary = json.loads((out / "exact_summary.json").read_text())
        assert {s["method"] for s in summary["solutions"]} == {"separable-argmax"}
        rows = read_results_csv(str(out / "results_exact.csv"))
        assert all(r["admissible"] for r in rows)

    def test_config_model_mismatch_is_2(self, tmp_path):
        gen = write_spec(tmp_path, wr_line_spec(n=6, replicates=1), "gen.json")
        out = tmp_path / "run"
        assert main(["generate", "--spec", gen, "--out", str(out)]) == 0
        other = {
            "name": "wr-smoke",
            "window": {"kind": "cube", "d": 1, "L": 6.0},
            "model": {"kind": "hardcore", "radius_lo": 0.1, "radius_hi": 0.3},
            "intensity": 1.0,
            "replicates": 1,
            "seed": 7,
        }
        code = main(["optimize", "--spec", write_spec(tmp_path, other, "o.json"), "--out", str(out)])
        assert code == 2


# ---------------------------------------------------------------------------
# estimate reuses the markings of optimize and exact


def lilypond_spec(replicates=3, seed=5, L=8.0, intensity=0.5):
    return {
        "name": "lily-smoke",
        "window": {"kind": "cube", "d": 2, "L": L},
        "model": {"kind": "lilypond"},
        "intensity": intensity,
        "policies": ["oracle:lilypond"],
        "replicates": replicates,
        "seed": seed,
    }


def aloha_spec(replicates=3, seed=5, beta=4.0):
    return {
        "name": "aloha-smoke",
        "window": {"kind": "cube", "d": 2, "L": 6.0},
        "model": {"kind": "aloha", "beta": beta},
        "intensity": 0.5,
        "policies": ["random-iid", "oracle:aloha"],
        "replicates": replicates,
        "seed": seed,
    }


def brute_spec(replicates=4, seed=3):
    obj = hardcore_spec(replicates=replicates, seed=seed)
    obj["policies"] = ["neutral", "local-search", "oracle:brute", "all-retain"]
    return obj


def caching_spec():
    return {
        "name": "caching-smoke",
        "window": {"kind": "cube", "d": 1, "L": 3.0},
        "model": {"kind": "caching"},
        "intensity": 1.0,
        "policies": ["random-iid", "local-search", "oracle:brute"],
        "search": {"k_max": 1, "mode": "exhaustive"},
        "replicates": 3,
        "seed": 5,
    }


def wr_tree_spec():
    return wr_line_spec(
        name="wr-tree-smoke", window={"kind": "tree", "depth": 1}, model={"kind": "wr_tree"},
        policies=["oracle:brute", "local-search"],
    )


REUSE_SPECS = {
    "hardcore": brute_spec,
    "caching": caching_spec,
    "wr-tree": wr_tree_spec,
    "wr-brute-route": lambda: wr_line_spec(n=8, replicates=3),
    "wr-chain-route": lambda: wr_line_spec(n=40, replicates=2),
    "lilypond": lilypond_spec,
    "aloha": aloha_spec,
}


def run_commands(tmp_path, spec_obj, out, commands, threads="1", label="spec"):
    path = write_spec(tmp_path, spec_obj, f"{label}.json")
    for command in commands:
        assert main([command, "--spec", path, "--out", str(out), "--threads", threads]) == 0
    return out


def estimate_outputs(out):
    """results.csv without its last column, elapsed_ms, and estimate_summary.json."""
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].endswith(",elapsed_ms")
    return [line.rsplit(",", 1)[0] for line in lines], (out / "estimate_summary.json").read_bytes()


def fresh_estimate(tmp_path, spec_obj, threads="1"):
    out = run_commands(tmp_path, spec_obj, tmp_path / "fresh", ["estimate"], threads, "fresh")
    return estimate_outputs(out)


class TestEstimateReuse:
    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize("name", sorted(REUSE_SPECS))
    def test_matches_estimate_alone(self, tmp_path, name, threads):
        spec_obj = REUSE_SPECS[name]()
        commands = ["generate", "optimize", "exact", "estimate"]
        if name in ("lilypond", "aloha"):
            commands.remove("optimize")
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", commands, threads)
        assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("hardcore", lambda o: o["search"].update(k_max=2)),
            ("hardcore", lambda o: o["model"].update(radius_lo=0.2, radius_hi=0.5)),
            ("hardcore", lambda o: o.update(intensity=1.5)),
            ("hardcore", lambda o: o.update(seed=4)),
            ("wr-chain-route", lambda o: o["search"].update(k_max=1)),
            ("wr-chain-route", lambda o: o.update(seed=8)),
            ("aloha", lambda o: o["model"].update(beta=3.0)),
        ],
    )
    def test_spec_edited_after_optimize_and_exact(self, tmp_path, name, edit):
        spec_obj = REUSE_SPECS[name]()
        commands = ["generate", "exact"] if name == "aloha" else ["generate", "optimize", "exact"]
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", commands)
        edit(spec_obj)
        run_commands(tmp_path, spec_obj, out, ["estimate"], label="edited")
        assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj)

    @pytest.mark.parametrize(
        "spec_search, policy_search",
        [
            # differs from the search optimize ran: recomputed
            ({"k_max": 1, "mode": "exhaustive"}, {"k_max": 2, "mode": "exhaustive"}),
            # equals the search optimize ran, though the spec's search changed: reused
            ({"k_max": 1, "mode": "randomized"}, {"k_max": 1, "mode": "exhaustive"}),
        ],
    )
    def test_policy_level_search_override(self, tmp_path, spec_search, policy_search):
        spec_obj = brute_spec()
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "optimize"])
        spec_obj["search"] = spec_search
        spec_obj["policies"] = ["neutral", {"name": "local-search", "search": policy_search}]
        run_commands(tmp_path, spec_obj, out, ["estimate"], label="override")
        assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj)

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_deleted_and_swapped_files(self, tmp_path, threads):
        spec_obj = brute_spec(replicates=5)
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "optimize", "exact"])
        for folder in ("marked", "exact"):
            os.remove(out / folder / "rep_00001.json")
            other = (out / folder / "rep_00003.json").read_bytes()
            (out / folder / "rep_00000.json").write_bytes(other)
        run_commands(tmp_path, spec_obj, out, ["estimate"], threads)
        assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj, threads)

    def test_reused_markings_are_not_recomputed(self, tmp_path, monkeypatch):
        import markopt.estimate
        import markopt.exact

        calls = {"search": 0, "brute": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        search, brute = markopt.estimate.local_search, markopt.exact.brute_force_optimum
        monkeypatch.setattr(markopt.estimate, "local_search", counted("search", search))
        monkeypatch.setattr(markopt.exact, "brute_force_optimum", counted("brute", brute))
        spec_obj = brute_spec(replicates=5)
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "optimize", "exact"])
        calls.update(search=0, brute=0)
        run_commands(tmp_path, spec_obj, out, ["estimate"])
        assert calls == {"search": 0, "brute": 0}
        reused = estimate_outputs(out)
        os.remove(out / "marked" / "rep_00002.json")
        os.remove(out / "exact" / "rep_00004.json")
        run_commands(tmp_path, spec_obj, out, ["estimate"])
        assert calls == {"search": 1, "brute": 1}
        assert estimate_outputs(out) == reused
        calls.update(search=0, brute=0)
        fresh_estimate(tmp_path, spec_obj)
        assert calls == {"search": 5, "brute": 5}

    def test_search_seed_edit_keeps_reuse(self, tmp_path, monkeypatch):
        """search.seed changes no marking, so editing it alone leaves every
        stored marking reused and every output byte unchanged."""
        import markopt.estimate

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        search = markopt.estimate.local_search
        monkeypatch.setattr(markopt.estimate, "local_search", counted)
        spec_obj = brute_spec(replicates=5)
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "optimize", "exact"])
        optimize_summary = (out / "optimize_summary.json").read_bytes()
        run_commands(tmp_path, spec_obj, out, ["estimate"])
        reused = estimate_outputs(out)
        spec_obj["search"]["seed"] = 12345
        calls.clear()
        run_commands(tmp_path, spec_obj, out, ["estimate"], label="reseeded")
        assert calls == []
        assert estimate_outputs(out) == reused
        assert (out / "optimize_summary.json").read_bytes() == optimize_summary

    def test_summaries_record_inputs(self, tmp_path):
        spec_obj = brute_spec()
        out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "optimize", "exact"])
        optimize_inputs = json.loads((out / "optimize_summary.json").read_text())["inputs"]
        exact_inputs = json.loads((out / "exact_summary.json").read_text())["inputs"]
        assert optimize_inputs.pop("search") == {
            "k_max": 1, "trial_budget": 1000, "delta_min": 0.0, "max_rounds": 10000,
            "seed": 0, "mode": "exhaustive", "indices": None,
        }
        assert optimize_inputs == exact_inputs == {
            "window": spec_obj["window"],
            "model": {"kind": "hardcore", "radius_lo": 0.1, "radius_hi": 0.4},
            "intensity": 1.0,
            "seed": 3,
        }


def edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def string_grain(marking):
    """The marking with its first point's grain radius written as a string."""
    points = [dict(marking["points"][0], base={"grain": "abc"}), *marking["points"][1:]]
    return dict(marking, points=points)


def radius_opt(index):
    """The marking with the opt mark of its point at index replaced by a radius."""
    def edit(marking):
        points = list(marking["points"])
        points[index] = dict(points[index], opt={"radius": 0.5})
        return dict(marking, points=points)

    return edit


def without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


# case -> (file to edit, or the spec, the edit, the command then run)
MALFORMED_INPUTS = {
    "config-points": ("configs/rep_00001.json", lambda o: dict(o, points=5), "optimize"),
    "config-window": (
        "configs/rep_00001.json", lambda o: dict(o, window=dict(o["window"], L="x")), "exact"
    ),
    "marked-grain": ("marked/rep_00000.json", string_grain, "estimate"),
    "exact-grain": ("exact/rep_00002.json", string_grain, "estimate"),
    "marked-opt-class-first": ("marked/rep_00000.json", radius_opt(0), "estimate"),
    "exact-opt-class-last": ("exact/rep_00002.json", radius_opt(-1), "estimate"),
    "optimize-summary-list": ("optimize_summary.json", lambda o: [], "estimate"),
    "exact-summary-list": ("exact_summary.json", lambda o: [], "estimate"),
    "optimize-summary-no-traces": ("optimize_summary.json", without("traces"), "estimate"),
    "exact-summary-no-solutions": ("exact_summary.json", without("solutions"), "estimate"),
    "search-k_max": (None, lambda o: dict(o, search={"k_max": "2"}), "generate"),
    "search-indices": (None, lambda o: dict(o, search={"indices": 5}), "generate"),
    "radius_lo": (None, lambda o: dict(o, model=dict(o["model"], radius_lo="a")), "generate"),
    "replicates": (None, lambda o: dict(o, replicates=True), "generate"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input(tmp_path, case):
    """A spec value of the wrong type or a malformed configuration exits 2; a
    malformed stored marking or summary, or a marking with opt marks of another
    model's class, is recomputed, as by estimate alone."""
    target, edit, command = MALFORMED_INPUTS[case]
    spec_obj = brute_spec()
    out = tmp_path / "run"
    if target is None:
        spec_obj = edit(spec_obj)
    else:
        run_commands(tmp_path, spec_obj, out, ["generate", "optimize", "exact"])
        edit_json(out / target, edit)
    path = write_spec(tmp_path, spec_obj, "edited.json")
    code = main([command, "--spec", path, "--out", str(out), "--threads", "1"])
    if command == "estimate":
        assert code == 0
        assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj)
    else:
        assert code == 2


def not_utf8(path):
    path.write_bytes(b"\xff" + path.read_bytes())


def spec_directory(path):
    path.unlink()
    path.mkdir()


def truncated(path):
    path.write_bytes(path.read_bytes()[:-5])


def results_edit(edit):
    """Apply edit to each row of results.csv, read as a dict; the header
    follows the edited rows' keys."""

    def apply(path):
        with open(path, newline="") as fh:
            rows = [edit(row) for row in csv.DictReader(fh)]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    return apply


# case -> (file to break, "spec" for the spec, the break, the command then run)
UNREADABLE_FILES = {
    "spec-directory": ("spec", spec_directory, "generate"),
    "spec-not-utf8": ("spec", not_utf8, "generate"),
    "config-not-utf8": ("configs/rep_00001.json", not_utf8, "optimize"),
    "marked-not-utf8": ("marked/rep_00000.json", not_utf8, "estimate"),
    "manifest-list": ("manifest.json", lambda p: p.write_text("[]"), "compare"),
    "manifest-truncated": ("manifest.json", truncated, "compare"),
    "results-no-replicate": ("results.csv", results_edit(without("replicate")), "compare"),
    "results-total-abc": (
        "results.csv", results_edit(lambda row: dict(row, total_score="abc")), "compare"
    ),
    # a field longer than the csv module's limit raises csv.Error
    "results-csv-error": (
        "results.csv", results_edit(lambda row: dict(row, experiment="x" * 200_000)), "compare"
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_file(tmp_path, case):
    """A spec, configuration, manifest or results table that cannot be read,
    decoded or parsed exits 2; such a stored marking is recomputed, as by
    estimate alone."""
    target, edit, command = UNREADABLE_FILES[case]
    spec_obj = brute_spec()
    out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "optimize", "exact"])
    spec_path = tmp_path / "edited.json"
    spec_path.write_text(json.dumps(spec_obj))
    edit(spec_path if target == "spec" else out / target)
    if command == "compare":
        code = main(["compare", str(out), str(out)])
    else:
        code = main([command, "--spec", str(spec_path), "--out", str(out), "--threads", "1"])
    if command == "estimate":
        assert code == 0
        assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj)
    else:
        assert code == 2


def matching_spec(p_blue):
    return dict(hardcore_spec(), model={"kind": "matching", "p_blue": p_blue},
                policies=["random-iid"])


# case -> (spec with one parameter outside its domain, the name in the error)
OUT_OF_DOMAIN = {
    "delta_min-nan": (dict(brute_spec(), search={"k_max": 1, "delta_min": math.nan}), "delta_min"),
    "popularity-nan": (
        dict(caching_spec(), model={"kind": "caching", "popularity": [0.5, math.nan, 0.5]}),
        "popularities",
    ),
    "resolution-zero": (
        dict(caching_spec(), model={"kind": "caching", "resolution": 0.0}), "resolution"
    ),
    "p_blue-5": (matching_spec(5.0), "p_blue"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_parameter_outside_domain(tmp_path, capsys, case):
    spec_obj, name = OUT_OF_DOMAIN[case]
    path = write_spec(tmp_path, spec_obj)
    assert main(["generate", "--spec", path, "--out", str(tmp_path / "run")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def other_class_base(marking):
    """The marking with its first point's base mark of another class."""
    points = [dict(marking["points"][0], base={"color": "red"}), *marking["points"][1:]]
    return dict(marking, points=points)


def one_coordinate_offsets(marking):
    """The marking with every receiver offset cut to its first coordinate, signed."""
    points = [dict(p, base={"offset": [math.copysign(1.0, p["base"]["offset"][0])]})
              for p in marking["points"]]
    return dict(marking, points=points)


@pytest.mark.parametrize("spec_obj, edit, message", [
    (brute_spec(), other_class_base, "model needs GrainRadius"),
    (aloha_spec(), one_coordinate_offsets, "receiver offsets need 2 coordinates"),
], ids=["base-class", "offset-dimension"])
def test_configuration_marks_that_do_not_fit_the_model(tmp_path, capsys, spec_obj, edit, message):
    """A configuration file whose base marks the model cannot read exits 2."""
    out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate"])
    edit_json(out / "configs" / "rep_00000.json", edit)
    path = write_spec(tmp_path, spec_obj, "edited.json")
    for command in ("optimize", "exact"):
        assert main([command, "--spec", path, "--out", str(out), "--threads", "1"]) == 2
        assert message in capsys.readouterr().err


def test_exact_lilypond_with_fewer_than_two_points(tmp_path):
    """Replicates with 0 or 1 point get radius 0 from the growth route, as
    from oracle:lilypond, and estimate reuses them."""
    spec_obj = lilypond_spec(replicates=8, seed=2, L=2.0, intensity=0.4)
    out = run_commands(tmp_path, spec_obj, tmp_path / "run", ["generate", "exact"])
    configs = [load_configuration(str(out / "configs" / f"rep_{k:05d}.json")) for k in range(8)]
    counts = [c.n_points for c in configs]
    assert 0 in counts and 1 in counts and max(counts) >= 2
    solutions = json.loads((out / "exact_summary.json").read_text())["solutions"]
    assert {s["method"] for s in solutions} == {"growth"}
    rows = read_results_csv(str(out / "results_exact.csv"))
    for k, n in enumerate(counts):
        if n < 2:
            marked = load_configuration(str(out / "exact" / f"rep_{k:05d}.json"))
            assert [p.opt.radius for p in marked.points] == [0.0] * n
            assert solutions[k]["residual"] == 0.0
            assert rows[k]["total_score"] == 0.0 and rows[k]["n_points"] == n
    run_commands(tmp_path, spec_obj, out, ["estimate"])
    assert estimate_outputs(out) == fresh_estimate(tmp_path, spec_obj)
