"""Command line driver for reproducible marking experiments.

A JSON experiment spec names the window, the score model, the input process
and the marking policies; the subcommands then stage configurations,
markings and estimates into an output directory as JSON plus a normalized
results.csv.  Reruns with the same spec and seed are byte-identical up to
the elapsed_ms column, whatever the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

from . import exact
from .core import (
    Configuration,
    RadiusMark,
    UnsupportedModelError,
    ValidationError,
    Window,
    WorkCapError,
    dump_configuration,
    load_configuration,
    substream_id,
    window_from_json,
    window_to_json,
)
from .estimate import (
    _SEARCH_STREAM,
    Policy,
    ReplicateRecord,
    map_replicates,
    parse_policy,
    read_results_csv,
    record_to_row,
    run_replicate,
    sample_configuration,
    scored_record,
    search_params_from_json,
    summarize_records,
    write_json,
    write_results_csv,
)
from .models import MODEL_KINDS, ScoreModel, build_model
from .optimize import SearchParams, initialize_marks, local_search

@dataclass
class ExperimentSpec:
    name: str
    window: Window
    model: ScoreModel
    intensity: float | None
    policies: list[Policy]
    search: SearchParams
    replicates: int
    seed: int


def load_experiment_spec(path: str) -> ExperimentSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"spec file not found: {path}")
    except json.JSONDecodeError as err:
        raise ValidationError(f"spec is not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise ValidationError("spec must be a JSON object")
    allowed = {"name", "window", "model", "intensity", "policies", "search", "replicates", "seed"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError(f"unknown spec fields {unknown}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("spec needs a non-empty string name")
    window = window_from_json(obj.get("window"))
    model_obj = obj.get("model")
    if not isinstance(model_obj, dict) or "kind" not in model_obj:
        raise ValidationError("spec needs a model object with a kind")
    kind = model_obj["kind"]
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    params = {k: v for k, v in model_obj.items() if k != "kind"}
    for key in ("popularity",):
        if key in params and isinstance(params[key], list):
            params[key] = tuple(params[key])
    try:
        model = build_model(kind, **params)
    except TypeError as err:
        raise ValidationError(f"bad model parameters: {err}")
    model.validate_for_window(window)
    intensity = obj.get("intensity")
    if window.kind == "cube":
        if not isinstance(intensity, (int, float)) or not intensity > 0.0:
            raise ValidationError("cube windows need a positive intensity")
        intensity = float(intensity)
    elif intensity is not None:
        raise ValidationError("graph windows take no intensity")
    policies_obj = obj.get("policies", [])
    if not isinstance(policies_obj, list):
        raise ValidationError("policies must be a list")
    policies = [parse_policy(p) for p in policies_obj]
    search = search_params_from_json(obj.get("search"))
    replicates = obj.get("replicates", 20)
    if not isinstance(replicates, int) or replicates < 0:
        raise ValidationError(f"replicates must be a nonnegative integer, got {replicates!r}")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return ExperimentSpec(name, window, model, intensity, policies, search, replicates, seed)


def _model_manifest(model: ScoreModel) -> dict:
    out = {"kind": model.kind}
    for f in fields(model):
        if f.name in ("kind", "sign_regime"):
            continue
        value = getattr(model, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _inputs(spec: ExperimentSpec, seed: int, search: SearchParams | None = None) -> dict:
    """What a command computed from, as its summary or manifest reads it back;
    optimize also records its search parameters."""
    obj = {"window": window_to_json(spec.window), "model": _model_manifest(spec.model),
           "intensity": spec.intensity, "seed": seed}
    if search is not None:
        obj["search"] = asdict(search)
    return json.loads(json.dumps(obj))


def write_manifest(out_dir: str, spec: ExperimentSpec, seed: int) -> None:
    manifest = dict(_inputs(spec, seed), name=spec.name, replicates=spec.replicates)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _rep_path(out_dir: str, folder: str, replicate: int) -> str:
    return os.path.join(out_dir, folder, f"rep_{replicate:05d}.json")


def _load_replicate_config(out_dir: str, spec: ExperimentSpec, replicate: int) -> Configuration:
    path = _rep_path(out_dir, "configs", replicate)
    if not os.path.exists(path):
        raise ValidationError(f"missing {path}; run generate into this directory first")
    c = load_configuration(path)
    if c.model_id != spec.model.kind:
        raise ValidationError(
            f"{path} holds a {c.model_id} configuration, spec wants {spec.model.kind}"
        )
    return c


def cmd_generate(spec: ExperimentSpec, out_dir: str, seed: int, threads: int) -> int:
    os.makedirs(os.path.join(out_dir, "configs"), exist_ok=True)
    for k in range(spec.replicates):
        c = sample_configuration(spec.model, spec.window, spec.intensity, seed, k)
        dump_configuration(c, _rep_path(out_dir, "configs", k))
    write_manifest(out_dir, spec, seed)
    print(f"generated {spec.replicates} configurations in {out_dir}/configs")
    return 0


def cmd_optimize(spec: ExperimentSpec, out_dir: str, seed: int, threads: int) -> int:
    os.makedirs(os.path.join(out_dir, "marked"), exist_ok=True)
    summary_path = os.path.join(out_dir, "optimize_summary.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)  # a summary must not outlive a run that fails halfway

    def worker(k: int):
        start = time.perf_counter()
        c = _load_replicate_config(out_dir, spec, k)
        params = replace(spec.search, seed=substream_id(seed, _SEARCH_STREAM, k))
        initial = initialize_marks(c, spec.model, params)
        final, trace = local_search(initial, spec.model, params)
        dump_configuration(final, _rep_path(out_dir, "marked", k))
        record = scored_record(final, spec.model, k, seed, start)
        info = {
            "replicate": k,
            "certificate": trace.certificate,
            "rounds": len(trace.steps),
            "swap_evaluations": trace.swap_evaluations,
            "initial_total": trace.initial_total,
            "final_total": record.total_score,
        }
        return record, info

    results = map_replicates(worker, spec.replicates, threads)
    rows = [record_to_row(spec.name, "local-search", rec) for rec, _ in results]
    write_results_csv(os.path.join(out_dir, "results.csv"), rows)
    certificates: dict[str, int] = {}
    for _, info in results:
        certificates[info["certificate"]] = certificates.get(info["certificate"], 0) + 1
    write_json(
        summary_path,
        {
            "certificates": certificates,
            "traces": [info for _, info in results],
            "inputs": _inputs(spec, seed, spec.search),
        },
    )
    write_manifest(out_dir, spec, seed)
    print(f"optimized {spec.replicates} replicates; certificates: {certificates}")
    return 0


def exact_marking(c: Configuration, model: ScoreModel) -> tuple[Configuration, dict]:
    """Best available certified marking for one configuration."""
    kind = model.kind
    if kind == "matching":
        result = exact.matching_optimum(c)
        return result.configuration, {
            "method": "permutations",
            "value": result.value,
            "multiplicity": result.multiplicity,
        }
    if kind in ("hardcore", "caching", "wr_line", "wr_tree"):
        try:
            result = exact.brute_force_optimum(c, model, work_cap=10**6)
        except WorkCapError:
            if kind != "wr_line":
                raise
            resolution = exact.wr_unique_marking(c)
            marked = exact.wr_marks_to_configuration(c, resolution.marks)
            return marked, {
                "method": "chain-dp",
                "anchors": len(resolution.anchors),
                "segments": len(resolution.segments),
                "flags": resolution.flags,
            }
        marked = c.with_opt_marks(dict(enumerate(result.marks)))
        return marked, {
            "method": "brute",
            "value": result.value,
            "multiplicity": result.multiplicity,
        }
    if kind == "lilypond":
        if c.n_points < 2:
            # no growth partner: radius 0, as oracle:lilypond marks it
            marked = c.with_opt_marks({i: RadiusMark(0.0) for i in range(c.n_points)})
            return marked, {"method": "growth", "residual": 0.0}
        result = exact.lilypond_solve(c)
        marked = exact.lilypond_radii_configuration(c, result.radii)
        return marked, {"method": "growth", "residual": result.residual}
    if kind == "aloha":
        marked = exact.aloha_optimal_marking(c, model.beta)
        return marked, {"method": "separable-argmax"}
    raise UnsupportedModelError(f"no exact route for {kind}")


def cmd_exact(spec: ExperimentSpec, out_dir: str, seed: int, threads: int) -> int:
    os.makedirs(os.path.join(out_dir, "exact"), exist_ok=True)
    summary_path = os.path.join(out_dir, "exact_summary.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)  # a summary must not outlive a run that fails halfway

    def worker(k: int):
        start = time.perf_counter()
        c = _load_replicate_config(out_dir, spec, k)
        marked, info = exact_marking(c, spec.model)
        dump_configuration(marked, _rep_path(out_dir, "exact", k))
        return scored_record(marked, spec.model, k, seed, start), {"replicate": k, **info}

    results = map_replicates(worker, spec.replicates, threads)
    rows = [record_to_row(spec.name, "exact", rec) for rec, _ in results]
    write_results_csv(os.path.join(out_dir, "results_exact.csv"), rows)
    write_json(
        summary_path,
        {"solutions": [info for _, info in results], "inputs": _inputs(spec, seed)},
    )
    write_manifest(out_dir, spec, seed)
    print(f"solved {spec.replicates} replicates exactly")
    return 0


# exact route -> the oracle policy that runs the same computation
_ROUTE_ORACLES = {"brute": "brute", "chain-dp": "wr-chain", "growth": "lilypond",
                  "separable-argmax": "aloha", "permutations": "matching"}


def _stored_markings(out_dir: str, spec: ExperimentSpec, seed: int, policy: Policy) -> dict:
    """Replicate -> file in out_dir holding policy's marking of it, for each replicate whose
    summary records the same inputs and, for an oracle, the route that the oracle runs."""
    if policy.name == "local-search":
        name, folder, key = "optimize_summary.json", "marked", "traces"
        inputs = _inputs(spec, seed, policy.search)
    elif policy.name == "oracle":
        name, folder, key, inputs = "exact_summary.json", "exact", "solutions", _inputs(spec, seed)
    else:
        return {}
    try:
        with open(os.path.join(out_dir, name)) as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        return {}
    if summary.get("inputs") != inputs:
        return {}
    return {
        e["replicate"]: _rep_path(out_dir, folder, e["replicate"])
        for e in summary[key]
        if policy.name == "local-search" or _ROUTE_ORACLES.get(e["method"]) == policy.oracle
    }


def cmd_estimate(spec: ExperimentSpec, out_dir: str, seed: int, threads: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    policies = [replace(p, search=p.search or spec.search) if p.name == "local-search" else p
                for p in spec.policies]
    stored = [_stored_markings(out_dir, spec, seed, p) for p in policies]

    def worker(k: int) -> list[ReplicateRecord]:
        c = sample_configuration(spec.model, spec.window, spec.intensity, seed, k)
        return [
            run_replicate(spec.model, spec.window, p, spec.intensity, seed, k, c, files.get(k))
            for p, files in zip(policies, stored)
        ]

    by_replicate = map_replicates(worker, spec.replicates if policies else 0, threads)
    rows = []
    summary = {}
    for i, policy in enumerate(policies):
        records = [recs[i] for recs in by_replicate]
        rows.extend(record_to_row(spec.name, policy.label, r) for r in records)
        est = summarize_records(records, spec.window)
        summary[policy.label] = {
            "mean": est.mean,
            "stderr": est.stderr,
            "ci95": list(est.ci95),
            "replicates": est.replicates,
            "inadmissible_fraction": est.inadmissible_fraction,
        }
    write_results_csv(os.path.join(out_dir, "results.csv"), rows)
    write_json(os.path.join(out_dir, "estimate_summary.json"), summary)
    write_manifest(out_dir, spec, seed)
    for label, entry in summary.items():
        print(f"{spec.name} {label}: mean {entry['mean']:.6g} +- {entry['stderr']:.2g}")
    if not summary:
        print(f"{spec.name}: no policies requested")
    return 0


def _read_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise ValidationError(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def _abs_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b)


def cmd_compare(dir_a: str, dir_b: str, report_path: str | None) -> int:
    name_a = _read_manifest(dir_a).get("name")
    name_b = _read_manifest(dir_b).get("name")
    if name_a != name_b:
        raise ValidationError(f"experiment names differ: {name_a!r} vs {name_b!r}")
    rows_a = {}
    rows_b = {}
    for out_dir, rows in ((dir_a, rows_a), (dir_b, rows_b)):
        path = os.path.join(out_dir, "results.csv")
        if not os.path.exists(path):
            raise ValidationError(f"missing {path}")
        for row in read_results_csv(path):
            rows[(row["policy"], row["replicate"])] = row
    shared = sorted(set(rows_a) & set(rows_b))
    max_total_gap = 0.0
    max_points_gap = 0
    admissible_mismatches = 0
    for key in shared:
        ra, rb = rows_a[key], rows_b[key]
        max_total_gap = max(max_total_gap, _abs_gap(ra["total_score"], rb["total_score"]))
        max_points_gap = max(max_points_gap, abs(ra["n_points"] - rb["n_points"]))
        admissible_mismatches += ra["admissible"] != rb["admissible"]
    report = {
        "experiment": name_a,
        "rows_compared": len(shared),
        "only_in_a": len(rows_a) - len(shared),
        "only_in_b": len(rows_b) - len(shared),
        "max_total_score_gap": max_total_gap,
        "max_n_points_gap": max_points_gap,
        "admissible_mismatches": admissible_mismatches,
    }
    if report_path:
        write_json(report_path, report)
    print(
        f"compared {len(shared)} rows: max total score gap {max_total_gap:.3g}, "
        f"{admissible_mismatches} admissibility mismatches"
    )
    return 0


def _resolve_threads(value: int | None) -> int:
    if value is None:
        env = os.environ.get("MARKOPT_THREADS")
        if env is None:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"MARKOPT_THREADS must be an integer, got {env!r}")
    if value < 1:
        raise ValidationError(f"threads must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markopt",
        description="simulate, optimize and estimate stationary markings of point processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("generate", "sample replicate configurations"),
        ("optimize", "run local search on generated configurations"),
        ("exact", "solve generated configurations with certified routes"),
        ("estimate", "estimate score intensities under the spec policies"),
    ):
        q = sub.add_parser(name, help=text)
        q.add_argument("--spec", required=True, help="experiment spec JSON")
        q.add_argument("--out", required=True, help="output directory")
        q.add_argument("--seed", type=int, default=None, help="override the spec seed")
        q.add_argument("--threads", type=int, default=None, help="worker threads (or MARKOPT_THREADS)")
    q = sub.add_parser("compare", help="diff the results of two runs")
    q.add_argument("dir_a")
    q.add_argument("dir_b")
    q.add_argument("--report", default=None, help="write the comparison JSON here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.dir_a, args.dir_b, args.report)
        spec = load_experiment_spec(args.spec)
        seed = spec.seed if args.seed is None else args.seed
        if not 0 <= seed < 2**64:
            raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
        threads = _resolve_threads(args.threads)
        handler = {
            "generate": cmd_generate,
            "optimize": cmd_optimize,
            "exact": cmd_exact,
            "estimate": cmd_estimate,
        }[args.command]
        return handler(spec, args.out, seed, threads)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnsupportedModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except WorkCapError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 3
    except AssertionError as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
