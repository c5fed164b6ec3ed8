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
from dataclasses import asdict, dataclass, replace

from . import exact
from .core import (
    Configuration,
    MarkSpaceError,
    UnsupportedModelError,
    ValidationError,
    Window,
    WorkCapError,
    dump_configuration,
    check_field_names,
    json_fits,
    json_typed,
    load_configuration,
    read_json,
    window_from_json,
    window_to_json,
)
from .estimate import (
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
    search_replicate,
    summarize_records,
    write_json,
    write_results_csv,
)
from .models import ScoreModel, build_model
from .optimize import SearchParams

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
    obj = json_typed(read_json(path), dict, "spec")
    check_field_names(ExperimentSpec, obj, "spec fields")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("spec needs a non-empty string name")
    window = window_from_json(obj.get("window"))
    model_obj = obj.get("model")
    if not isinstance(model_obj, dict) or "kind" not in model_obj:
        raise ValidationError("spec needs a model object with a kind")
    params = {k: v for k, v in model_obj.items() if k != "kind"}
    try:
        model = build_model(model_obj["kind"], **params)
    except TypeError as err:
        raise ValidationError(f"bad model parameters: {err}")
    model.validate_for_window(window)
    intensity = obj.get("intensity")
    if window.kind == "cube":
        if not (json_fits(intensity, float) and intensity > 0.0):
            raise ValidationError("cube windows need a positive intensity")
        intensity = float(intensity)
    elif intensity is not None:
        raise ValidationError("graph windows take no intensity")
    policies_obj = obj.get("policies", [])
    if not isinstance(policies_obj, list):
        raise ValidationError("policies must be a list")
    policies = [parse_policy(p) for p in policies_obj]
    for p in policies:
        if p.name == "oracle":
            exact.certified_route(p.oracle, model.kind)
    search = search_params_from_json(obj.get("search"))
    replicates = obj.get("replicates", 20)
    if not (json_fits(replicates, int) and replicates >= 0):
        raise ValidationError(f"replicates must be a nonnegative integer, got {replicates!r}")
    seed = obj.get("seed", 0)
    if not (json_fits(seed, int) and 0 <= seed < 2**64):
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return ExperimentSpec(name, window, model, intensity, policies, search, replicates, seed)


def _inputs(spec: ExperimentSpec, seed: int, search: SearchParams | None = None) -> dict:
    """What a command computed from, as its summary or manifest reads it back;
    optimize also records its search parameters."""
    model = {"kind": spec.model.kind, **asdict(spec.model)}
    obj = {"window": window_to_json(spec.window), "model": model,
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


# command -> (folder of its markings, list key of its summary, results file, policy label)
_STAGES = {
    "optimize": ("marked", "traces", "results.csv", "local-search"),
    "exact": ("exact", "solutions", "results_exact.csv", "exact"),
}


def _mark_replicates(spec: ExperimentSpec, out_dir: str, seed: int, threads: int,
                     command: str, mark) -> list[tuple[ReplicateRecord, dict]]:
    """The stage that optimize and exact share: delete the stale summary, then
    load, mark, dump and score each replicate, and write the results file.
    mark(c, k) returns the marking of replicate k and its summary entry."""
    folder, _, results_name, label = _STAGES[command]
    os.makedirs(os.path.join(out_dir, folder), exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        # a summary must not outlive a run that fails halfway
        os.remove(os.path.join(out_dir, f"{command}_summary.json"))

    def worker(k: int):
        start = time.perf_counter()
        marked, info = mark(_load_replicate_config(out_dir, spec, k), k)
        dump_configuration(marked, _rep_path(out_dir, folder, k))
        return scored_record(marked, spec.model, k, seed, start), {"replicate": k, **info}

    results = map_replicates(worker, spec.replicates, threads)
    rows = [record_to_row(spec.name, label, rec) for rec, _ in results]
    write_results_csv(os.path.join(out_dir, results_name), rows)
    return results


def cmd_optimize(spec: ExperimentSpec, out_dir: str, seed: int, threads: int) -> int:
    def mark(c: Configuration, k: int) -> tuple[Configuration, dict]:
        final, trace = search_replicate(c, spec.model, spec.search, seed, k)
        return final, {"certificate": trace.certificate, "rounds": len(trace.steps),
                       "swap_evaluations": trace.swap_evaluations,
                       "initial_total": trace.initial_total}

    results = _mark_replicates(spec, out_dir, seed, threads, "optimize", mark)
    certificates: dict[str, int] = {}
    for record, info in results:
        info["final_total"] = record.total_score
        certificates[info["certificate"]] = certificates.get(info["certificate"], 0) + 1
    write_json(
        os.path.join(out_dir, "optimize_summary.json"),
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
    """Best available certified marking for one configuration: the model's own
    oracle, or brute force for the finite mark spaces, and the sign-chain
    program for a wr_line chain too long to enumerate."""
    oracle = model.kind if model.kind in exact.ROUTES else "brute"
    try:
        return exact.oracle_marking(c, model, oracle, work_cap=10**6)
    except WorkCapError:
        if model.kind != "wr_line":
            raise
        return exact.oracle_marking(c, model, "wr-chain")


def cmd_exact(spec: ExperimentSpec, out_dir: str, seed: int, threads: int) -> int:
    results = _mark_replicates(
        spec, out_dir, seed, threads, "exact", lambda c, k: exact_marking(c, spec.model)
    )
    write_json(
        os.path.join(out_dir, "exact_summary.json"),
        {"solutions": [info for _, info in results], "inputs": _inputs(spec, seed)},
    )
    write_manifest(out_dir, spec, seed)
    print(f"solved {spec.replicates} replicates exactly")
    return 0


def _without_search_seed(inputs: object) -> object:
    """Recorded inputs without search.seed, which search_replicate replaces per replicate."""
    search = inputs.get("search") if isinstance(inputs, dict) else None
    return dict(inputs, search=dict(search, seed=None)) if isinstance(search, dict) else inputs


def _stored_markings(out_dir: str, spec: ExperimentSpec, seed: int, policy: Policy) -> dict:
    """Replicate -> file in out_dir holding policy's marking of it, for each replicate whose
    summary records the same inputs and, for an oracle, the route that the oracle runs."""
    if policy.name == "local-search":
        command, inputs = "optimize", _inputs(spec, seed, policy.search)
    elif policy.name == "oracle":
        command, inputs = "exact", _inputs(spec, seed)
    else:
        return {}
    folder, key = _STAGES[command][:2]
    try:
        summary = read_json(os.path.join(out_dir, f"{command}_summary.json"))
    except ValidationError:
        return {}
    if not isinstance(summary, dict) or not isinstance(summary.get(key), list):
        return {}
    if _without_search_seed(summary.get("inputs")) != _without_search_seed(inputs):
        return {}
    return {
        e["replicate"]: _rep_path(out_dir, folder, e["replicate"])
        for e in summary[key]
        if isinstance(e, dict) and isinstance(e.get("replicate"), int)
        and (policy.name == "local-search" or e.get("method") == exact.ROUTES[policy.oracle][0])
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
        summary[policy.label] = asdict(summarize_records(records, spec.window))
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
    return json_typed(read_json(path), dict, path)


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
        for row in read_results_csv(os.path.join(out_dir, "results.csv")):
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
    except (ValidationError, MarkSpaceError, UnsupportedModelError) as err:
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
