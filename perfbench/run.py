"""Benchmark of the markopt pipeline on pinned workloads.

    python3 perfbench/run.py --workload chain-search --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload's markopt commands in this process through
markopt.cli.main (one thread, output under a temporary directory in
.perfbench/) until --seconds have passed, and checks each round's outputs
with perfbench/checks.py before the next round; only the commands are
timed.  Each round draws fresh inputs from a round seed derived from
--seed; a traced run repeats the first round's inputs.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": <commands run>, "failed": <commands that
     did not exit 0>, "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_norm_s,
peak_rss_mb); with --trace 1 they are the per-layer ones of tracing.py, and
the spans and counters go to .perfbench/traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from checks import CheckFailed
from tracing import COUNT_METRICS, Tracer, instrument, layer_metrics, unit
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench")

# On a shared machine every process slows down and speeds up together, by up
# to a fifth over tens of seconds.  A fixed pure-Python loop timed right
# after each round tracks that speed: wall_norm_s is a round's wall time
# rescaled to the speed at which the loop takes REFERENCE_S.
REFERENCE_S = 0.06
_REFERENCE_POINTS = [(i * 0.37 % 10.0, i * 0.73 % 10.0) for i in range(250)]


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime, in clock ticks since boot
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_markopt():
    """markopt from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import markopt
        import markopt.cli
    except ImportError as err:
        sys.exit(f"cannot import markopt from {src}: {err}")
    if not os.path.abspath(markopt.__file__).startswith(src + os.sep):
        sys.exit(f"markopt was imported from {markopt.__file__}, not from {src}")
    return markopt


def _reference_distance(ax: float, ay: float, bx: float, by: float) -> float:
    dx = abs(ax - bx)
    dy = abs(ay - by)
    dx = min(dx, 10.0 - dx)
    dy = min(dy, 10.0 - dy)
    return math.sqrt(dx * dx + dy * dy)


def reference_seconds() -> float:
    """Wall time of the fixed reference loop: 62500 torus distances, no
    container allocation, so the garbage collector never runs inside it."""
    start = time.perf_counter()
    for ax, ay in _REFERENCE_POINTS:
        for bx, by in _REFERENCE_POINTS:
            _reference_distance(ax, ay, bx, by)
    return time.perf_counter() - start


def run_command(cli, argv: list[str]) -> bool:
    """One markopt command; True when it exits 0."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except Exception:  # a crashing command counts as failed, the run goes on
        traceback.print_exc()
        return False


def round_seeds(seed: int):
    g = random.Random(seed)
    while True:
        yield g.getrandbits(32)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    markopt = import_markopt()
    pipelines = WORKLOADS[args.workload]
    os.makedirs(SCRATCH, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        spec_paths = []
        for i, pipeline in enumerate(pipelines):
            spec_paths.append(os.path.join(work_dir, f"spec{i}.json"))
            with open(spec_paths[-1], "w") as fh:
                json.dump(pipeline.spec, fh)
        tracer = Tracer() if args.trace else None
        seeds = round_seeds(args.seed)
        # every round overwrites the same run directories and is checked
        # before the next starts, so the file system holds one round's output
        dirs = [os.path.join(work_dir, f"p{i}") for i in range(len(pipelines))]
        walls: list[float] = []
        refs: list[float] = []  # reference loop time after each round
        command_s: dict[str, list[float]] = {}
        attempted = failed = 0
        correct = True
        with instrument(tracer, markopt) if tracer else contextlib.nullcontext():
            setup_s = seconds_since_process_start()
            loop_start = time.perf_counter()
            first_seed = next(seeds)
            while not walls or time.perf_counter() - loop_start < args.seconds:
                seed = first_seed if tracer or not walls else next(seeds)
                if tracer:
                    tracer.begin_round()
                round_failed, wall = 0, 0.0
                for pipeline, spec_path, out in zip(pipelines, spec_paths, dirs):
                    for command in pipeline.commands:
                        argv = [command, "--spec", spec_path, "--out", out,
                                "--seed", str(seed), "--threads", "1"]
                        start = time.perf_counter()
                        if tracer:
                            ok = tracer.call_in_span(
                                f"cli.{command}", run_command, markopt.cli, argv
                            )
                        else:
                            ok = run_command(markopt.cli, argv)
                        elapsed = time.perf_counter() - start
                        wall += elapsed
                        command_s.setdefault(command, []).append(elapsed)
                        attempted += 1
                        round_failed += not ok
                if tracer:
                    tracer.end_round(wall)
                walls.append(wall)
                refs.append(reference_seconds())
                failed += round_failed
                if round_failed:
                    continue
                for pipeline, out in zip(pipelines, dirs):
                    spec = dict(pipeline.spec, seed=seed)
                    try:
                        pipeline.check(out, spec)
                    except CheckFailed as err:
                        print(f"check failed, seed {seed}, {spec['name']}: {err}", file=sys.stderr)
                        correct = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"{args.workload}: {len(walls)} rounds, wall_s median {statistics.median(walls):.4f} "
            f"min {min(walls):.4f} max {max(walls):.4f}; reference loop median "
            f"{statistics.median(refs):.4f}; per command "
            + ", ".join(f"{c} {statistics.median(v):.4f}" for c, v in command_s.items()),
            file=sys.stderr,
        )
        if tracer:
            metrics, repeated = traced_metrics(tracer)
            correct = correct and repeated
            write_trace(args, tracer, metrics)
            result_metrics = {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()}
        else:
            norm = [wall * REFERENCE_S / ref for wall, ref in zip(walls, refs)]
            result_metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_norm_s": {"value": statistics.median(norm), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    print(json.dumps(dict(result, metrics=result_metrics)))
    return 0 if correct else 1


def traced_metrics(tracer) -> tuple[dict, bool]:
    """Per-layer figures of a traced run: the counts of one round and the
    median of each time over the rounds.  Every round repeats the same
    inputs, so the second value is False when some count differs."""
    per_round = [layer_metrics(r["stats"]) for r in tracer.rounds]
    metrics, repeated = {}, True
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if name in COUNT_METRICS:
            if len(set(values)) > 1:
                print(f"{name} differs between identical rounds: {values}", file=sys.stderr)
                repeated = False
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, repeated


def write_trace(args, tracer, metrics: dict) -> None:
    trace_dir = os.path.join(SCRATCH, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "layer_metrics": metrics,
             "span_fields": ["id", "name", "start", "end", "parent"], "rounds": tracer.rounds},
            fh,
        )
    print(f"trace written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
