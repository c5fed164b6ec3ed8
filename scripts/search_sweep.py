"""Scaling sweep of one hard-core local search.

Times one exhaustive ``k_max = 1`` local search on 2-d hard-core grains with
radii U(0.2, 0.6) at unit intensity, at n of about 80, 800 and 2500 points.
For each size it records the median over three runs of the total and
per-round time (a round is one swap scan, so the final scan that finds no
swap counts too), the time to build the model's interaction graph on a fresh
configuration, and ``swap_evaluations``.  When the model has an
``interaction_neighbors`` hook, it also builds the interaction graph of a
configuration of about 8000 points in a fresh child process and records the
child's peak RSS and the tracemalloc peak of the build, next to the size of
an n x n float matrix.

It reads markopt only through its public API, so it runs against any markopt
source tree on PYTHONPATH.  Results go under ``--label`` into
BENCH_interaction_graph.json in the working directory; the entries of other
labels in that file are kept, so one file can hold the figures of two trees:

    PYTHONPATH=<parent>/src python3 scripts/search_sweep.py --label parent
    PYTHONPATH=src python3 scripts/search_sweep.py --label change
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
import tracemalloc

import numpy as np

from markopt.core import Configuration, periodic_cube
from markopt.estimate import sample_configuration
from markopt.models import HardcoreModel
from markopt.optimize import SearchParams, local_search

MODEL = HardcoreModel(radius_lo=0.2, radius_hi=0.6)
SEED = 1
SIZES = (80, 800, 2500)
REPEATS = 3
RSS_N = 8000
OUT = "BENCH_interaction_graph.json"


def grains(n: int) -> Configuration:
    """Poisson grains at unit intensity on a square of area n."""
    return sample_configuration(MODEL, periodic_cube(2, math.sqrt(n)), 1.0, SEED, 0)


def graph_build_s(c: Configuration) -> float | None:
    """Seconds to build the interaction graph of a fresh copy of c, or None
    when the model has no such hook."""
    build = getattr(MODEL, "interaction_neighbors", None)
    if build is None:
        return None
    fresh = Configuration(c.window, c.model_id, c.points)
    start = time.perf_counter()
    build(fresh)
    return time.perf_counter() - start


def search_point(n: int) -> dict:
    params = SearchParams(k_max=1, mode="exhaustive")
    totals, builds = [], []
    for _ in range(REPEATS):
        c = grains(n)
        start = time.perf_counter()
        _, trace = local_search(c, MODEL, params)
        totals.append(time.perf_counter() - start)
        builds.append(graph_build_s(c))
    total = statistics.median(totals)
    scans = len(trace.steps) + 1
    return {
        "n": c.n_points,
        "total_s": total,
        "total_s_runs": totals,
        "rounds": scans,
        "round_ms": total / scans * 1e3,
        "graph_build_s": None if builds[0] is None else statistics.median(builds),
        "swap_evaluations": trace.swap_evaluations,
    }


def graph_build_rss(n: int) -> dict:
    """Peak figures of one interaction-graph build, in this process."""
    c = grains(n)
    before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    start = time.perf_counter()
    graph = MODEL.interaction_neighbors(c)
    elapsed = time.perf_counter() - start
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n": c.n_points,
        "build_s_traced": elapsed,
        "edges": sum(len(row) for row in graph),
        "peak_rss_mb_before_build": before_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracemalloc_peak_mb": traced_peak / 2**20,
        "n_by_n_matrix_mb": c.n_points**2 * 8 / 2**20,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this tree's results")
    args = parser.parse_args()
    entry = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": REPEATS,
        "search": [search_point(n) for n in SIZES],
    }
    if hasattr(MODEL, "interaction_neighbors"):
        # a fresh interpreter, so the peak RSS is the build's and not the sweep's
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            entry["graph_build_rss"] = pool.apply(graph_build_rss, (RSS_N,))
    results = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            results = json.load(fh)
    results[args.label] = entry
    with open(OUT, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for point in entry["search"]:
        print(f"{args.label} n={point['n']}: {point['total_s']:.3f} s, "
              f"{point['round_ms']:.3f} ms/round, {point['swap_evaluations']} swap evaluations")


if __name__ == "__main__":
    main()
