"""Scaling sweep of one exhaustive local search.

Times one exhaustive ``k_max = 1`` local search at three sizes each:

- 2-d hard-core grains with radii U(0.2, 0.6) at unit intensity, n of about
  80, 800 and 8000 points, from all grains deleted;
- Widom-Rowlinson sign chains (``wr_line``) of 100, 1000 and 10^4 sites,
  from seeded random signs.

Each run times two parts on a fresh configuration: the build of the
model's interaction graph, then the search, which reuses that graph.  For
each size the sweep records the medians over three runs of the total and of
the build, the number of scans (one per round, and the final scan that
finds no swap) and ``swap_evaluations``.  ``round_ms`` is the total time per
scan and ``search_round_ms`` the search time after the build per scan: when
a round costs its affected sets and not n, it stays flat as n grows.  It
also builds the hard-core interaction graph of a configuration of about 8000
points in a fresh child process and records the child's peak RSS and the
tracemalloc peak of the build, next to the size of an n x n float matrix.

It reads markopt only through its public API, so it runs against any markopt
source tree on PYTHONPATH.  Results go under ``--label`` into
BENCH_search_rounds.json in the working directory; the entries of other
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

from markopt.core import Configuration, periodic_cube, sample_weighted_line
from markopt.estimate import sample_configuration
from markopt.models import HardcoreModel, WidomRowlinsonModel
from markopt.optimize import SearchParams, local_search

HARDCORE = HardcoreModel(radius_lo=0.2, radius_hi=0.6)
CHAIN = WidomRowlinsonModel(graph="line")
SEED = 1
REPEATS = 3
RSS_N = 8000
OUT = "BENCH_search_rounds.json"


def grains(n: int) -> Configuration:
    """Poisson grains at unit intensity on a square of area n."""
    return sample_configuration(HARDCORE, periodic_cube(2, math.sqrt(n)), 1.0, SEED, 0)


# sweep name -> (model, configuration of size n, sizes)
SWEEPS = {
    "hardcore": (HARDCORE, grains, (80, 800, 8000)),
    "wr_line": (CHAIN, lambda n: sample_weighted_line(n, SEED), (100, 1000, 10**4)),
}


def search_point(model, c: Configuration) -> dict:
    """Medians of searches on fresh copies of c, each timed in two parts:
    the interaction-graph build, then the search, which reuses it."""
    params = SearchParams(k_max=1, mode="exhaustive", seed=SEED)
    totals, builds, searches = [], [], []
    for _ in range(REPEATS):
        fresh = Configuration(c.window, c.model_id, c.points)
        start = time.perf_counter()
        model.interaction_neighbors(fresh)
        built = time.perf_counter()
        _, trace = local_search(fresh, model, params)
        end = time.perf_counter()
        totals.append(end - start)
        builds.append(built - start)
        searches.append(end - built)
    total = statistics.median(totals)
    scans = len(trace.steps) + 1
    return {
        "n": c.n_points,
        "total_s": total,
        "total_s_runs": totals,
        "rounds": scans,
        "round_ms": total / scans * 1e3,
        "graph_build_s": statistics.median(builds),
        "search_round_ms": statistics.median(searches) / scans * 1e3,
        "swap_evaluations": trace.swap_evaluations,
    }


def graph_build_rss(n: int) -> dict:
    """Peak figures of one interaction-graph build, in this process."""
    c = grains(n)
    before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    start = time.perf_counter()
    graph = HARDCORE.interaction_neighbors(c)
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
    }
    # a fresh interpreter, so the peak RSS is the build's; it runs first,
    # since on Linux a child's peak RSS starts from its parent's RSS at the fork
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        entry["graph_build_rss"] = pool.apply(graph_build_rss, (RSS_N,))
    for name, (model, build, sizes) in SWEEPS.items():
        entry[name] = [search_point(model, build(n)) for n in sizes]
    results = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            results = json.load(fh)
    results[args.label] = entry
    with open(OUT, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in SWEEPS:
        for point in entry[name]:
            print(f"{args.label} {name} n={point['n']}: {point['total_s']:.3f} s, "
                  f"{point['search_round_ms']:.3f} ms/round after the graph build, "
                  f"{point['swap_evaluations']} swap evaluations")


if __name__ == "__main__":
    main()
