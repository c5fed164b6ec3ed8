"""Layer-by-layer cost of markopt, written into three BENCH files.

Grains and dense-route points are Poisson at unit intensity on a 2-d
periodic square of area n (seed 1, replicate 0); chains are ``wr_line``
chains of n sites with seeded weights.

- BENCH_search_rounds.json: one exhaustive ``k_max = 1`` local search on
  hard-core grains with radii U(0.2, 0.6) at n of about 80, 800 and 8000,
  from all grains deleted, and on chains of 100, 1000 and 10^4 sites, from
  seeded random signs.  Each of three runs times, on a fresh copy, the
  interaction-graph build and then the search, which reuses that graph.
  Each row holds the medians of the total and of the build, the scans (one
  per round, and the final scan that finds no swap), ``swap_evaluations``,
  ``round_ms`` (total per scan) and ``search_round_ms`` (search after the
  build per scan: flat in n when a round costs its affected sets and not n).
- BENCH_dense_exact.json: at n of about 250 and 1500, the medians of three
  calls of ``lilypond_solve``, of ``aloha_optimal_marking`` with beta = 4
  and of the Aloha window total of its output: on a fresh configuration
  family, as ``markopt estimate`` scores a stored marking, and on the output
  itself, which shares the family the oracle read, as ``markopt exact`` does.
- BENCH_config_io.json: the medians of 21 calls of sampling, of
  ``dump_configuration`` and of the two halves of a load, ``read_json``
  (``parse_us``) and ``configuration_from_json`` (``decode_us``), on grains
  at n of about 3, 25, 250 and 2500 with every other one retained, and on
  chains of 100 and 10^4 sites with cycling signs.  The dumps overwrite one
  file, as a rerun into the same run directory does.

Two probes record peak memory next to the size of an n x n float matrix: a
hard-core graph build at n of about 8000 (``graph_build_rss``) and one Aloha
exact replicate at n of about 1500 (``aloha_exact_rss``).  Each runs in its
own fresh interpreter, because ``ru_maxrss`` is a high-water mark, and
before the sweeps, because on Linux a child's peak RSS starts from its
parent's RSS at the fork.

The script reads markopt only through names that it has long had, so it
runs against any markopt source tree on PYTHONPATH.  Results go under
``--label`` into the three files in the working directory; the entries of
other labels are kept, so one file holds the figures of two trees:

    PYTHONPATH=<parent>/src python3 scripts/layer_sweep.py --label parent
    PYTHONPATH=src python3 scripts/layer_sweep.py --label change
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
import tempfile
import time
import tracemalloc

import numpy as np

from markopt import Retain, SignMark, dump_configuration
from markopt.core import (
    Configuration,
    configuration_from_json,
    periodic_cube,
    read_json,
    sample_weighted_line,
)
from markopt.estimate import sample_configuration
from markopt.exact import aloha_optimal_marking, lilypond_solve
from markopt.models import AlohaModel, HardcoreModel, LilypondModel, WidomRowlinsonModel
from markopt.optimize import SearchParams, local_search, total_window_score

SEED = 1
REPEATS = 3
IO_REPEATS = 21
BETA = 4.0
HARDCORE = HardcoreModel(radius_lo=0.2, radius_hi=0.6)
CHAIN = WidomRowlinsonModel(graph="line")
ALOHA = AlohaModel(beta=BETA)
LILYPOND = LilypondModel()


def sample(model, n: int) -> Configuration:
    """Poisson points at unit intensity on a square of area n."""
    return sample_configuration(model, periodic_cube(2, math.sqrt(n)), 1.0, SEED, 0)


def fresh(c: Configuration) -> Configuration:
    """c in a new configuration family, so nothing derived from it is cached."""
    return Configuration(c.window, c.model_id, c.points)


def timed(call, args) -> tuple[list[float], list]:
    """Seconds and results of call(a) for each a in args."""
    times, results = [], []
    for a in args:
        start = time.perf_counter()
        results.append(call(a))
        times.append(time.perf_counter() - start)
    return times, results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def matrix_mb(c: Configuration) -> float:
    return c.n_points**2 * 8 / 2**20


def search_row(model, c: Configuration) -> dict:
    copies = [fresh(c) for _ in range(REPEATS)]
    builds, _ = timed(model.interaction_neighbors, copies)
    params = SearchParams(k_max=1, mode="exhaustive", seed=SEED)
    searches, runs = timed(lambda f: local_search(f, model, params), copies)
    totals = [b + s for b, s in zip(builds, searches)]
    trace = runs[-1][1]
    total, scans = statistics.median(totals), len(trace.steps) + 1
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


def dense_row(n: int) -> dict:
    lily, c = sample(LILYPOND, n), sample(ALOHA, n)
    lily_s, _ = timed(lilypond_solve, [fresh(lily) for _ in range(REPEATS)])
    oracle_s, marked = timed(lambda a: aloha_optimal_marking(a, BETA),
                             [fresh(c) for _ in range(REPEATS)])

    def window_total(m):
        return total_window_score(m, ALOHA)

    # the oracle's last output, scored again and again in its own family
    shared_s, shared = timed(window_total, [marked[-1]] * REPEATS)
    fresh_s, totals = timed(window_total, [fresh(marked[-1]) for _ in range(REPEATS)])
    assert len({repr(t) for t in shared + totals}) == 1
    return {
        "lilypond_n": lily.n_points,
        "aloha_n": c.n_points,
        "lilypond_solve_s": statistics.median(lily_s),
        "aloha_optimal_marking_s": statistics.median(oracle_s),
        "aloha_total_fresh_family_s": statistics.median(fresh_s),
        "aloha_total_oracle_output_s": statistics.median(shared_s),
        "aloha_total": shared[0],
    }


def io_row(kind: str, draw, marks, path: str) -> dict:
    def median_us(call) -> float:
        # one warm-up call first: the first dump creates the file
        return statistics.median(timed(lambda _: call(), range(IO_REPEATS + 1))[0][1:]) * 1e6

    sample_us = median_us(draw)
    c = draw()
    c = c.with_opt_marks({i: marks(i) for i in range(c.n_points)})
    dump_us = median_us(lambda: dump_configuration(c, path))
    parse_us = median_us(lambda: read_json(path))
    obj = read_json(path)
    decode_us = median_us(lambda: configuration_from_json(obj))
    assert configuration_from_json(obj) == c
    return {
        "kind": kind,
        "n": c.n_points,
        "bytes": os.path.getsize(path),
        "sample_us": sample_us,
        "dump_us": dump_us,
        "parse_us": parse_us,
        "decode_us": decode_us,
    }


def graph_build_rss(n: int) -> dict:
    """Peak figures of one hard-core interaction-graph build, in this process."""
    c = sample(HARDCORE, n)
    before_mb = peak_rss_mb()
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
        "peak_rss_mb": peak_rss_mb(),
        "tracemalloc_peak_mb": traced_peak / 2**20,
        "n_by_n_matrix_mb": matrix_mb(c),
    }


def aloha_exact_rss(n: int) -> dict:
    """Peak figures of one Aloha exact replicate, in this process."""
    c = sample(ALOHA, n)
    before_mb = peak_rss_mb()
    start = time.perf_counter()
    total_window_score(aloha_optimal_marking(c, BETA), ALOHA)
    elapsed = time.perf_counter() - start
    return {
        "n": c.n_points,
        "replicate_s": elapsed,
        "peak_rss_mb_before_replicate": before_mb,
        "peak_rss_mb": peak_rss_mb(),
        "n_by_n_matrix_mb": matrix_mb(c),
    }


def in_fresh_child(probe, n: int) -> dict:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(probe, (n,))


def write_bench(path: str, label: str, entry: dict) -> None:
    """Store entry under label in the JSON file at path, with this machine's
    processor count and Python and numpy versions; the other labels'
    entries in the file are kept."""
    results = {}
    if os.path.exists(path):
        with open(path) as fh:
            results = json.load(fh)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    results[label] = {**machine, **entry}
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this tree's results")
    label = parser.parse_args().label
    search = {"repeats": REPEATS, "graph_build_rss": in_fresh_child(graph_build_rss, 8000)}
    dense = {"repeats": REPEATS, "aloha_exact_rss": in_fresh_child(aloha_exact_rss, 1500)}
    search["hardcore"] = [search_row(HARDCORE, sample(HARDCORE, n)) for n in (80, 800, 8000)]
    search["wr_line"] = [search_row(CHAIN, sample_weighted_line(n, SEED)) for n in (100, 1000, 10**4)]
    dense["dense"] = [dense_row(n) for n in (250, 1500)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "configuration.json")
        io = [io_row("grains", lambda: sample(HARDCORE, n), lambda i: Retain(i % 2 == 0), path)
              for n in (3, 25, 250, 2500)]
        io += [io_row("chain", lambda: sample_weighted_line(n, SEED), lambda i: SignMark("0+-"[i % 3]), path)
               for n in (100, 10**4)]
    files = {
        "BENCH_search_rounds.json": search,
        "BENCH_dense_exact.json": dense,
        "BENCH_config_io.json": {"repeats": IO_REPEATS, "io": io},
    }
    for path, entry in files.items():
        write_bench(path, label, entry)
        for layer, rows in entry.items():
            for row in [rows] if isinstance(rows, dict) else rows if isinstance(rows, list) else []:
                print(f"{label} {layer}: " + ", ".join(
                    f"{key} {value:.4g}" if isinstance(value, float) else f"{key} {value}"
                    for key, value in row.items() if not isinstance(value, list)))


if __name__ == "__main__":
    main()
