"""Cost of the dense exact routes and of the Aloha window total.

On 2-d cubes at unit intensity with n of about 250 and 1500 points it times:

- ``lilypond_solve``;
- ``aloha_optimal_marking`` with beta = 4, each call on a fresh
  configuration family;
- the Aloha window total (``total_window_score``) of that marking, twice: on
  a fresh family, as ``markopt estimate`` scores a stored marking of a newly
  sampled configuration, and on the oracle's output itself, which shares the
  family that the oracle read, as ``markopt exact`` scores it.

Each figure is the median of three calls.  The sweep also runs one Aloha
exact replicate of about 1500 points (the oracle, then the window total of
its output) in a fresh child process and records the child's peak RSS, next
to the size of an n x n float matrix.

It reads markopt only through its public API, so it runs against any markopt
source tree on PYTHONPATH.  Results go under ``--label`` into
BENCH_dense_exact.json in the working directory; the entries of other labels
in that file are kept, so one file can hold the figures of two trees:

    PYTHONPATH=<parent>/src python3 scripts/exact_sweep.py --label parent
    PYTHONPATH=src python3 scripts/exact_sweep.py --label change
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import resource
import statistics
import time

from markopt.core import Configuration, periodic_cube
from markopt.estimate import sample_configuration
from markopt.exact import aloha_optimal_marking, lilypond_solve
from markopt.models import AlohaModel, LilypondModel
from markopt.optimize import total_window_score

from bench_file import write_bench

BETA = 4.0
ALOHA = AlohaModel(beta=BETA)
LILYPOND = LilypondModel()
SEED = 1
SIZES = (250, 1500)
REPEATS = 3
RSS_N = 1500
OUT = "BENCH_dense_exact.json"


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


def sweep_point(n: int) -> dict:
    lily, c = sample(LILYPOND, n), sample(ALOHA, n)
    lily_s, _ = timed(lilypond_solve, [fresh(lily) for _ in range(REPEATS)])
    oracle_s, marked = timed(lambda a: aloha_optimal_marking(a, BETA),
                             [fresh(c) for _ in range(REPEATS)])
    # the oracle's last output, scored again and again in its own family
    shared_s, shared = timed(lambda m: total_window_score(m, ALOHA), [marked[-1]] * REPEATS)
    fresh_s, totals = timed(lambda m: total_window_score(m, ALOHA),
                            [fresh(marked[-1]) for _ in range(REPEATS)])
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


def aloha_exact_rss(n: int) -> dict:
    """Peak figures of one Aloha exact replicate, in this process."""
    c = sample(ALOHA, n)
    before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    total_window_score(aloha_optimal_marking(c, BETA), ALOHA)
    elapsed = time.perf_counter() - start
    return {
        "n": c.n_points,
        "replicate_s": elapsed,
        "peak_rss_mb_before_replicate": before_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n_by_n_matrix_mb": c.n_points**2 * 8 / 2**20,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this tree's results")
    args = parser.parse_args()
    entry = {"repeats": REPEATS}
    # a fresh interpreter, so the peak RSS is the replicate's; it runs first,
    # since on Linux a child's peak RSS starts from its parent's RSS at the fork
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        entry["aloha_exact_rss"] = pool.apply(aloha_exact_rss, (RSS_N,))
    entry["dense"] = points = [sweep_point(n) for n in SIZES]
    write_bench(OUT, args.label, entry)
    for p in points:
        print(f"{args.label} n={p['lilypond_n']}/{p['aloha_n']}: "
              f"lilypond_solve {p['lilypond_solve_s']:.4f} s, "
              f"aloha_optimal_marking {p['aloha_optimal_marking_s']:.4f} s, window total "
              f"{p['aloha_total_fresh_family_s']:.4f} s fresh, "
              f"{p['aloha_total_oracle_output_s']:.4f} s on the oracle's output")
    rss = entry["aloha_exact_rss"]
    print(f"{args.label} aloha exact replicate n={rss['n']}: peak RSS {rss['peak_rss_mb']:.1f} MB")


if __name__ == "__main__":
    main()
