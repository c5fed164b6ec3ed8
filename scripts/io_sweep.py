"""Cost of writing and reading one configuration file.

Times ``dump_configuration`` and ``load_configuration`` on 2-d hard-core
grains at unit intensity with n of about 3, 25, 250 and 2500 points, every
other grain retained, and on weighted sign chains of 100 and 10^4 sites with
cycling signs.  Each figure is the median of repeated calls on one path in a
temporary directory, so every dump after the first overwrites the file, as a
rerun into the same run directory does; the file's size is recorded next to
it.

It reads markopt only through its public API, so it runs against any markopt
source tree on PYTHONPATH.  Results go under ``--label`` into
BENCH_config_io.json in the working directory; the entries of other labels
in that file are kept, so one file can hold the figures of two trees:

    PYTHONPATH=<parent>/src python3 scripts/io_sweep.py --label parent
    PYTHONPATH=src python3 scripts/io_sweep.py --label change
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import tempfile
import time

from markopt import (
    Configuration,
    HardcoreModel,
    Retain,
    SignMark,
    dump_configuration,
    load_configuration,
    periodic_cube,
    sample_poisson_configuration,
    sample_weighted_line,
)

from bench_file import write_bench

MODEL = HardcoreModel(radius_lo=0.2, radius_hi=0.6)
SEED = 1
GRAIN_SIZES = (3, 25, 250, 2500)
CHAIN_SITES = (100, 10**4)
REPEATS = 21
OUT = "BENCH_config_io.json"


def grains(n: int) -> Configuration:
    """Poisson grains at unit intensity on a square of area n."""
    window = periodic_cube(2, math.sqrt(n))
    c = sample_poisson_configuration(
        window, 1.0, MODEL.kind, MODEL.default_base_sampler(window), SEED
    )
    return c.with_opt_marks({i: Retain(i % 2 == 0) for i in range(c.n_points)})


def chain(sites: int) -> Configuration:
    c = sample_weighted_line(sites, SEED)
    return c.with_opt_marks({i: SignMark("0+-"[i % 3]) for i in range(sites)})


def median_s(call) -> float:
    call()  # warm-up: the first dump creates the file
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def io_point(kind: str, c: Configuration, path: str) -> dict:
    dump_s = median_s(lambda: dump_configuration(c, path))
    load_s = median_s(lambda: load_configuration(path))
    assert load_configuration(path) == c
    return {
        "kind": kind,
        "n": c.n_points,
        "bytes": os.path.getsize(path),
        "dump_us": dump_s * 1e6,
        "load_us": load_s * 1e6,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this tree's results")
    args = parser.parse_args()
    cases = [("grains", grains(n)) for n in GRAIN_SIZES]
    cases += [("chain", chain(sites)) for sites in CHAIN_SITES]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "configuration.json")
        points = [io_point(kind, c, path) for kind, c in cases]
    write_bench(OUT, args.label, {"repeats": REPEATS, "io": points})
    for point in points:
        print(f"{args.label} {point['kind']} n={point['n']}: dump {point['dump_us']:.0f} us, "
              f"load {point['load_us']:.0f} us, {point['bytes']} bytes")


if __name__ == "__main__":
    main()
