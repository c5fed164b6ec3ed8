"""Cost of sampling, writing and reading one configuration file.

Times ``sample_poisson_configuration`` (with the model's base sampler) on
2-d hard-core grains at unit intensity with n of about 3, 25, 250 and 2500
points, and ``sample_weighted_line`` on weighted sign chains of 100 and 10^4
sites.  Every other grain is then retained and the chain's signs cycle, and
the marked configuration is written by ``dump_configuration`` and read back
in two steps: ``read_json`` parses the file (``parse_us``) and
``configuration_from_json`` builds the configuration (``decode_us``); their
sum is what ``load_configuration`` costs.  Each figure is the median of
repeated calls; the dumps go to one path in a temporary directory, so every
dump after the first overwrites the file, as a rerun into the same run
directory does.  The file's size is recorded next to them.

It reads markopt only through names that it has long had, so it runs
against any markopt source tree on PYTHONPATH.  Results go under
``--label`` into BENCH_config_io.json in the working directory; the entries
of other labels in that file are kept, so one file can hold the figures of
two trees:

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
    periodic_cube,
    sample_poisson_configuration,
    sample_weighted_line,
)
from markopt.core import configuration_from_json, read_json

from bench_file import write_bench

MODEL = HardcoreModel(radius_lo=0.2, radius_hi=0.6)
SEED = 1
GRAIN_SIZES = (3, 25, 250, 2500)
CHAIN_SITES = (100, 10**4)
REPEATS = 21
OUT = "BENCH_config_io.json"


def grains(n: int):
    """Sampler of Poisson grains at unit intensity on a square of area n,
    and the marking that retains every other grain."""
    window = periodic_cube(2, math.sqrt(n))

    def sample() -> Configuration:
        return sample_poisson_configuration(
            window, 1.0, MODEL.kind, MODEL.default_base_sampler(window), SEED
        )

    return sample, lambda c: c.with_opt_marks({i: Retain(i % 2 == 0) for i in range(c.n_points)})


def chain(sites: int):
    """Sampler of a weighted chain, and the marking with cycling signs."""
    return (
        lambda: sample_weighted_line(sites, SEED),
        lambda c: c.with_opt_marks({i: SignMark("0+-"[i % 3]) for i in range(sites)}),
    )


def median_s(call) -> float:
    call()  # warm-up: the first dump creates the file
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def io_point(kind: str, sample, mark, path: str) -> dict:
    sample_s = median_s(sample)
    c = mark(sample())
    dump_s = median_s(lambda: dump_configuration(c, path))
    parse_s = median_s(lambda: read_json(path))
    obj = read_json(path)
    decode_s = median_s(lambda: configuration_from_json(obj))
    assert configuration_from_json(obj) == c
    return {
        "kind": kind,
        "n": c.n_points,
        "bytes": os.path.getsize(path),
        "sample_us": sample_s * 1e6,
        "dump_us": dump_s * 1e6,
        "parse_us": parse_s * 1e6,
        "decode_us": decode_s * 1e6,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this tree's results")
    args = parser.parse_args()
    cases = [("grains", *grains(n)) for n in GRAIN_SIZES]
    cases += [("chain", *chain(sites)) for sites in CHAIN_SITES]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "configuration.json")
        points = [io_point(kind, sample, mark, path) for kind, sample, mark in cases]
    write_bench(OUT, args.label, {"repeats": REPEATS, "io": points})
    for point in points:
        print(f"{args.label} {point['kind']} n={point['n']}: sample {point['sample_us']:.0f} us, "
              f"dump {point['dump_us']:.0f} us, parse {point['parse_us']:.0f} us, "
              f"decode {point['decode_us']:.0f} us, {point['bytes']} bytes")


if __name__ == "__main__":
    main()
