"""The BENCH_*.json file that a sweep script writes.

One file holds the figures of several source trees, each under its own
label, so a before/after pair is two runs of the same script:

    PYTHONPATH=<parent>/src python3 scripts/<sweep>.py --label parent
    PYTHONPATH=src python3 scripts/<sweep>.py --label change
"""

from __future__ import annotations

import json
import os
import platform

import numpy as np


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
