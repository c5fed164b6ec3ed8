"""The benchmark's workloads: markopt experiment specs, the commands run on
each and the independent check of each run directory.

Every spec's seed is replaced by a round seed on the command line, so one
spec file serves every round.  Sizes keep one untraced round near 0.5-2 s on a
2-core machine; see README.md for the point counts they give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import check_aloha, check_brute, check_chain, check_grains, check_lilypond

ALL_COMMANDS = ("generate", "optimize", "exact", "estimate")


@dataclass(frozen=True)
class Pipeline:
    spec: dict
    commands: tuple[str, ...]
    check: Callable[[str, dict], None]


WORKLOADS: dict[str, tuple[Pipeline, ...]] = {
    # O(1) scores, but every search round rescans and rescores the whole
    # chain: the search layer does the work, torus geometry does none.
    "chain-search": (
        Pipeline(
            {
                "name": "chain-search",
                "window": {"kind": "line", "n": 100},
                "model": {"kind": "wr_line"},
                "policies": ["oracle:wr-chain", "random-iid"],
                "search": {"k_max": 1, "mode": "exhaustive"},
                "replicates": 6,
            },
            ALL_COMMANDS,
            check_chain,
        ),
    ),
    # every score and affected-set query scans all n grains through
    # torus_distance: geometry and search share the work, which grows as n^3.
    "grain-search": (
        Pipeline(
            {
                "name": "grain-search",
                "window": {"kind": "cube", "d": 2, "L": 5.0},
                "model": {"kind": "hardcore", "radius_lo": 0.2, "radius_hi": 0.6},
                "intensity": 1.0,
                "policies": ["neutral", "all-retain", "local-search"],
                "search": {"k_max": 1, "mode": "exhaustive"},
                "replicates": 20,
            },
            ("generate", "optimize", "estimate"),
            check_grains,
        ),
    ),
    # no local search: dense exact routes and the O(n^2) rescoring of their
    # certified marks do the work.
    "growth-exact": (
        Pipeline(
            {
                "name": "growth-lilypond",
                "window": {"kind": "cube", "d": 2, "L": 16.0},
                "model": {"kind": "lilypond"},
                "intensity": 1.0,
                "policies": ["oracle:lilypond"],
                "replicates": 2,
            },
            ("generate", "exact", "estimate"),
            check_lilypond,
        ),
        Pipeline(
            {
                "name": "growth-aloha",
                "window": {"kind": "cube", "d": 2, "L": 12.0},
                "model": {"kind": "aloha", "beta": 4.0},
                "intensity": 1.0,
                "policies": ["oracle:aloha"],
                "replicates": 2,
            },
            ("generate", "exact", "estimate"),
            check_aloha,
        ),
    ),
    # the grain-search code at tiny n, where per-call and per-replicate
    # overhead and the brute-force route dominate instead of growth in n.
    "small-brute": (
        Pipeline(
            {
                "name": "small-brute",
                "window": {"kind": "cube", "d": 1, "L": 3.0},
                "model": {"kind": "hardcore", "radius_lo": 0.1, "radius_hi": 0.4},
                "intensity": 1.0,
                "policies": ["neutral", "all-retain", "local-search", "oracle:brute"],
                "search": {"k_max": 2, "mode": "exhaustive"},
                "replicates": 100,
            },
            ALL_COMMANDS,
            check_brute,
        ),
    ),
}
