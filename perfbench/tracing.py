"""Spans and aggregated call counters around markopt's public functions.

The tracer patches module attributes from outside the package, so markopt
itself carries no tracing code.  Coarse calls (commands, replicates, local
searches, exact routes) become spans with a start, an end and a parent.  Hot
leaf calls run millions of times per round, so they only add to a count and
a summed time, keyed by the innermost open span; memory stays flat however
long a run lasts.  Self time of a frame is its duration minus the time of the
traced frames nested inside it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

# frame name -> (module, attribute, kind, extra); kind "span" records every
# call, "leaf" only aggregates.  extra(args, result) adds to a per-frame sum.
_FUNCTIONS = (
    ("core.distance", "core", "torus_distance", "leaf", None),
    ("core.sample", "core", "sample_poisson_configuration", "leaf", None),
    ("core.sample", "core", "sample_weighted_line", "leaf", None),
    ("core.sample", "core", "sample_weighted_tree", "leaf", None),
    ("core.json_dump", "core", "dump_configuration", "leaf", lambda a, r: os.path.getsize(a[1])),
    ("core.json_load", "core", "load_configuration", "leaf", lambda a, r: os.path.getsize(a[0])),
    ("optimize.local_search", "optimize", "local_search", "span", None),
    ("optimize.find_valid_swap", "optimize", "find_valid_swap", "leaf", None),
    ("rescore", "optimize", "total_window_score", "leaf", None),
    ("exact.brute", "exact", "brute_force_optimum", "span", None),
    ("exact.chain", "exact", "wr_unique_marking", "span", lambda a, r: len(r.marks)),
    ("exact.lilypond", "exact", "lilypond_solve", "span", lambda a, r: len(r.events)),
    ("exact.aloha", "exact", "aloha_optimal_marking", "span", None),
    ("exact.aloha_coupling", "exact", "aloha_response_terms", "leaf", None),
    ("estimate.replicate", "estimate", "run_replicate", "span", None),
)
_MODEL_METHODS = (
    ("models.score_at", "score_at", None),
    ("models.affected_points", "affected_points", lambda a, r: len(r)),
)
_MODULES = ("core", "models", "optimize", "exact", "estimate", "cli")


class Tracer:
    """Per-round span list and (frame, enclosing span) -> counter table."""

    def __init__(self) -> None:
        self.rounds: list[dict] = []
        self._spans: list[tuple] = []
        self._stats: dict[tuple[str, str], list] = {}
        self._frames: list[list[float]] = []  # child time of each open frame
        self._open: list[tuple[int, str]] = [(-1, "")]  # (span id, name)

    def wrap(self, name: str, fn, kind: str, extra=None):
        spans, stats, frames, open_spans = self._spans, self._stats, self._frames, self._open
        clock = time.perf_counter
        is_span = kind == "span"

        def traced(*args, **kwargs):
            parent_id, context = open_spans[-1]
            if is_span:
                span_id = len(spans)
                spans.append(None)
                open_spans.append((span_id, name))
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                if is_span:
                    open_spans.pop()
                    spans[span_id] = (span_id, name, start, end, parent_id)
                entry = stats.get((name, context))
                if entry is None:
                    entry = stats[(name, context)] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration - frame[0]
                entry[2] += duration
            if extra is not None:
                entry[3] += extra(args, result)
            return result

        return traced

    def call_in_span(self, name: str, fn, *args):
        """Call fn inside a span opened by the benchmark itself, e.g. one command."""
        return self.wrap(name, fn, "span")(*args)

    def begin_round(self) -> None:
        self._spans.clear()
        self._stats.clear()

    def end_round(self, wall_s: float) -> None:
        stats = {f"{name}|{ctx}": list(v) for (name, ctx), v in self._stats.items()}
        self.rounds.append({"wall_s": wall_s, "stats": stats, "spans": list(self._spans)})


@contextmanager
def instrument(tracer: Tracer, package):
    """Patch every markopt module attribute bound to a traced function, and
    every score model class method, for the duration of the block."""
    modules = {name: getattr(package, name) for name in _MODULES}
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for name, module, attr, kind, extra in _FUNCTIONS:
        original = getattr(modules[module], attr)
        wrapper = tracer.wrap(name, original, kind, extra)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, key, wrapper)
    models = modules["models"]
    for cls in vars(models).values():
        if isinstance(cls, type) and issubclass(cls, models.ScoreModel):
            for name, attr, extra in _MODEL_METHODS:
                if attr in vars(cls):
                    patch(cls, attr, tracer.wrap(name, vars(cls)[attr], "leaf", extra))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _sum(stats: dict, name: str, field: int, contexts=None) -> float:
    total = 0
    for key, entry in stats.items():
        frame, ctx = key.split("|", 1)
        if frame == name and (contexts is None or ctx in contexts):
            total += entry[field]
    return total


CALLS, SELF, INCL, EXTRA = 0, 1, 2, 3
_OPTIMIZE_CONTEXTS = ("optimize.local_search", "cli.optimize")


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer figures of one round from its counter table.

    Times are self times, except cli.* (whole commands) and the rescore and
    coupling times, which include the score and distance calls inside them:
    those name work that a change could skip as a whole.  Rescoring done
    inside brute force and inside an estimate replicate counts as the work
    of that route or replicate.
    """

    def s(name, field, contexts=None):
        return _sum(stats, name, field, contexts)

    rounds = s("optimize.find_valid_swap", CALLS)
    affected = s("models.affected_points", CALLS)
    return {
        "cli.generate_s": s("cli.generate", INCL),
        "cli.optimize_s": s("cli.optimize", INCL),
        "cli.exact_s": s("cli.exact", INCL),
        "cli.estimate_s": s("cli.estimate", INCL),
        "core.sample_s": s("core.sample", SELF),
        "core.json_dump_s": s("core.json_dump", SELF),
        "core.json_load_s": s("core.json_load", SELF),
        "core.json_bytes": s("core.json_dump", EXTRA) + s("core.json_load", EXTRA),
        "core.distance_calls": s("core.distance", CALLS),
        "core.distance_s": s("core.distance", SELF),
        "models.score_calls": s("models.score_at", CALLS),
        "models.score_s": s("models.score_at", SELF),
        "models.affected_calls": affected,
        "models.affected_s": s("models.affected_points", SELF),
        "models.affected_size_mean": (
            s("models.affected_points", EXTRA) / affected if affected else 0.0
        ),
        "optimize.searches": s("optimize.local_search", CALLS),
        "optimize.rounds": rounds,
        "optimize.find_swap_s": s("optimize.find_valid_swap", SELF),
        "optimize.round_ms": 1e3 * s("optimize.find_valid_swap", INCL) / rounds if rounds else 0.0,
        "optimize.rescore_calls": s("rescore", CALLS, _OPTIMIZE_CONTEXTS),
        "optimize.rescore_s": s("rescore", INCL, _OPTIMIZE_CONTEXTS),
        "exact.brute_s": s("exact.brute", SELF) + s("rescore", SELF, ("exact.brute",)),
        "exact.brute_markings": s("rescore", CALLS, ("exact.brute",)),
        "exact.chain_s": s("exact.chain", SELF),
        "exact.chain_sites": s("exact.chain", EXTRA),
        "exact.lilypond_s": s("exact.lilypond", SELF),
        "exact.lilypond_events": s("exact.lilypond", EXTRA),
        "exact.aloha_s": s("exact.aloha", SELF),
        "exact.aloha_coupling_s": s("exact.aloha_coupling", INCL),
        "exact.rescore_s": s("rescore", INCL, ("cli.exact",)),
        "estimate.replicates": s("estimate.replicate", CALLS),
        "estimate.replicate_s": s("estimate.replicate", SELF)
        + s("rescore", SELF, ("estimate.replicate",)),
    }


# figures that do not depend on machine speed and must repeat exactly
COUNT_METRICS = tuple(
    name for name in layer_metrics({}) if not name.endswith(("_s", "_ms"))
)
_UNITS = {"_s": "s", "_ms": "ms", "_bytes": "bytes", "_mean": "points"}


def unit(name: str) -> str:
    return next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")
