"""Windows, marks, configurations and randomness shared by all experiments.

Finite windows stand in for the stationary processes they approximate: the
periodic cube carries the torus metric, the integer line and the 3-regular
tree ball carry graph adjacency.  Scores take values in R together with -inf
as the inadmissibility value, so score arithmetic follows the conventions
implemented by ``score_diff`` and ``sum_score_diffs``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")

# absolute tolerance for geometric comparisons (overlap, admissibility)
GEOM_TOL = 1e-12


class ValidationError(ValueError):
    """Invalid input data: windows, marks, configurations, experiment specs."""


class MarkSpaceError(TypeError):
    """A mark has the wrong variant for the model, or is still unset."""


class WorkCapError(RuntimeError):
    """A computation was refused because it exceeds its work cap."""


class UnsupportedModelError(RuntimeError):
    """The requested operation is not defined for this model."""


# ---------------------------------------------------------------------------
# extended score arithmetic


def is_admissible(value: float) -> bool:
    return value != NEG_INF


def check_score(value: float) -> float:
    """Reject NaN and +inf, which no score function may produce."""
    if math.isnan(value) or value == POS_INF:
        raise AssertionError(f"score out of range: {value!r}")
    return value


def total_score(values: Iterable[float]) -> float:
    """Sum of scores with -inf absorbing.

    Accumulates left to right so that equal mark vectors produce bit-equal
    totals regardless of which caller computes them.
    """
    acc = 0.0
    for v in values:
        if v == NEG_INF:
            return NEG_INF
        acc += v
    return acc


def score_diff(after: float, before: float) -> float:
    """Difference of two extended scores.

    finite - finite is the plain difference, finite - (-inf) = +inf marks a
    repaired point, (-inf) - finite = -inf marks a newly broken point, and
    (-inf) - (-inf) = 0 exactly: a point that stays inadmissible contributes
    nothing.
    """
    if after == NEG_INF and before == NEG_INF:
        return 0.0
    return after - before


def sum_score_diffs(diffs: Iterable[float]) -> float:
    """Aggregate per-point score differences into a swap gain.

    Any -inf term dominates (the swap breaks some point, so the new total is
    -inf), otherwise any +inf term dominates (the swap repairs a point while
    breaking none), otherwise the finite sum is returned.
    """
    acc = 0.0
    saw_pos = False
    for d in diffs:
        if d == NEG_INF:
            return NEG_INF
        if d == POS_INF:
            saw_pos = True
        else:
            acc += d
    return POS_INF if saw_pos else acc


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    """Finite observation window.

    kind is one of "cube" (periodic cube, torus metric), "line" (path graph
    on n_sites integer sites) or "tree" (ball of given depth in the
    3-regular tree).
    """

    kind: str
    dim: int = 1
    side: float = 0.0
    n_sites: int = 0
    depth: int = 0

    def __post_init__(self) -> None:
        if self.kind == "cube":
            if self.dim < 1:
                raise ValidationError(f"cube dimension must be >= 1, got {self.dim}")
            if not (self.side > 0.0 and math.isfinite(self.side)):
                raise ValidationError(f"cube side must be positive, got {self.side}")
        elif self.kind == "line":
            if self.n_sites < 1:
                raise ValidationError(f"line needs >= 1 site, got {self.n_sites}")
        elif self.kind == "tree":
            if self.depth < 0:
                raise ValidationError(f"tree depth must be >= 0, got {self.depth}")
        else:
            raise ValidationError(f"unknown window kind {self.kind!r}")

    @property
    def volume(self) -> float:
        """Lebesgue volume of the cube, or the number of sites of a graph window."""
        if self.kind == "cube":
            return self.side**self.dim
        if self.kind == "line":
            return float(self.n_sites)
        return float(tree_vertex_count(self.depth))

    @property
    def site_count(self) -> int:
        if self.kind == "line":
            return self.n_sites
        if self.kind == "tree":
            return tree_vertex_count(self.depth)
        raise ValidationError("cube windows have no sites")


def periodic_cube(dim: int, side: float) -> Window:
    return Window(kind="cube", dim=dim, side=side)


def integer_line(n_sites: int) -> Window:
    return Window(kind="line", n_sites=n_sites)


def tree_ball(depth: int) -> Window:
    return Window(kind="tree", depth=depth)


def tree_vertex_count(depth: int) -> int:
    """Vertices of the radius-``depth`` ball in the 3-regular tree.

    The root has 3 children and every other internal vertex has 2, so level
    k >= 1 holds 3 * 2**(k-1) vertices and the ball holds 1 + 3*(2**depth - 1).
    """
    if depth < 0:
        raise ValidationError(f"tree depth must be >= 0, got {depth}")
    return 1 + 3 * (2**depth - 1)


@functools.lru_cache(maxsize=None)
def tree_structure(depth: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Adjacency lists and per-vertex depths of the tree ball, in BFS order.

    Vertex 0 is the root; children are appended in breadth-first order, so
    the layout is deterministic.
    """
    count = tree_vertex_count(depth)
    adjacency: list[list[int]] = [[] for _ in range(count)]
    depths = [0] * count
    next_id = 1
    frontier = [0]
    for level in range(1, depth + 1):
        new_frontier = []
        for parent in frontier:
            n_children = 3 if parent == 0 else 2
            for _ in range(n_children):
                child = next_id
                next_id += 1
                adjacency[parent].append(child)
                adjacency[child].append(parent)
                depths[child] = level
                new_frontier.append(child)
        frontier = new_frontier
    assert next_id == count
    return tuple(tuple(nbrs) for nbrs in adjacency), tuple(depths)


def graph_neighbors(window: Window, site: int) -> tuple[int, ...]:
    """Neighbors of a site in a line or tree window."""
    if window.kind == "line":
        if not 0 <= site < window.n_sites:
            raise ValidationError(f"site {site} outside line of {window.n_sites}")
        nbrs = []
        if site > 0:
            nbrs.append(site - 1)
        if site + 1 < window.n_sites:
            nbrs.append(site + 1)
        return tuple(nbrs)
    if window.kind == "tree":
        adjacency, _ = tree_structure(window.depth)
        return adjacency[site]
    raise ValidationError("cube windows have no graph neighbors")


# ---------------------------------------------------------------------------
# torus metric


def torus_delta(window: Window, x: Sequence[float], y: Sequence[float]) -> tuple[float, ...]:
    """Coordinatewise wrapped differences |x_k - y_k| reduced modulo the side."""
    if window.kind != "cube":
        raise ValidationError("torus metric requires a cube window")
    if len(x) != window.dim or len(y) != window.dim:
        raise ValidationError("position dimension mismatch")
    side = window.side
    out = []
    for a, b in zip(x, y):
        d = abs(a - b)
        if d > side - d:
            d = side - d
        out.append(d)
    return tuple(out)


def torus_distance(window: Window, x: Sequence[float], y: Sequence[float]) -> float:
    """Euclidean distance on the torus; at most side * sqrt(dim) / 2."""
    return math.sqrt(sum(d * d for d in torus_delta(window, x, y)))


def torus_distance_linf(window: Window, x: Sequence[float], y: Sequence[float]) -> float:
    return max(torus_delta(window, x, y))


def wrap_position(window: Window, x: Sequence[float]) -> tuple[float, ...]:
    """Reduce coordinates into [0, side)."""
    if window.kind != "cube":
        raise ValidationError("wrap_position requires a cube window")
    return tuple(c % window.side for c in x)


# ---------------------------------------------------------------------------
# marks

# Base marks are drawn with the points and never change; optimization marks
# are the decision variables.  A point with no base mark stores None; an opt
# mark that has not been assigned yet is None as well.


@dataclass(frozen=True)
class GrainRadius:
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValidationError(f"grain radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class ColorMark:
    color: str  # "blue" or "red"

    def __post_init__(self) -> None:
        if self.color not in ("blue", "red"):
            raise ValidationError(f"color must be blue or red, got {self.color!r}")


@dataclass(frozen=True)
class WeightPair:
    w_plus: float
    w_minus: float

    def __post_init__(self) -> None:
        for w in (self.w_plus, self.w_minus):
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValidationError(f"weights must be finite and >= 0, got {w}")


@dataclass(frozen=True)
class ReceiverOffset:
    offset: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", tuple(float(c) for c in self.offset))
        norm = math.sqrt(sum(c * c for c in self.offset))
        if abs(norm - 1.0) > GEOM_TOL:
            raise ValidationError(f"receiver offset must be a unit vector, norm {norm}")


BaseMark = GrainRadius | ColorMark | WeightPair | ReceiverOffset


@dataclass(frozen=True)
class Retain:
    keep: bool


@dataclass(frozen=True)
class SignMark:
    sign: str  # "+", "-" or "0"

    def __post_init__(self) -> None:
        if self.sign not in ("+", "-", "0"):
            raise ValidationError(f"sign must be +, - or 0, got {self.sign!r}")


@dataclass(frozen=True)
class RadiusMark:
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValidationError(f"radius mark must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class AccessProb:
    prob: float

    def __post_init__(self) -> None:
        if not (0.0 < self.prob <= 1.0):
            raise ValidationError(f"access probability must be in (0, 1], got {self.prob}")


@dataclass(frozen=True)
class ItemSet:
    items: tuple[int, ...]  # sorted, distinct, 1-based item ids

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(int(k) for k in self.items))
        if list(self.items) != sorted(set(self.items)):
            raise ValidationError(f"item set must be sorted and distinct, got {self.items}")
        if self.items and self.items[0] < 1:
            raise ValidationError(f"item ids are 1-based, got {self.items}")


@dataclass(frozen=True)
class PartnerIndex:
    index: int  # index of the proposed partner point within the configuration


OptMark = Retain | SignMark | RadiusMark | AccessProb | ItemSet | PartnerIndex

@dataclass(frozen=True)
class MarkedPoint:
    position: tuple[float, ...] | int
    base: BaseMark | None = None
    opt: OptMark | None = None  # None means not assigned yet


@dataclass(frozen=True)
class Configuration:
    """An immutable finite marked configuration tied to a window and a model id."""

    window: Window
    model_id: str
    points: tuple[MarkedPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if self.window.kind == "cube":
            seen = set()
            for p in self.points:
                pos = p.position
                if not isinstance(pos, tuple) or len(pos) != self.window.dim:
                    raise ValidationError(f"bad cube position {pos!r}")
                for c in pos:
                    if not (0.0 <= c < self.window.side):
                        raise ValidationError(f"coordinate {c} outside [0, {self.window.side})")
                if pos in seen:
                    raise ValidationError(f"duplicate position {pos}")
                seen.add(pos)
        else:
            n = self.window.site_count
            if len(self.points) not in (0, n):
                raise ValidationError(
                    f"graph window expects one point per site ({n}), got {len(self.points)}"
                )
            for site, p in enumerate(self.points):
                if p.position != site:
                    raise ValidationError(
                        f"graph configurations list sites in order, got {p.position} at {site}"
                    )

    @property
    def n_points(self) -> int:
        return len(self.points)

    def with_opt_marks(self, assignments: Mapping[int, OptMark | None]) -> "Configuration":
        """Copy with the opt marks of the given point indices replaced."""
        pts = list(self.points)
        for i, mark in assignments.items():
            pts[i] = replace(pts[i], opt=mark)
        return Configuration(self.window, self.model_id, tuple(pts))


def _replace_points(c: Configuration, points) -> Configuration:
    """Copy of a configuration with a different point sequence, skipping
    validation.  Internal fast path for swap scans: the points must already
    be valid for the window, and the caller keeps ownership of the sequence
    (it may even be a list that is mutated between score evaluations)."""
    out = object.__new__(Configuration)
    object.__setattr__(out, "window", c.window)
    object.__setattr__(out, "model_id", c.model_id)
    object.__setattr__(out, "points", points)
    return out


def positions_array(c: Configuration) -> np.ndarray:
    """(n, dim) float array of cube positions."""
    if c.window.kind != "cube":
        raise ValidationError("positions_array requires a cube window")
    if c.n_points == 0:
        return np.zeros((0, c.window.dim))
    return np.array([p.position for p in c.points], dtype=float)


def _wrapped_deltas(window: Window, a: np.ndarray, b: np.ndarray):
    """The (n, m) wrapped differences |a_k - b_k| of positions a (n, dim) and
    b (m, dim), one coordinate k at a time, in a single reused buffer."""
    if window.kind != "cube":
        raise ValidationError("torus metric requires a cube window")
    side = window.side
    delta = np.empty((len(a), len(b)))
    for k in range(window.dim):
        np.subtract(a[:, k, None], b[None, :, k], out=delta)
        np.abs(delta, out=delta)
        np.minimum(delta, side - delta, out=delta)
        yield delta


def torus_cross_distances(window: Window, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) matrix of torus distances from positions a (n, dim) to b (m, dim).

    Squared wrapped differences are added in coordinate order, as in
    ``torus_distance``, so every entry equals the scalar distance bit for bit.
    """
    out = np.zeros((len(a), len(b)))
    for delta in _wrapped_deltas(window, a, b):
        delta *= delta
        out += delta
    return np.sqrt(out, out=out)


def pairwise_torus_distances(c: Configuration) -> np.ndarray:
    """(n, n) matrix of pairwise torus distances, zeros on the diagonal."""
    pos = positions_array(c)
    return torus_cross_distances(c.window, pos, pos)


def pairwise_torus_linf(c: Configuration) -> np.ndarray:
    """(n, n) matrix of pairwise sup-norm torus distances, equal entry by
    entry to ``torus_distance_linf``; zeros on the diagonal."""
    pos = positions_array(c)
    out = np.zeros((len(pos), len(pos)))
    for delta in _wrapped_deltas(c.window, pos, pos):
        np.maximum(out, delta, out=out)
    return out


# ---------------------------------------------------------------------------
# randomness

_MASK64 = (1 << 64) - 1


def substream_id(*indices: int) -> int:
    """Fold replicate / purpose indices into a single 64-bit stream id."""
    acc = 0
    for ix in indices:
        acc = (acc * 1000003 + ix + 1) & _MASK64
    return acc


def rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    Same seed and stream always reproduce the same sample sequence, and
    distinct streams are independent, so replicates can be generated in any
    order or in parallel without changing results.
    """
    if not 0 <= seed <= _MASK64:
        raise ValidationError(f"seed must fit in 64 bits, got {seed}")
    key = (seed & _MASK64) | (substream_id(*stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


BaseSampler = Callable[[np.random.Generator], BaseMark | None]


def grain_radius_sampler(lo: float, hi: float) -> BaseSampler:
    if not 0.0 < lo <= hi:
        raise ValidationError(f"radius range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    return lambda g: GrainRadius(float(g.uniform(lo, hi)))


def color_sampler(p_blue: float = 0.5) -> BaseSampler:
    return lambda g: ColorMark("blue" if g.random() < p_blue else "red")


def weight_pair_sampler(lo: float = 0.0, hi: float = 1.0) -> BaseSampler:
    return lambda g: WeightPair(float(g.uniform(lo, hi)), float(g.uniform(lo, hi)))


def receiver_offset_sampler(dim: int) -> BaseSampler:
    def sample(g: np.random.Generator) -> ReceiverOffset:
        v = g.normal(size=dim)
        norm = float(np.linalg.norm(v))
        while norm < 1e-12:
            v = g.normal(size=dim)
            norm = float(np.linalg.norm(v))
        return ReceiverOffset(tuple(float(x) for x in v / norm))

    return sample


def sample_poisson_configuration(
    window: Window,
    intensity: float,
    model_id: str,
    base_sampler: BaseSampler | None,
    seed: int,
    *stream: int,
) -> Configuration:
    """Homogeneous Poisson sample on a periodic cube with iid base marks."""
    if window.kind != "cube":
        raise ValidationError("Poisson sampling requires a cube window")
    if not (intensity > 0.0 and math.isfinite(intensity)):
        raise ValidationError(f"intensity must be finite and > 0, got {intensity}")
    g = rng(seed, *stream)
    n = int(g.poisson(intensity * window.volume))

    points = []
    for _ in range(n):
        pos = tuple(float(x) for x in g.uniform(0.0, window.side, size=window.dim))
        base = base_sampler(g) if base_sampler is not None else None
        points.append(MarkedPoint(position=pos, base=base))
    return Configuration(window, model_id, tuple(points))


def sample_weighted_line(
    n_sites: int, seed: int, *stream: int, lo: float = 0.0, hi: float = 1.0
) -> Configuration:
    """Integer line with one point per site and iid uniform weight pairs."""
    g = rng(seed, *stream)
    sampler = weight_pair_sampler(lo, hi)
    points = tuple(MarkedPoint(position=i, base=sampler(g)) for i in range(n_sites))
    return Configuration(integer_line(n_sites), "wr_line", points)


def sample_weighted_tree(
    depth: int, seed: int, *stream: int, lo: float = 0.0, hi: float = 1.0
) -> Configuration:
    """Tree ball with one point per vertex and iid uniform weight pairs."""
    g = rng(seed, *stream)
    sampler = weight_pair_sampler(lo, hi)
    count = tree_vertex_count(depth)
    points = tuple(MarkedPoint(position=i, base=sampler(g)) for i in range(count))
    return Configuration(tree_ball(depth), "wr_tree", points)


# ---------------------------------------------------------------------------
# serialization
#
# Floats pass through repr, which round-trips exactly.  Layout:
# {"window": {...}, "model_id": "...", "points": [{"pos": [...] | "site": i,
#  "base": {...} | null, "opt": {...} | null}, ...]}


def window_to_json(window: Window) -> dict:
    if window.kind == "cube":
        return {"kind": "cube", "d": window.dim, "L": window.side}
    if window.kind == "line":
        return {"kind": "line", "n": window.n_sites}
    return {"kind": "tree", "depth": window.depth}


def window_from_json(obj: object) -> Window:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"window must be an object with a kind, got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "cube":
            return periodic_cube(int(obj["d"]), float(obj["L"]))
        if kind == "line":
            return integer_line(int(obj["n"]))
        if kind == "tree":
            return tree_ball(int(obj["depth"]))
    except KeyError as exc:
        raise ValidationError(f"window is missing field {exc}") from exc
    raise ValidationError(f"unknown window kind {kind!r}")


def base_mark_to_json(mark: BaseMark | None) -> dict | None:
    if mark is None:
        return None
    if isinstance(mark, GrainRadius):
        return {"grain": mark.radius}
    if isinstance(mark, ColorMark):
        return {"color": mark.color}
    if isinstance(mark, WeightPair):
        return {"weights": [mark.w_plus, mark.w_minus]}
    if isinstance(mark, ReceiverOffset):
        return {"offset": list(mark.offset)}
    raise ValidationError(f"unknown base mark {mark!r}")


def base_mark_from_json(obj: object) -> BaseMark | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"base mark must be a single-key object, got {obj!r}")
    ((tag, value),) = obj.items()
    if tag == "grain":
        return GrainRadius(float(value))
    if tag == "color":
        return ColorMark(str(value))
    if tag == "weights":
        return WeightPair(float(value[0]), float(value[1]))
    if tag == "offset":
        return ReceiverOffset(tuple(float(v) for v in value))
    raise ValidationError(f"unknown base mark tag {tag!r}")


def opt_mark_to_json(mark: OptMark | None) -> dict | None:
    if mark is None:
        return None
    if isinstance(mark, Retain):
        return {"retain": mark.keep}
    if isinstance(mark, SignMark):
        return {"sign": mark.sign}
    if isinstance(mark, RadiusMark):
        return {"radius": mark.radius}
    if isinstance(mark, AccessProb):
        return {"prob": mark.prob}
    if isinstance(mark, ItemSet):
        return {"items": list(mark.items)}
    if isinstance(mark, PartnerIndex):
        return {"partner": mark.index}
    raise ValidationError(f"unknown opt mark {mark!r}")


def opt_mark_from_json(obj: object) -> OptMark | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"opt mark must be a single-key object, got {obj!r}")
    ((tag, value),) = obj.items()
    if tag == "retain":
        return Retain(bool(value))
    if tag == "sign":
        return SignMark(str(value))
    if tag == "radius":
        return RadiusMark(float(value))
    if tag == "prob":
        return AccessProb(float(value))
    if tag == "items":
        return ItemSet(tuple(int(v) for v in value))
    if tag == "partner":
        return PartnerIndex(int(value))
    raise ValidationError(f"unknown opt mark tag {tag!r}")


def configuration_to_json(c: Configuration) -> dict:
    points = []
    for p in c.points:
        entry: dict = {}
        if c.window.kind == "cube":
            entry["pos"] = list(p.position)
        else:
            entry["site"] = p.position
        entry["base"] = base_mark_to_json(p.base)
        entry["opt"] = opt_mark_to_json(p.opt)
        points.append(entry)
    return {"window": window_to_json(c.window), "model_id": c.model_id, "points": points}


def configuration_from_json(obj: object) -> Configuration:
    if not isinstance(obj, dict):
        raise ValidationError(f"configuration must be an object, got {type(obj).__name__}")
    for field in ("window", "model_id", "points"):
        if field not in obj:
            raise ValidationError(f"configuration is missing field {field!r}")
    window = window_from_json(obj["window"])
    points = []
    for k, entry in enumerate(obj["points"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"point {k} must be an object")
        if window.kind == "cube":
            if "pos" not in entry:
                raise ValidationError(f"point {k} is missing pos")
            position: tuple[float, ...] | int = tuple(float(v) for v in entry["pos"])
        else:
            if "site" not in entry:
                raise ValidationError(f"point {k} is missing site")
            position = int(entry["site"])
        points.append(
            MarkedPoint(
                position=position,
                base=base_mark_from_json(entry.get("base")),
                opt=opt_mark_from_json(entry.get("opt")),
            )
        )
    return Configuration(window, str(obj["model_id"]), tuple(points))


def dump_configuration(c: Configuration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(configuration_to_json(c), fh, indent=1)
        fh.write("\n")


def load_configuration(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return configuration_from_json(obj)
