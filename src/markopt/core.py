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
import operator
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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
    """An immutable finite marked configuration tied to a window and a model id,
    with a private cache (``derived``) that equality, repr and JSON ignore."""

    window: Window
    model_id: str
    points: tuple[MarkedPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "_derived", {})
        if self.window.kind == "cube":
            seen = set()
            for p in self.points:
                pos = p.position
                if not isinstance(pos, tuple) or len(pos) != self.window.dim:
                    raise ValidationError(f"bad cube position {pos!r}")
                for c in pos:
                    if isinstance(c, bool):
                        raise ValidationError(f"coordinate {c!r} is a bool, not a number")
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
                if isinstance(p.position, bool):
                    raise ValidationError(f"site {p.position!r} is a bool, not an int")
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
            p = pts[i]
            pts[i] = MarkedPoint(p.position, p.base, mark)
        return _replace_points(self, tuple(pts))

    def derived(self, key: object, build: Callable[["Configuration"], object]) -> object:
        """build(self) for a build that reads only positions and base marks,
        computed once per key for all configurations that ``with_opt_marks``
        and ``_replace_points`` derive from one built any other way."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build(self)
        return value


def _replace_points(c: Configuration, points) -> Configuration:
    """Copy of a configuration with a different point sequence, skipping
    validation.  Internal fast path for swap scans: the points must carry c's
    positions and base marks (the copy shares c's derived cache), and the
    caller keeps ownership of the sequence (it may even be a list that is
    mutated between score evaluations)."""
    out = object.__new__(Configuration)
    object.__setattr__(out, "window", c.window)
    object.__setattr__(out, "model_id", c.model_id)
    object.__setattr__(out, "points", points)
    object.__setattr__(out, "_derived", c._derived)
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


@functools.cache
def _hint_parts(hint) -> tuple:
    return typing.get_origin(hint), typing.get_args(hint)


def json_fits(value: object, hint) -> bool:
    """Whether a JSON value has type hint: a list stands for a tuple, an int
    for a float, and a bool is no number."""
    if isinstance(hint, type):
        number = (int, float) if hint is float else hint
        return isinstance(value, number) and (hint is bool or not isinstance(value, bool))
    origin, args = _hint_parts(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(args) == len(value) and all(map(json_fits, value, args))
    return any(json_fits(value, h) for h in args)  # a union


def json_typed(value: object, hint, what: str):
    """value, if it has type hint, else a ValidationError naming what."""
    if type(value) is not hint and not json_fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ValidationError(f"{what} must be {name}, got {value!r}")
    return value


# get_type_hints evaluates string annotations on every call; callers only read its dict
_type_hints = functools.cache(typing.get_type_hints)


def check_field_names(cls: type, obj: Mapping[str, object], what: str) -> None:
    """Refuse keys of obj that name no field of dataclass cls."""
    unknown = sorted(set(obj) - set(_type_hints(cls)))
    if unknown:
        raise ValidationError(f"unknown {what} {unknown}")


def check_field_types(cls: type, params: Mapping[str, object], what: str) -> None:
    """Refuse a keyword parameter of dataclass cls that lacks its field's
    declared type; names that cls lacks are left to its constructor."""
    hints = _type_hints(cls)
    for name, value in params.items():
        if name in hints:
            json_typed(value, hints[name], f"{what} {name}")


# window kind -> {JSON key: Window field}; each value has its field's type
WINDOW_FIELDS = {
    "cube": {"d": "dim", "L": "side"},
    "line": {"n": "n_sites"},
    "tree": {"depth": "depth"},
}

# mark class -> JSON tag, for the base and the opt slot of a point.  A mark is
# {tag: value}: the value is the mark's one field, or the list of its fields,
# each of its field's type (a list for a tuple).
BASE_MARK_TAGS = {
    GrainRadius: "grain",
    ColorMark: "color",
    WeightPair: "weights",
    ReceiverOffset: "offset",
}
OPT_MARK_TAGS = {
    Retain: "retain",
    SignMark: "sign",
    RadiusMark: "radius",
    AccessProb: "prob",
    ItemSet: "items",
    PartnerIndex: "partner",
}


def window_to_json(window: Window) -> dict:
    fields = WINDOW_FIELDS[window.kind]
    return {"kind": window.kind, **{key: getattr(window, name) for key, name in fields.items()}}


def window_from_json(obj: object) -> Window:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"window must be an object with a kind, got {obj!r}")
    kind, hints = obj["kind"], _type_hints(Window)
    if not isinstance(kind, str) or kind not in WINDOW_FIELDS:
        raise ValidationError(f"unknown window kind {kind!r}")
    params = {}
    for key, name in WINDOW_FIELDS[kind].items():
        if key not in obj:
            raise ValidationError(f"window is missing field {key!r}")
        value = json_typed(obj[key], hints[name], f"window {key}")
        params[name] = float(value) if hints[name] is float else value
    return Window(kind, **params)


def _mark_decoder(cls: type) -> tuple:
    """(cls, type hint of its JSON value, whether it has several fields,
    whether they are all floats)."""
    hints = tuple(_type_hints(cls).values())
    several = len(hints) > 1
    return cls, tuple[hints] if several else hints[0], several, all(h is float for h in hints)


# class -> (tag, getter of the mark's JSON value); slot -> tag -> decoder
_MARK_ENCODERS = {
    cls: (tag, operator.attrgetter(*_type_hints(cls)))
    for cls, tag in {**BASE_MARK_TAGS, **OPT_MARK_TAGS}.items()
}
_MARK_DECODERS = {
    slot: {tag: _mark_decoder(cls) for cls, tag in tags.items()}
    for slot, tags in (("base", BASE_MARK_TAGS), ("opt", OPT_MARK_TAGS))
}


def mark_to_json(mark: BaseMark | OptMark | None) -> dict | None:
    if mark is None:
        return None
    tag, get = _MARK_ENCODERS[type(mark)]
    value = get(mark)
    return {tag: list(value) if type(value) is tuple else value}


def mark_from_json(obj: object, slot: str) -> BaseMark | OptMark | None:
    """The mark that obj holds in a point's "base" or "opt" slot."""
    if obj is None:
        return None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"{slot} mark must be a single-key object, got {obj!r}")
    ((tag, value),) = obj.items()
    entry = _MARK_DECODERS[slot].get(tag)
    if entry is None:
        raise ValidationError(f"unknown {slot} mark tag {tag!r}")
    cls, hint, several, floats = entry
    json_typed(value, hint, tag)
    if several:
        return cls(*map(float, value)) if floats else cls(*value)
    return cls(float(value) if floats else value)


def configuration_from_json(obj: object) -> Configuration:
    if not isinstance(obj, dict):
        raise ValidationError(f"configuration must be an object, got {type(obj).__name__}")
    for field in ("window", "model_id", "points"):
        if field not in obj:
            raise ValidationError(f"configuration is missing field {field!r}")
    window = window_from_json(obj["window"])
    cube = window.kind == "cube"
    key, hint = ("pos", tuple[float, ...]) if cube else ("site", int)
    points = []
    for k, entry in enumerate(json_typed(obj["points"], list, "points")):
        if not isinstance(entry, dict):
            raise ValidationError(f"point {k} must be an object")
        if key not in entry:
            raise ValidationError(f"point {k} is missing {key}")
        position = json_typed(entry[key], hint, f"point {k} {key}")
        points.append(
            MarkedPoint(
                position=tuple(map(float, position)) if cube else position,
                base=mark_from_json(entry.get("base"), "base"),
                opt=mark_from_json(entry.get("opt"), "opt"),
            )
        )
    return Configuration(window, json_typed(obj["model_id"], str, "model_id"), tuple(points))


def _json_scalar(value: object) -> str:
    """A JSON scalar as json.dump writes it: floats (np.float64 too) by
    float.__repr__ or as NaN/Infinity/-Infinity, bools before ints, strings
    ASCII-escaped."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_list(values: Sequence, level: int) -> str:
    """A list of scalars as json.dump(indent=1) writes it at nesting level."""
    if not values:
        return "[]"
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join(map(_json_scalar, values)) + "\n" + " " * level + "]"


def _mark_text(mark: BaseMark | OptMark | None) -> str:
    """mark_to_json(mark) as json.dump(indent=1) writes it in a point."""
    obj = mark_to_json(mark)
    if obj is None:
        return "null"
    ((tag, value),) = obj.items()
    value = _json_list(value, 4) if type(value) is list else _json_scalar(value)
    return "{\n    " + encode_basestring_ascii(tag) + ": " + value + "\n   }"


def configuration_text(c: Configuration) -> str:
    """The text of c's configuration file: the bytes that json.dump(obj, fh,
    indent=1) and a newline write for the layout above, built in one pass."""
    window = ",\n  ".join(
        encode_basestring_ascii(key) + ": " + _json_scalar(value)
        for key, value in window_to_json(c.window).items()
    )
    if c.window.kind == "cube":
        positions = ['"pos": ' + _json_list(p.position, 3) for p in c.points]
    else:
        positions = ['"site": ' + _json_scalar(p.position) for p in c.points]
    points = [
        '{\n   %s,\n   "base": %s,\n   "opt": %s\n  }' % (position, _mark_text(p.base), _mark_text(p.opt))
        for position, p in zip(positions, c.points)
    ]
    body = "[\n  " + ",\n  ".join(points) + "\n ]" if points else "[]"
    model_id = encode_basestring_ascii(c.model_id)
    return '{\n "window": {\n  %s\n },\n "model_id": %s,\n "points": %s\n}\n' % (window, model_id, body)


def dump_configuration(c: Configuration, path: str) -> None:
    text = configuration_text(c)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path: str) -> object:
    """The JSON value in file path; a file that cannot be opened, decoded as
    UTF-8 or parsed as JSON is a ValidationError naming path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"file not found: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_configuration(path: str) -> Configuration:
    return configuration_from_json(read_json(path))
