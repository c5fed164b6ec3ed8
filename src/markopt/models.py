"""Score models.

Each model assigns a per-point score to a fully marked configuration; the
window total divided by volume is the quantity the optimization drives up.
Scores live in R plus -inf for inadmissible local patterns, and every model
declares a sign regime: "nonneg" scores lie in [0, inf) and "nonpos" in
(-inf, 0], always excluding NaN and +inf.

The model objects also expose the metadata the search and estimation layers
need: the neutral mark (scores 0 itself and never affects the others), the
mark space (finite candidate lists or continuous proposal rules), the
interaction graph and from it a superset of points whose scores a mark
change can touch, and default base mark samplers for the generation
pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    GEOM_TOL,
    NEG_INF,
    AccessProb,
    BaseSampler,
    ColorMark,
    Configuration,
    GrainRadius,
    ItemSet,
    MarkSpaceError,
    OptMark,
    PartnerIndex,
    RadiusMark,
    ReceiverOffset,
    Retain,
    SignMark,
    ValidationError,
    WeightPair,
    Window,
    check_field_types,
    color_sampler,
    grain_radius_sampler,
    graph_neighbors,
    pairwise_torus_distances,
    positions_array,
    receiver_offset_sampler,
    torus_cross_distances,
    torus_distance,
)


def _opt_mark(c: Configuration, i: int, cls: type) -> OptMark:
    mark = c.points[i].opt
    if mark is None:
        raise MarkSpaceError(f"point {i} has no opt mark assigned")
    if not isinstance(mark, cls):
        raise MarkSpaceError(
            f"point {i} carries {type(mark).__name__}, model needs {cls.__name__}"
        )
    return mark


def _base_mark(c: Configuration, i: int, cls: type):
    mark = c.points[i].base
    if not isinstance(mark, cls):
        raise MarkSpaceError(
            f"point {i} carries base {type(mark).__name__}, model needs {cls.__name__}"
        )
    return mark


# ---------------------------------------------------------------------------
# grain contacts

# distance entries per block of the contact build, so no n x n matrix is made
_CONTACT_BLOCK = 1 << 16


def _build_grain_contacts(c: Configuration, closed: bool):
    radii = np.array([_base_mark(c, i, GrainRadius).radius for i in range(c.n_points)])
    pos, neighbors, distances = positions_array(c), [], []
    step = max(1, _CONTACT_BLOCK // max(c.n_points, 1))
    for lo in range(0, c.n_points, step):
        d = torus_cross_distances(c.window, pos[lo : lo + step], pos)
        reach = radii[lo : lo + step, None] + radii + GEOM_TOL
        near = d <= reach if closed else d < reach
        near[np.arange(len(near)), np.arange(lo, lo + len(near))] = False
        rows, cols = np.nonzero(near)
        js, ds, start = cols.tolist(), d[rows, cols].tolist(), 0
        for count in np.bincount(rows, minlength=len(near)).tolist():
            neighbors.append(tuple(js[start : start + count]))
            distances.append(tuple(ds[start : start + count]))
            start += count
    return neighbors, distances


# the open and the closed build, indexed by closed
_GRAIN_CONTACT_BUILDS = (
    functools.partial(_build_grain_contacts, closed=False),
    functools.partial(_build_grain_contacts, closed=True),
)


def grain_contacts(c: Configuration, closed: bool):
    """Per point, the other points j at torus distance d < r_i + r_j + GEOM_TOL
    (<= when closed), ascending, and those d: tuples in two lists, built once
    per configuration family from ``torus_cross_distances``."""
    return c.derived(("grain-contacts", closed), _GRAIN_CONTACT_BUILDS[closed])


# ---------------------------------------------------------------------------
# hard-core thinning


def grain_volume(dim: int, radius: float) -> float:
    if dim == 1:
        return 2.0 * radius
    if dim == 2:
        return math.pi * radius * radius
    raise ValidationError(f"hard-core grains support dim 1 or 2, got {dim}")


def hardcore_score_at(c: Configuration, i: int) -> float:
    """Grain volume if retained and interior-disjoint from all other retained
    grains, 0 if deleted (even when overlapping), -inf on a retained overlap.

    Interiors are open, so grains that exactly touch are admissible.
    """
    if not _opt_mark(c, i, Retain).keep:
        return 0.0
    r_i = _base_mark(c, i, GrainRadius).radius
    neighbors, distances = grain_contacts(c, closed=False)
    for j, d in zip(neighbors[i], distances[i]):
        if not _opt_mark(c, j, Retain).keep:
            continue
        if d < r_i + c.points[j].base.radius - GEOM_TOL:
            return NEG_INF
    return grain_volume(c.window.dim, r_i)


# ---------------------------------------------------------------------------
# lilypond growth


def lilypond_distances(c: Configuration) -> np.ndarray:
    """Read-only matrix of the torus distances between the points, inf on the
    diagonal, built once per configuration family."""

    def build(c: Configuration) -> np.ndarray:
        d = pairwise_torus_distances(c)
        np.fill_diagonal(d, np.inf)
        d.flags.writeable = False
        return d

    return c.derived("lilypond-distances", build)


def lilypond_constraints(d: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Largest radius of point i compatible with point j's ball, from distances
    d with inf where i = j: the midpoint distance while j is no larger, else
    the distance minus j's radius."""
    return np.maximum(0.5 * d, d - radii[None, :])


def lilypond_touch_scores(radii, tightest):
    """The touch rule, elementwise: a radius up to GEOM_TOL above its tightest
    constraint scores radius - tightest, a larger one -inf."""
    return np.where(radii <= tightest + GEOM_TOL, radii - tightest, NEG_INF)


def lilypond_score_at(c: Configuration, i: int) -> float:
    """Own radius minus the tightest constraint over the other points; -inf
    once the radius exceeds that constraint.  A single point scores 0."""
    r_i = _opt_mark(c, i, RadiusMark).radius
    if c.n_points == 1:
        return 0.0
    radii = np.array([_opt_mark(c, j, RadiusMark).radius for j in range(c.n_points)])
    tightest = lilypond_constraints(lilypond_distances(c)[i : i + 1], radii).min()
    return float(lilypond_touch_scores(r_i, tightest))


# ---------------------------------------------------------------------------
# Aloha medium access


def aloha_receivers(c: Configuration) -> np.ndarray:
    """(n, dim) receiver positions: each point moved by its unit offset and
    wrapped into [0, side)."""
    offsets = [_base_mark(c, i, ReceiverOffset).offset for i in range(c.n_points)]
    if any(len(offset) != c.window.dim for offset in offsets):
        raise ValidationError(f"receiver offsets need {c.window.dim} coordinates")
    shifted = positions_array(c) + np.array(offsets).reshape(-1, c.window.dim)
    return np.remainder(shifted, c.window.side, out=shifted)


def _libm_map(f, m: np.ndarray, *args) -> np.ndarray:
    """f(entry, *next args) over the entries of m in row order, as Python float
    calls: numpy's own pow, log and log1p kernels can differ from libm in the
    last bit.  Each row is turned into floats only when it is reached."""
    entries = itertools.chain.from_iterable(map(np.ndarray.tolist, m))
    return np.fromiter(map(f, entries, *args), float, m.size).reshape(m.shape)


def aloha_attenuation(c: Configuration, beta: float) -> np.ndarray:
    """Read-only matrix A[i, j] = 1 + |recv_i - X_j|^beta, with the float pow
    of ``score_at``, built once per configuration family and beta."""

    def build(c: Configuration) -> np.ndarray:
        dist = torus_cross_distances(c.window, aloha_receivers(c), positions_array(c))
        a = _libm_map(math.pow, dist, itertools.repeat(beta))
        a += 1.0
        a.flags.writeable = False
        return a

    return c.derived(("aloha-attenuation", beta), build)


# ---------------------------------------------------------------------------
# caching


def _caching_score_1d(
    c: Configuration, i: int, popularity: tuple[float, ...], items: tuple[int, ...]
) -> float:
    side = c.window.side
    x_i = c.points[i].position[0]
    r_i = c.points[i].base.radius
    ball_len = min(2.0 * r_i, side)
    start = (x_i - r_i) % side
    total = 0.0
    # only i and its grain contacts can cover part of i's ball
    near = sorted((i, *grain_contacts(c, closed=True)[0][i]))
    for k in items:
        # coverage pieces of item k inside the ball, in ball-local coordinates
        pieces: list[tuple[float, float]] = []
        cuts = {0.0, ball_len}
        for j in near:
            q = c.points[j]
            if k not in _opt_mark(c, j, ItemSet).items:
                continue
            r_j = _base_mark(c, j, GrainRadius).radius
            width = min(2.0 * r_j, side)
            s = ((q.position[0] - r_j) - start) % side
            for lo, hi in ((s, s + width), (s - side, s + width - side)):
                lo, hi = max(lo, 0.0), min(hi, ball_len)
                if hi > lo:
                    pieces.append((lo, hi))
                    cuts.add(lo)
                    cuts.add(hi)
        xs = sorted(cuts)
        weight = popularity[k - 1]
        for lo, hi in zip(xs, xs[1:]):
            mid = 0.5 * (lo + hi)
            n_k = sum(1 for plo, phi in pieces if plo <= mid <= phi)
            if n_k:
                total += weight * (hi - lo) / n_k
    return total


def _caching_score_2d(
    c: Configuration,
    i: int,
    popularity: tuple[float, ...],
    items: tuple[int, ...],
    resolution: float | None,
) -> float:
    side = c.window.side
    # only i and its grain contacts can cover part of i's ball
    near = [i, *grain_contacts(c, closed=True)[0][i]]
    radii = np.array([c.points[j].base.radius for j in near])
    if resolution is None:  # the grid of i's neighbourhood: set by its smallest grain
        resolution = float(radii.min()) / 20.0
    x_i = np.asarray(c.points[i].position)
    r_i = radii[0]
    m = max(1, math.ceil(2.0 * r_i / resolution))
    axis = x_i[None, :] - r_i + (np.arange(m)[:, None] + 0.5) * resolution
    gx, gy = np.meshgrid(axis[:, 0], axis[:, 1], indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1) % side
    dist = torus_cross_distances(c.window, grid, np.array([c.points[j].position for j in near]))
    covered = dist <= radii[None, :]
    inside = covered[:, 0]
    total = 0.0
    cell = resolution * resolution
    for k in items:
        holders = np.array([k in c.points[j].opt.items for j in near])
        n_k = (covered[inside][:, holders]).sum(axis=1)
        total += popularity[k - 1] * cell * (1.0 / n_k).sum()
    return float(total)


# ---------------------------------------------------------------------------
# model objects


@dataclass(frozen=True)
class ScoreModel:
    """Shared behavior; concrete models override the hooks they support.
    ``interaction_neighbors`` is the one place that knows a model's range."""

    kind = ""
    sign_regime = "nonneg"

    def score_at(self, c: Configuration, i: int) -> float:
        raise NotImplementedError

    def checked_score_at(self, c: Configuration, i: int) -> float:
        return self._check(self.score_at(c, i))

    def window_scores(self, c: Configuration) -> Iterable[float]:
        """Checked scores in index order, lazily: a total stops at the first -inf."""
        return (self.checked_score_at(c, i) for i in range(c.n_points))

    def _check(self, v: float) -> float:
        if math.isnan(v) or v == math.inf:
            raise AssertionError(f"{self.kind} produced score {v!r}")
        if self.sign_regime == "nonneg":
            assert v >= 0.0 or v == NEG_INF, f"{self.kind} broke its sign regime: {v}"
        else:
            assert v <= 0.0, f"{self.kind} broke its sign regime: {v}"
        return v

    def neutral_mark(self) -> OptMark | None:
        return None

    def mark_candidates(self, c: Configuration, i: int) -> tuple[OptMark, ...] | None:
        """Finite candidate list in deterministic order, or None if continuous."""
        return None

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        raise NotImplementedError

    def perturb_mark(
        self, c: Configuration, i: int, current: OptMark, g: np.random.Generator
    ) -> OptMark:
        return self.sample_mark(c, i, g)

    def interaction_neighbors(self, c: Configuration) -> Sequence[tuple[int, ...]] | None:
        """Each point's neighbors, ascending: the only other points whose opt
        marks can move its score.  None when the interaction range is not finite."""
        return None

    def affected_points(self, c: Configuration, changed: tuple[int, ...]) -> tuple[int, ...]:
        """Superset of points whose score can move when the opt marks at
        ``changed`` change, in increasing order and including ``changed``:
        ``changed`` and their interaction neighbors, or every point.

        The set may depend on positions and base marks but never on opt
        marks: local search caches swap gains and reuses a gain for as long
        as no accepted swap's affected set meets the swap's own.  So models
        build the graph once through ``Configuration.derived``, shared by
        every configuration that ``with_opt_marks`` derives.
        """
        graph = self.interaction_neighbors(c)
        if graph is None:
            return tuple(range(c.n_points))
        out = set(changed)
        for i in changed:
            out.update(graph[i])
        return tuple(sorted(out))

    def default_base_sampler(self, window: Window) -> BaseSampler | None:
        return None

    def validate_for_window(self, window: Window) -> None:
        pass


# marks are immutable, so every point can share one candidate tuple: a search
# then builds no marks of its own, and its points read a few hot objects
_RETAIN_CANDIDATES = (Retain(False), Retain(True))
_SIGN_CANDIDATES = (SignMark("0"), SignMark("+"), SignMark("-"))


@dataclass(frozen=True)
class HardcoreModel(ScoreModel):
    kind, sign_regime = "hardcore", "nonneg"
    radius_lo: float = 0.05
    radius_hi: float = 0.15

    def score_at(self, c: Configuration, i: int) -> float:
        return hardcore_score_at(c, i)

    def neutral_mark(self) -> OptMark:
        return Retain(False)

    def mark_candidates(self, c: Configuration, i: int) -> tuple[OptMark, ...]:
        return _RETAIN_CANDIDATES

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        return Retain(bool(g.integers(0, 2)))

    def interaction_neighbors(self, c: Configuration) -> list[tuple[int, ...]]:
        return grain_contacts(c, closed=False)[0]

    def default_base_sampler(self, window: Window) -> BaseSampler:
        return grain_radius_sampler(self.radius_lo, self.radius_hi)

    def validate_for_window(self, window: Window) -> None:
        if window.kind != "cube" or window.dim not in (1, 2):
            raise ValidationError("hardcore needs a cube window of dim 1 or 2")


def _graph_adjacency(c: Configuration) -> tuple[tuple[int, ...], ...]:
    return tuple(graph_neighbors(c.window, i) for i in range(c.n_points))


@dataclass(frozen=True)
class WidomRowlinsonModel(ScoreModel):
    sign_regime = "nonneg"
    graph: str = "line"  # "line" or "tree"
    weight_lo: float = 0.0
    weight_hi: float = 1.0

    def __post_init__(self) -> None:
        if self.graph not in ("line", "tree"):
            raise ValidationError(f"graph must be line or tree, got {self.graph!r}")

    @property
    def kind(self) -> str:
        return f"wr_{self.graph}"

    def score_at(self, c: Configuration, i: int) -> float:
        """Sign 0 scores 0, signs +/- score their weight unless a graph
        neighbor carries the opposite sign, which is inadmissible."""
        if c.window.kind != self.graph:
            raise ValidationError(f"{self.kind} scores need a {self.graph} window")
        sign = _opt_mark(c, i, SignMark).sign
        if sign == "0":
            return 0.0
        opposite = "-" if sign == "+" else "+"
        for j in self.interaction_neighbors(c)[i]:
            if _opt_mark(c, j, SignMark).sign == opposite:
                return NEG_INF
        weights = _base_mark(c, i, WeightPair)
        return weights.w_plus if sign == "+" else weights.w_minus

    def mark_candidates(self, c: Configuration, i: int) -> tuple[OptMark, ...]:
        return _SIGN_CANDIDATES

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        return SignMark(("0", "+", "-")[int(g.integers(0, 3))])

    def interaction_neighbors(self, c: Configuration) -> tuple[tuple[int, ...], ...]:
        return c.derived("graph", _graph_adjacency)

    def validate_for_window(self, window: Window) -> None:
        if window.kind != self.graph:
            raise ValidationError(f"{self.kind} needs a {self.graph} window")


@dataclass(frozen=True)
class LilypondModel(ScoreModel):
    kind, sign_regime = "lilypond", "nonpos"

    def score_at(self, c: Configuration, i: int) -> float:
        return lilypond_score_at(c, i)

    def window_scores(self, c: Configuration) -> Iterable[float]:
        radii = np.array([_opt_mark(c, i, RadiusMark).radius for i in range(c.n_points)])
        if c.n_points < 2:
            return [0.0] * c.n_points
        tightest = lilypond_constraints(lilypond_distances(c), radii).min(axis=1)
        return map(self._check, lilypond_touch_scores(radii, tightest).tolist())

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        return RadiusMark(float(g.uniform(0.0, c.window.side / 2.0)))

    def perturb_mark(
        self, c: Configuration, i: int, current: OptMark, g: np.random.Generator
    ) -> OptMark:
        if g.random() < 0.5:
            return RadiusMark(abs(current.radius + float(g.normal(0.0, c.window.side / 20.0))))
        return self.sample_mark(c, i, g)

    def validate_for_window(self, window: Window) -> None:
        if window.kind != "cube":
            raise ValidationError("lilypond needs a cube window")


@dataclass(frozen=True)
class AlohaModel(ScoreModel):
    kind, sign_regime = "aloha", "nonpos"
    beta: float = 4.0

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive, got {self.beta}")

    def score_at(self, c: Configuration, i: int) -> float:
        """Log throughput of link i: own log access probability plus the log
        success factors of all interferers at i's receiver."""
        beta = self.beta
        if beta <= c.window.dim:
            raise ValidationError(f"aloha needs beta > dim, got beta={beta}, dim={c.window.dim}")
        p_i = _opt_mark(c, i, AccessProb).prob
        attenuation = aloha_attenuation(c, beta)[i].tolist()
        acc = math.log(p_i)
        for j in range(c.n_points):
            if j == i:
                continue
            x = _opt_mark(c, j, AccessProb).prob / attenuation[j]
            if x >= 1.0:
                return NEG_INF
            acc += math.log1p(-x)
        return acc

    def window_scores(self, c: Configuration) -> Iterable[float]:
        n, beta = c.n_points, self.beta
        if n and beta <= c.window.dim:
            raise ValidationError(f"aloha needs beta > dim, got beta={beta}, dim={c.window.dim}")
        probs = np.array([_opt_mark(c, i, AccessProb).prob for i in range(n)])
        # as score_at, summed left to right: log p_i, then log1p(-p_j / A[i, j])
        # for each j; the entries of j = i and of the rows that score -inf (some
        # p_j / A[i, j] >= 1) are zeroed, and log1p(-0.0) = -0.0 adds nothing
        terms = np.empty((n, n + 1))
        terms[:, 0] = list(map(math.log, probs.tolist()))
        x = terms[:, 1:]
        np.divide(probs, aloha_attenuation(c, beta), out=x)
        np.fill_diagonal(x, 0.0)
        blocked = (x >= 1.0).any(axis=1)
        x[blocked] = 0.0
        x[...] = _libm_map(math.log1p, np.negative(x, out=x))
        scores = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        scores[blocked] = NEG_INF
        return map(self._check, scores.tolist())

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        return AccessProb(1.0 - float(g.random()))

    def perturb_mark(
        self, c: Configuration, i: int, current: OptMark, g: np.random.Generator
    ) -> OptMark:
        if g.random() < 0.5:
            p = current.prob + float(g.normal(0.0, 0.1))
            p = abs(p)
            if p > 1.0:
                p = 2.0 - p
            return AccessProb(min(1.0, max(1e-12, p)))
        return self.sample_mark(c, i, g)

    def default_base_sampler(self, window: Window) -> BaseSampler:
        return receiver_offset_sampler(window.dim)

    def validate_for_window(self, window: Window) -> None:
        if window.kind != "cube":
            raise ValidationError("aloha needs a cube window")
        if self.beta <= window.dim:
            raise ValidationError(
                f"aloha needs beta > dim for summable interference, got beta={self.beta}, dim={window.dim}"
            )


@dataclass(frozen=True)
class CachingModel(ScoreModel):
    kind, sign_regime = "caching", "nonneg"
    popularity: tuple[float, ...] = (0.5, 0.3, 0.2)
    k_items: int = 1
    reserve_neutral: bool = False
    radius_lo: float = 0.5
    radius_hi: float = 1.5
    resolution: float | None = None

    def __post_init__(self) -> None:
        pop = tuple(float(p) for p in self.popularity)
        if self.reserve_neutral:
            # reserve k_items zero-popularity items at the top of the catalogue
            pop = pop + (0.0,) * self.k_items
        object.__setattr__(self, "popularity", pop)
        if not all(0.0 <= p < math.inf for p in pop):
            raise ValidationError(f"popularities must be finite and >= 0, got {pop}")
        if abs(sum(pop) - 1.0) > 1e-9:
            raise ValidationError(f"popularities must sum to 1, got {sum(pop)}")
        if not 1 <= self.k_items <= len(pop):
            raise ValidationError(
                f"cache size must be in [1, {len(pop)}], got {self.k_items}"
            )
        if self.resolution is not None and not 0.0 < self.resolution < math.inf:
            raise ValidationError(f"resolution must be finite and > 0, got {self.resolution}")

    @property
    def n_items(self) -> int:
        return len(self.popularity)

    def score_at(self, c: Configuration, i: int) -> float:
        """Popularity-weighted coverage of cache i's ball, where every covered
        location splits each stored item's credit evenly among the caches that
        hold it there.

        Exact interval sweep in dimension 1; grid quadrature at the given
        resolution (default: the smallest radius among cache i and the grains
        that touch it, over 20) in dimension 2.
        """
        items, n_items = _opt_mark(c, i, ItemSet).items, self.n_items
        if len(items) != self.k_items:
            raise MarkSpaceError(f"point {i} stores {len(items)} items, model needs {self.k_items}")
        if items and items[-1] > n_items:
            raise MarkSpaceError(f"point {i} stores item {items[-1]} > catalogue size {n_items}")
        _base_mark(c, i, GrainRadius)
        if c.window.dim == 1:
            return _caching_score_1d(c, i, self.popularity, items)
        if c.window.dim == 2:
            return _caching_score_2d(c, i, self.popularity, items, self.resolution)
        raise ValidationError(f"caching supports dim 1 or 2, got {c.window.dim}")

    def neutral_mark(self) -> OptMark | None:
        """Cache of zero-popularity items, when the catalogue has enough of
        them; otherwise the model has no neutral mark and returns None."""
        zeros = [k + 1 for k, p in enumerate(self.popularity) if p == 0.0]
        if len(zeros) < self.k_items:
            return None
        return ItemSet(tuple(zeros[-self.k_items :]))

    def mark_candidates(self, c: Configuration, i: int) -> tuple[OptMark, ...]:
        return tuple(
            ItemSet(combo)
            for combo in itertools.combinations(range(1, self.n_items + 1), self.k_items)
        )

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        picked = g.choice(self.n_items, size=self.k_items, replace=False)
        return ItemSet(tuple(sorted(int(k) + 1 for k in picked)))

    def interaction_neighbors(self, c: Configuration) -> list[tuple[int, ...]]:
        return grain_contacts(c, closed=True)[0]

    def default_base_sampler(self, window: Window) -> BaseSampler:
        return grain_radius_sampler(self.radius_lo, self.radius_hi)

    def validate_for_window(self, window: Window) -> None:
        if window.kind != "cube" or window.dim not in (1, 2):
            raise ValidationError("caching needs a cube window of dim 1 or 2")


@dataclass(frozen=True)
class MatchingModel(ScoreModel):
    kind, sign_regime = "matching", "nonpos"
    p_blue: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_blue <= 1.0:
            raise ValidationError(f"p_blue must be in [0, 1], got {self.p_blue}")

    def score_at(self, c: Configuration, i: int) -> float:
        """Minus the torus distance to the designated partner when the pairing is
        reciprocal and joins opposite colors, -inf otherwise (including partner
        indices that fall outside the configuration)."""
        idx = _opt_mark(c, i, PartnerIndex).index
        if not 0 <= idx < c.n_points or idx == i:
            return NEG_INF
        own = _base_mark(c, i, ColorMark).color
        other = _base_mark(c, idx, ColorMark).color
        if own == other:
            return NEG_INF
        back = c.points[idx].opt
        if not isinstance(back, PartnerIndex) or back.index != i:
            return NEG_INF
        return -torus_distance(c.window, c.points[i].position, c.points[idx].position)

    def mark_candidates(self, c: Configuration, i: int) -> tuple[OptMark, ...]:
        return tuple(PartnerIndex(j) for j in self.interaction_neighbors(c)[i])

    def sample_mark(self, c: Configuration, i: int, g: np.random.Generator) -> OptMark:
        candidates = self.mark_candidates(c, i)
        if not candidates:
            return PartnerIndex(-1)
        return candidates[int(g.integers(0, len(candidates)))]

    def interaction_neighbors(self, c: Configuration) -> list[tuple[int, ...]]:
        # a score reads the marks of its point and of its partner, and only a
        # partner of the opposite color can move it; current partner pointers
        # would give a smaller graph, but one that depends on opt marks
        def build(c: Configuration) -> list[tuple[int, ...]]:
            colors = [_base_mark(c, i, ColorMark).color for i in range(c.n_points)]
            return [tuple(j for j, other in enumerate(colors) if other != own) for own in colors]

        return c.derived("opposite-colors", build)

    def default_base_sampler(self, window: Window) -> BaseSampler:
        return color_sampler(self.p_blue)

    def validate_for_window(self, window: Window) -> None:
        if window.kind != "cube":
            raise ValidationError("matching needs a cube window")


# model kind -> (model class, the parameters that the kind fixes)
MODEL_KINDS = {
    "hardcore": (HardcoreModel, {}),
    "wr_line": (WidomRowlinsonModel, {"graph": "line"}),
    "wr_tree": (WidomRowlinsonModel, {"graph": "tree"}),
    "lilypond": (LilypondModel, {}),
    "aloha": (AlohaModel, {}),
    "caching": (CachingModel, {}),
    "matching": (MatchingModel, {}),
}


def build_model(kind: str, **params) -> ScoreModel:
    """Construct a model from its kind and keyword parameters, each of its
    field's declared type."""
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}, expected one of {tuple(MODEL_KINDS)}")
    cls, fixed = MODEL_KINDS[kind]
    check_field_types(cls, params, "model parameter")
    return cls(**fixed, **params)


def validate_marked_configuration(c: Configuration, model: ScoreModel) -> None:
    """Window compatibility plus one checked score per point."""
    model.validate_for_window(c.window)
    if c.model_id != model.kind:
        raise ValidationError(f"configuration is for {c.model_id!r}, model is {model.kind!r}")
    for i in range(c.n_points):
        model.checked_score_at(c, i)
