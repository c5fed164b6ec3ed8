"""Swap-based local optimization of marked configurations.

A swap proposal replaces the opt marks of a set of points.  Its gain is the
sum of per-point score differences under the conventions of
``core.sum_score_diffs``: a swap that repairs an inadmissible point while
breaking none has gain +inf and is always accepted first, a swap that breaks
any point has gain -inf and is never accepted.  Search is exhaustive over
all swaps up to a size cap when the mark space is small enough to certify
the result, and randomized proposal sampling otherwise.

``local_search`` applies the best single swap per round.  It keeps every
point's score across rounds, and in exhaustive mode each swap set's best
gain; after an accepted swap it rescores only the points that swap affects
and re-evaluates only the swap sets whose affected sets meet them.  The
influence domains and compatible-subset selection at the end of this module
are the paper's aggregated improvement step; ``local_search`` does not use
them yet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .core import (
    Configuration,
    NEG_INF,
    POS_INF,
    MarkedPoint,
    OptMark,
    ValidationError,
    Window,
    _replace_points,
    rng,
    score_diff,
    sum_score_diffs,
    total_score,
    torus_distance_linf,
)
from .models import ScoreModel, _graph_affected

# stream ids for the seeded parts of the search
_INIT_STREAM = 91
_PROPOSAL_STREAM = 92


@dataclass(frozen=True)
class SwapProposal:
    """Replace the opt marks at ``indices`` (strictly increasing) by ``new_marks``."""

    indices: tuple[int, ...]
    new_marks: tuple[OptMark, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.new_marks):
            raise ValidationError("indices and new_marks must have equal length")
        if not self.indices:
            raise ValidationError("a swap must change at least one point")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValidationError(f"indices must be strictly increasing, got {self.indices}")


@dataclass(frozen=True)
class SearchParams:
    k_max: int = 1  # largest swap size considered
    trial_budget: int = 1000  # proposals per round in randomized mode
    delta_min: float = 0.0  # accept only gains strictly above this
    epsilon: float = 1e-6  # influence domain tail tolerance
    max_rounds: int = 10000
    seed: int = 0
    mode: str = "auto"  # "auto" | "exhaustive" | "randomized"
    indices: tuple[int, ...] | None = None  # restrict swaps to these points

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValidationError(f"k_max must be >= 1, got {self.k_max}")
        if self.mode not in ("auto", "exhaustive", "randomized"):
            raise ValidationError(f"unknown search mode {self.mode!r}")
        if self.indices is not None:
            indices = tuple(self.indices)
            object.__setattr__(self, "indices", indices)
            if not indices or list(indices) != sorted(set(indices)):
                raise ValidationError(
                    f"indices must be nonempty and strictly increasing, got {indices}"
                )


@dataclass(frozen=True)
class TraceStep:
    round_index: int
    indices: tuple[int, ...]
    gain: float
    total_after: float


@dataclass
class SearchTrace:
    initial_total: float
    steps: list[TraceStep] = field(default_factory=list)
    certificate: str = ""
    swap_evaluations: int = 0  # swap gains evaluated over the whole search


def total_window_score(c: Configuration, model: ScoreModel) -> float:
    """Score sum over the window; -inf as soon as any point is inadmissible."""
    return total_score(model.window_scores(c))


def apply_swap(c: Configuration, swap: SwapProposal) -> Configuration:
    for i in swap.indices:
        if not 0 <= i < c.n_points:
            raise ValidationError(f"swap index {i} outside configuration of {c.n_points}")
    return c.with_opt_marks(dict(zip(swap.indices, swap.new_marks)))


def score_difference(c: Configuration, swap: SwapProposal, model: ScoreModel) -> float:
    """Gain of the swap over the current configuration."""
    after = apply_swap(c, swap)
    affected = model.affected_points(c, swap.indices)
    return sum_score_diffs(
        score_diff(model.score_at(after, j), model.score_at(c, j)) for j in affected
    )


def _swap_pool(c: Configuration, params: SearchParams) -> tuple[int, ...]:
    if params.indices is None:
        return tuple(range(c.n_points))
    for i in params.indices:
        if not 0 <= i < c.n_points:
            raise ValidationError(f"restricted index {i} outside configuration")
    return params.indices


def exhaustive_feasible(
    c: Configuration, model: ScoreModel, indices: tuple[int, ...] | None = None
) -> bool:
    """Whether full enumeration fits the work bound used by mode "auto"."""
    pool = indices if indices is not None else tuple(range(c.n_points))
    if not pool:
        return True
    width = 0
    for i in pool:
        cand = model.mark_candidates(c, i)
        if cand is None:
            return False
        width = max(width, len(cand))
    return width ** len(pool) * len(pool) <= 10**6


class _SearchState:
    """The current marks of one search and the work its rounds can reuse.

    It holds the checked score of every point.  In exhaustive mode it also
    holds every swap set (index combination, in enumeration order) with its
    affected set, a reverse index from each point to the sets whose affected
    set contains it, and each set's best ``(gain, swap)``.  Affected sets do
    not depend on opt marks, so a set's gains can only change when an
    accepted swap rescores a point of its affected set: ``accept`` marks
    exactly those sets stale and ``find`` refills them lazily, in
    enumeration order.
    """

    def __init__(self, c: Configuration, model: ScoreModel, params: SearchParams) -> None:
        self.model = model
        self.params = params
        self.points = list(c.points)
        # the current configuration; its point list is updated in place
        self.view = _replace_points(c, self.points)
        self.scores = [model.checked_score_at(c, i) for i in range(c.n_points)]
        self.pool = _swap_pool(c, params) if c.n_points else ()
        self.exhaustive = params.mode == "exhaustive" or (
            params.mode == "auto" and exhaustive_feasible(c, model, self.pool)
        )
        self.evaluations = 0  # swap gains evaluated
        if self.exhaustive:
            self._index_swap_sets(c)

    def _index_swap_sets(self, c: Configuration) -> None:
        model, params = self.model, self.params
        self.options: dict[int, list[tuple[OptMark, MarkedPoint]]] = {}
        for i in self.pool:
            cand = model.mark_candidates(c, i)
            if cand is None:
                raise ValidationError("exhaustive search needs a finite mark space")
            self.options[i] = [(m, replace(c.points[i], opt=m)) for m in cand]
        k_max = min(params.k_max, len(self.pool))
        self.combos = [
            combo
            for k in range(1, k_max + 1)
            for combo in itertools.combinations(self.pool, k)
        ]
        self.affected = [model.affected_points(c, combo) for combo in self.combos]
        self.sets_at: dict[int, list[int]] = {}
        for s, affected in enumerate(self.affected):
            for j in affected:
                self.sets_at.setdefault(j, []).append(s)
        self.best: list[tuple[float, SwapProposal | None] | None] = [None] * len(self.combos)

    def configuration(self) -> Configuration:
        return _replace_points(self.view, tuple(self.points))

    def find(self, stream: int) -> SwapProposal | None:
        if not self.pool:
            return None
        if self.exhaustive:
            return self._find_exhaustive()
        return self._find_randomized(stream)

    def accept(self, swap: SwapProposal) -> float:
        """Apply the swap, rescore the points it affects and return its gain."""
        model, points, scores = self.model, self.points, self.scores
        for i, mark in zip(swap.indices, swap.new_marks):
            points[i] = replace(points[i], opt=mark)
        affected = model.affected_points(self.view, swap.indices)
        after = [model.checked_score_at(self.view, j) for j in affected]
        gain = sum_score_diffs(score_diff(a, scores[j]) for j, a in zip(affected, after))
        for j, a in zip(affected, after):
            scores[j] = a
        if self.exhaustive:
            for j in affected:
                for s in self.sets_at.get(j, ()):
                    self.best[s] = None
        return gain

    def _gain(
        self, combo: tuple[int, ...], new_points: list[MarkedPoint], affected: tuple[int, ...]
    ) -> float:
        """Gain of putting new_points at combo, over the cached scores."""
        self.evaluations += 1
        points, score_at, view, before = self.points, self.model.score_at, self.view, self.scores
        saved = [points[i] for i in combo]
        for i, p in zip(combo, new_points):
            points[i] = p
        gain = sum_score_diffs(score_diff(score_at(view, j), before[j]) for j in affected)
        for i, p in zip(combo, saved):
            points[i] = p
        return gain

    def _find_exhaustive(self) -> SwapProposal | None:
        best_gain = self.params.delta_min
        best: SwapProposal | None = None
        for s, entry in enumerate(self.best):
            if entry is None:
                entry = self.best[s] = self._best_in_set(s)
            gain, swap = entry
            if gain == POS_INF:
                return swap
            if gain > best_gain:
                best_gain, best = gain, swap
        return best

    def _best_in_set(self, s: int) -> tuple[float, SwapProposal | None]:
        """First highest gain over the set's mark choices, stopping at +inf."""
        combo, affected, points = self.combos[s], self.affected[s], self.points
        choices = [[o for o in self.options[i] if o[0] != points[i].opt] for i in combo]
        best_gain, best_marks = NEG_INF, None
        for choice in itertools.product(*choices):
            gain = self._gain(combo, [p for _, p in choice], affected)
            if gain > best_gain:
                best_gain, best_marks = gain, tuple(m for m, _ in choice)
                if gain == POS_INF:
                    break
        return best_gain, None if best_marks is None else SwapProposal(combo, best_marks)

    def _find_randomized(self, stream: int) -> SwapProposal | None:
        model, params, pool, points, view = (
            self.model, self.params, self.pool, self.points, self.view
        )
        k_max = min(params.k_max, len(pool))
        g = rng(params.seed, _PROPOSAL_STREAM, stream)
        best_gain = params.delta_min
        best: tuple[tuple[int, ...], tuple[OptMark, ...]] | None = None
        for _ in range(params.trial_budget):
            k = int(g.integers(1, k_max + 1))
            combo = tuple(sorted(pool[int(j)] for j in g.choice(len(pool), size=k, replace=False)))
            marks = []
            for i in combo:
                current = points[i].opt
                cand = model.mark_candidates(view, i)
                if cand is None:
                    marks.append(model.perturb_mark(view, i, current, g))
                else:
                    alts = [m for m in cand if m != current]
                    if not alts:
                        marks.append(current)
                        continue
                    marks.append(alts[int(g.integers(0, len(alts)))])
            new_points = [replace(points[i], opt=m) for i, m in zip(combo, marks)]
            gain = self._gain(combo, new_points, model.affected_points(view, combo))
            if gain == POS_INF:
                return SwapProposal(combo, tuple(marks))
            if gain > best_gain:
                best_gain, best = gain, (combo, tuple(marks))
        return None if best is None else SwapProposal(*best)


def find_valid_swap(
    c: Configuration,
    model: ScoreModel,
    params: SearchParams,
    stream: int = 0,
    state: _SearchState | None = None,
) -> SwapProposal | None:
    """Best swap of size <= k_max with gain above delta_min, or None.

    Exhaustive mode scans every swap in deterministic order (sizes ascending,
    index tuples lexicographic, candidate marks in model order) and returns
    the highest gain, ties resolved by enumeration order.  A gain of +inf
    (repair) is returned as soon as it is seen.  Randomized mode evaluates
    trial_budget seeded proposals and keeps the best.  Swaps touch only
    params.indices when that restriction is set.

    ``state`` is the search state that ``local_search`` keeps across rounds
    for the configuration ``c``; without it, a fresh one is built from ``c``.
    """
    if state is None:
        state = _SearchState(c, model, params)
    return state.find(stream)


def initialize_marks(
    c: Configuration, model: ScoreModel, params: SearchParams
) -> Configuration:
    """Fill unset opt marks: the neutral mark where the model has one,
    otherwise iid samples from the mark space."""
    missing = [i for i in range(c.n_points) if c.points[i].opt is None]
    if not missing:
        return c
    neutral = model.neutral_mark()
    if neutral is not None:
        return c.with_opt_marks({i: neutral for i in missing})
    g = rng(params.seed, _INIT_STREAM)
    return c.with_opt_marks({i: model.sample_mark(c, i, g) for i in missing})


def local_search(
    c: Configuration, model: ScoreModel, params: SearchParams
) -> tuple[Configuration, SearchTrace]:
    """Ascend the window score by repeatedly applying the best valid swap.

    Stops when no swap clears delta_min (certified "locally-optimal-k{k}"
    when the scan was exhaustive, "uncertified" otherwise) or when max_rounds
    is hit.  The trace records every accepted swap, its gain, and the running
    total, which is strictly increasing whenever finite.
    """
    c = initialize_marks(c, model, params)
    state = _SearchState(c, model, params)
    trace = SearchTrace(initial_total=total_score(state.scores), certificate="max-rounds")
    for round_index in range(params.max_rounds):
        swap = find_valid_swap(state.view, model, params, stream=round_index, state=state)
        if swap is None:
            trace.certificate = (
                f"locally-optimal-k{min(params.k_max, max(len(state.pool), 1))}"
                if state.exhaustive
                else "uncertified-budget-exhausted"
            )
            break
        gain = state.accept(swap)
        trace.steps.append(TraceStep(round_index, swap.indices, gain, total_score(state.scores)))
    trace.swap_evaluations = state.evaluations
    return state.configuration(), trace


# ---------------------------------------------------------------------------
# influence domains and compatible swap selection


@dataclass(frozen=True)
class InfluenceDomain:
    """Region a swap can influence: cubes on torus windows, sites on graphs.

    A cube (center, r) is the closed axis cube of side r around the center.
    """

    window: Window
    cubes: tuple[tuple[tuple[float, ...], float], ...] = ()
    sites: tuple[int, ...] = ()

    def contains_position(self, position) -> bool:
        if self.window.kind != "cube":
            return position in self.sites
        for center, r in self.cubes:
            if torus_distance_linf(self.window, center, position) <= r / 2.0:
                return True
        return False

    def intersects(self, other: "InfluenceDomain") -> bool:
        if self.window.kind != "cube":
            return bool(set(self.sites) & set(other.sites))
        for (ca, ra) in self.cubes:
            for (cb, rb) in other.cubes:
                if torus_distance_linf(self.window, ca, cb) <= (ra + rb) / 2.0:
                    return True
        return False


def influence_domain(
    c: Configuration, model: ScoreModel, swap: SwapProposal, epsilon: float
) -> InfluenceDomain:
    """Union of per-point influence regions of the changed points, with radii
    evaluated under both the old and the new marks (the larger wins)."""
    if c.window.kind != "cube":
        return InfluenceDomain(window=c.window, sites=_graph_affected(c, swap.indices))
    after = apply_swap(c, swap)
    cubes = []
    for i in swap.indices:
        r = max(
            model.stabilization_radius(c, i, epsilon),
            model.stabilization_radius(after, i, epsilon),
        )
        cubes.append((c.points[i].position, r))
    return InfluenceDomain(window=c.window, cubes=tuple(cubes))


def iterate_influence_domain(
    c: Configuration, model: ScoreModel, domain: InfluenceDomain, epsilon: float
) -> InfluenceDomain:
    """Grow a domain once: add the influence region of every point inside it."""
    if c.window.kind != "cube":
        return InfluenceDomain(window=c.window, sites=_graph_affected(c, domain.sites))
    cubes = list(domain.cubes)
    for j in range(c.n_points):
        if domain.contains_position(c.points[j].position):
            r = model.stabilization_radius(c, j, epsilon)
            cubes.append((c.points[j].position, r))
    return InfluenceDomain(window=c.window, cubes=tuple(cubes))


def matern_compatible_subset(
    c: Configuration,
    model: ScoreModel,
    swaps: list[SwapProposal],
    epsilon: float,
    priorities: list[float] | None = None,
) -> list[int]:
    """Indices of a maximal compatible set of swaps.

    Conflict means the once-iterated influence domains intersect.  Swaps are
    visited in order of priority (ties by list position) and retained when
    they conflict with no previously retained swap, so every rejected swap
    conflicts with a retained one of lower priority.
    """
    if priorities is None:
        priorities = [float(k) for k in range(len(swaps))]
    if len(priorities) != len(swaps):
        raise ValidationError("need one priority per swap")
    iterated = [
        iterate_influence_domain(
            c, model, influence_domain(c, model, swap, epsilon), epsilon
        )
        for swap in swaps
    ]
    order = sorted(range(len(swaps)), key=lambda k: (priorities[k], k))
    retained: list[int] = []
    for k in order:
        if all(not iterated[k].intersects(iterated[r]) for r in retained):
            retained.append(k)
    return sorted(retained)


def apply_swaps(c: Configuration, swaps: list[SwapProposal]) -> Configuration:
    """Apply index-disjoint swaps simultaneously."""
    assignments: dict[int, OptMark] = {}
    for swap in swaps:
        for i, mark in zip(swap.indices, swap.new_marks):
            if i in assignments:
                raise ValidationError(f"swaps overlap at point {i}")
            assignments[i] = mark
    for i in assignments:
        if not 0 <= i < c.n_points:
            raise ValidationError(f"swap index {i} outside configuration")
    return c.with_opt_marks(assignments)
