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
and re-evaluates only the swap sets whose affected sets meet them.  In
exhaustive mode two heaps pick the next swap, so a round costs about its
affected sets, not the number of points.  The trace records each accepted
swap's points, new marks and gain, not the window total after it: a total
is one ``total_window_score`` over the replayed marks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .core import (
    Configuration,
    NEG_INF,
    POS_INF,
    MarkedPoint,
    OptMark,
    ValidationError,
    _replace_points,
    rng,
    score_diff,
    sum_score_diffs,
    total_score,
)
from .models import ScoreModel

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
    max_rounds: int = 10000
    seed: int = 0
    mode: str = "auto"  # "auto" | "exhaustive" | "randomized"
    indices: tuple[int, ...] | None = None  # restrict swaps to these points

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValidationError(f"k_max must be >= 1, got {self.k_max}")
        if math.isnan(self.delta_min):
            raise ValidationError("delta_min must be a number, got NaN")
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
    new_marks: tuple[OptMark, ...]
    gain: float


@dataclass
class SearchTrace:
    initial_total: float
    steps: list[TraceStep] = field(default_factory=list)
    certificate: str = ""
    swap_evaluations: int = 0  # swap gains evaluated over the whole search


def total_window_score(c: Configuration, model: ScoreModel) -> float:
    """Score sum over the window; -inf as soon as any point is inadmissible."""
    return total_score(model.window_scores(c))


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
    set contains it, and each fresh set's best gain and new points.
    Affected sets do not depend on opt marks, so a set's gains can only
    change when an accepted swap rescores a point of its affected set:
    ``accept`` marks exactly those sets stale.  Two heaps order the sets, so
    that a round costs the sets it refills and not their number: a min-heap
    of stale set indices, and a max-heap keyed by ``(-gain, set index)`` of
    the fresh sets that could be returned (gain +inf or above delta_min),
    whose entries are dropped lazily once their set goes stale.  ``find``
    refills stale sets in index order only as far as a scan over all sets
    in enumeration order would, so it evaluates the same gains and returns
    the same swap: the first set of gain +inf, else the first of the
    highest gain.
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
        # each pool point with every candidate mark, in candidate order
        self.options: dict[int, list[MarkedPoint]] = {}
        for i in self.pool:
            cand = model.mark_candidates(c, i)
            if cand is None:
                raise ValidationError("exhaustive search needs a finite mark space")
            p = c.points[i]
            self.options[i] = [MarkedPoint(p.position, p.base, m) for m in cand]
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
        # per set its best (gain, new points), None while stale
        self.best: list[tuple[float, tuple[MarkedPoint, ...] | None] | None]
        self.best = [None] * len(self.combos)
        self.stale = list(range(len(self.combos)))  # sorted, so already a heap
        self.fresh: list[tuple[float, int]] = []

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
            p = points[i]
            points[i] = MarkedPoint(p.position, p.base, mark)
        affected = model.affected_points(self.view, swap.indices)
        after = [model.checked_score_at(self.view, j) for j in affected]
        gain = sum_score_diffs(score_diff(a, scores[j]) for j, a in zip(affected, after))
        for j, a in zip(affected, after):
            scores[j] = a
        if self.exhaustive:
            best, stale, sets_at = self.best, self.stale, self.sets_at
            for j in affected:
                for s in sets_at.get(j, ()):
                    if best[s] is not None:
                        best[s] = None
                        heapq.heappush(stale, s)
        return gain

    def _gain(self, affected: tuple[int, ...]) -> float:
        """Gain of the current points over the cached scores, with the
        conventions of ``sum_score_diffs``: -inf as soon as a point breaks,
        else +inf if a point is repaired, else the left-to-right sum."""
        self.evaluations += 1
        score_at, view, before = self.model.score_at, self.view, self.scores
        gain, repaired = 0.0, False
        for j in affected:
            after = score_at(view, j)
            old = before[j]
            # an equal pair would add 0.0, which cannot change the sum: it is never -0.0
            if after != old:
                if after == NEG_INF:
                    return NEG_INF
                if old == NEG_INF:
                    repaired = True
                else:
                    gain += after - old
        return POS_INF if repaired else gain

    def _top_fresh(self) -> tuple[float, int] | None:
        """The fresh set of highest gain, lowest index first, dropping the
        heap entries of sets that went stale or were refilled since."""
        fresh, best = self.fresh, self.best
        while fresh:
            key, s = fresh[0]
            entry = best[s]
            if entry is not None and entry[0] == -key:
                return -key, s
            heapq.heappop(fresh)
        return None

    def _find_exhaustive(self) -> SwapProposal | None:
        stale, best = self.stale, self.best
        top = self._top_fresh()
        # the first fresh set with gain +inf, or past the last set
        stop = top[1] if top is not None and top[0] == POS_INF else len(best)
        while stale and stale[0] < stop:
            s = heapq.heappop(stale)
            gain, _ = best[s] = self._best_in_set(s)
            # only a set of gain +inf or above delta_min can ever be returned
            if gain == POS_INF or gain > self.params.delta_min:
                heapq.heappush(self.fresh, (-gain, s))
            if gain == POS_INF:
                return self._proposal(s)
        if stop < len(best):
            return self._proposal(stop)
        top = self._top_fresh()
        if top is not None and top[0] > self.params.delta_min:
            return self._proposal(top[1])
        return None

    def _proposal(self, s: int) -> SwapProposal:
        return SwapProposal(self.combos[s], tuple(p.opt for p in self.best[s][1]))

    def _best_in_set(self, s: int) -> tuple[float, tuple[MarkedPoint, ...] | None]:
        """First highest gain over the set's mark choices, stopping at +inf."""
        combo, affected, points = self.combos[s], self.affected[s], self.points
        best_gain, best_points = NEG_INF, None
        if len(combo) == 1:
            # a point's options directly, without a product tuple per choice
            i = combo[0]
            current = points[i]
            for q in self.options[i]:
                if q.opt == current.opt:
                    continue
                points[i] = q
                gain = self._gain(affected)
                if gain > best_gain:
                    best_gain, best_points = gain, (q,)
                    if gain == POS_INF:
                        break
            points[i] = current
            return best_gain, best_points
        saved = [points[i] for i in combo]
        choices = [[q for q in self.options[i] if q.opt != p.opt] for i, p in zip(combo, saved)]
        for choice in itertools.product(*choices):
            for i, q in zip(combo, choice):
                points[i] = q
            gain = self._gain(affected)
            if gain > best_gain:
                best_gain, best_points = gain, choice
                if gain == POS_INF:
                    break
        for i, p in zip(combo, saved):
            points[i] = p
        return best_gain, best_points

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
            affected = model.affected_points(view, combo)
            saved = [points[i] for i in combo]
            for i, p, m in zip(combo, saved, marks):
                points[i] = MarkedPoint(p.position, p.base, m)
            gain = self._gain(affected)
            for i, p in zip(combo, saved):
                points[i] = p
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
    is hit.  The trace records every accepted swap with its gain; replaying
    the swaps gives window totals that strictly increase whenever finite.
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
        trace.steps.append(TraceStep(round_index, swap.indices, swap.new_marks, gain))
    trace.swap_evaluations = state.evaluations
    return state.configuration(), trace
