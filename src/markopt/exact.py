"""Exact and certified reference solutions.

Everything here is an oracle for the search machinery: full enumeration with
a work cap, the sign-chain dynamic program with its blocking-interval
shields, exhaustive deviation checks on tree balls, the exact lilypond
growth solution, per-point optimal Aloha access probabilities, and optimal
matchings by permutation enumeration.  The pipeline reaches its certified
routes through one table, ROUTES, and one function, oracle_marking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NEG_INF,
    POS_INF,
    AccessProb,
    ColorMark,
    Configuration,
    MarkSpaceError,
    MarkedPoint,
    OptMark,
    PartnerIndex,
    RadiusMark,
    SignMark,
    ValidationError,
    WeightPair,
    WorkCapError,
    _replace_points,
    positions_array,
    score_diff,
    sum_score_diffs,
    torus_cross_distances,
    tree_structure,
    tree_vertex_count,
)
from .models import (
    MatchingModel,
    ScoreModel,
    _base_mark,
    _opt_mark,
    aloha_attenuation,
    lilypond_constraints,
    lilypond_distances,
    lilypond_touch_scores,
)
from .optimize import SwapProposal, total_window_score

BRUTE_FORCE_CAP = 10**7  # evaluated markings times points
TREE_DEPTH_CAP = 6
TREE_VMAX_CAP = 4
MATCHING_PAIR_CAP = 9


# ---------------------------------------------------------------------------
# full enumeration


@dataclass(frozen=True)
class BruteForceResult:
    marks: tuple[OptMark, ...]
    value: float
    multiplicity: int


def brute_force_optimum(
    c: Configuration, model: ScoreModel, work_cap: int = BRUTE_FORCE_CAP
) -> BruteForceResult:
    """Highest-total marking by enumerating the full discrete mark space.

    Ties keep the first marking in enumeration order (candidate lists in
    model order, later points cycling fastest) and are counted in
    multiplicity.  If every marking is inadmissible the result carries value
    -inf and multiplicity 0.
    """
    n = c.n_points
    if n == 0:
        return BruteForceResult((), 0.0, 1)
    candidates = []
    work = n
    for i in range(n):
        cand = model.mark_candidates(c, i)
        if cand is None:
            raise ValidationError("brute force needs a finite mark space")
        if not cand:
            raise ValidationError(f"point {i} has an empty candidate list")
        candidates.append(cand)
        work *= len(cand)
        if work > work_cap:
            raise WorkCapError(
                f"enumeration needs {work} > {work_cap} score evaluations"
            )
    # each point with each of its candidate marks, built once
    rows = [
        [MarkedPoint(p.position, p.base, mark) for mark in cand]
        for p, cand in zip(c.points, candidates)
    ]
    best_points: tuple[MarkedPoint, ...] | None = None
    best_value = NEG_INF
    multiplicity = 0
    for points in itertools.product(*rows):
        value = total_window_score(_replace_points(c, points), model)
        if value == NEG_INF:
            continue
        if best_points is None or value > best_value:
            best_points, best_value, multiplicity = points, value, 1
        elif value == best_value:
            multiplicity += 1
    if best_points is None:
        return BruteForceResult(tuple(candidates[i][0] for i in range(n)), NEG_INF, 0)
    return BruteForceResult(tuple(p.opt for p in best_points), best_value, multiplicity)


# ---------------------------------------------------------------------------
# sign chains: blocking intervals, dynamic program, shield decomposition

SIGNS = ("0", "+", "-")


def _compatible(a: str | None, b: str | None) -> bool:
    if a is None or b is None:
        return True
    return not ((a == "+" and b == "-") or (a == "-" and b == "+"))


def _chain_weights(c: Configuration) -> list[tuple[float, float]]:
    if c.window.kind != "line":
        raise ValidationError("sign-chain analysis needs a line window")
    out = []
    for i, p in enumerate(c.points):
        if not isinstance(p.base, WeightPair):
            raise MarkSpaceError(f"point {i} needs a weight pair base mark")
        out.append((p.base.w_plus, p.base.w_minus))
    return out


@dataclass(frozen=True)
class BlockingInterval:
    """Site range [lo, hi] whose plus weights dominate the nearby minus
    weights strongly enough to force a plus inside, whatever the rest of the
    chain does."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi or self.lo < 0:
            raise ValidationError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


def _all_blocking_intervals(weights: list[tuple[float, float]]) -> list[BlockingInterval]:
    n = len(weights)
    wp = [w[0] for w in weights]
    wm = [w[1] for w in weights]
    cum_m = [0.0]
    for w in wm:
        cum_m.append(cum_m[-1] + w)
    out = []
    for lo in range(n):
        min_plus = POS_INF
        max_minus = NEG_INF
        plus_sum = 0.0
        for hi in range(lo, n):
            min_plus = min(min_plus, wp[hi])
            max_minus = max(max_minus, wm[hi])
            plus_sum += wp[hi]
            if not min_plus > max_minus:
                break
            a, b = max(lo - 1, 0), min(hi + 1, n - 1)
            if plus_sum > cum_m[b + 1] - cum_m[a]:
                out.append(BlockingInterval(lo, hi))
    return out


def _maximal_intervals(blocking: list[BlockingInterval]) -> list[BlockingInterval]:
    intervals = sorted(blocking, key=lambda iv: (iv.lo, -iv.hi))
    maximal = []
    best_hi = -1
    for iv in intervals:
        if iv.hi > best_hi:
            maximal.append(iv)
            best_hi = iv.hi
    return maximal


@dataclass(frozen=True)
class DpResult:
    marks: tuple[str, ...]
    value: float
    multiplicity: int


def wr_chain_dp(
    weights: list[tuple[float, float]],
    left_boundary: str | None = None,
    right_boundary: str | None = None,
) -> DpResult:
    """Optimal sign assignment of a chain segment.

    Boundaries are the fixed marks of the sites adjacent to the segment
    (None for a free end); opposite signs may not sit next to each other.
    Ties pick the first marking in lexicographic 0 < + < - order and are
    counted in multiplicity.  The reported value is the left-to-right rescore
    of the chosen marks.
    """
    for b in (left_boundary, right_boundary):
        if b is not None and b not in SIGNS:
            raise ValidationError(f"boundary must be one of {SIGNS} or None, got {b!r}")
    m = len(weights)
    if m == 0:
        if _compatible(left_boundary, right_boundary):
            return DpResult((), 0.0, 1)
        return DpResult((), NEG_INF, 0)

    def site(k: int, s: str) -> float:
        if s == "0":
            return 0.0
        return weights[k][0] if s == "+" else weights[k][1]

    # suffix values: best total over sites k..m-1 given the mark at site k
    val = [[NEG_INF] * 3 for _ in range(m)]
    cnt = [[0] * 3 for _ in range(m)]
    nxt = [[NEG_INF] * 3 for _ in range(m)]  # best continuation chosen at (k, s)
    for si, s in enumerate(SIGNS):
        if _compatible(s, right_boundary):
            val[m - 1][si] = site(m - 1, s)
            cnt[m - 1][si] = 1
    for k in range(m - 2, -1, -1):
        for si, s in enumerate(SIGNS):
            best = NEG_INF
            count = 0
            for sj, t in enumerate(SIGNS):
                if not _compatible(s, t) or val[k + 1][sj] == NEG_INF:
                    continue
                v = val[k + 1][sj]
                if v > best:
                    best, count = v, cnt[k + 1][sj]
                elif v == best:
                    count += cnt[k + 1][sj]
            if best != NEG_INF:
                val[k][si] = site(k, s) + best
                cnt[k][si] = count
                nxt[k][si] = best
    best = NEG_INF
    multiplicity = 0
    for si, s in enumerate(SIGNS):
        if not _compatible(left_boundary, s) or val[0][si] == NEG_INF:
            continue
        if val[0][si] > best:
            best, multiplicity = val[0][si], cnt[0][si]
        elif val[0][si] == best:
            multiplicity += cnt[0][si]
    assert best != NEG_INF, "an all-zero assignment is always admissible"
    # forward greedy pick of the lexicographically smallest optimal marking
    marks = []
    prev: str | None = left_boundary
    target = best
    for k in range(m):
        for si, s in enumerate(SIGNS):
            if _compatible(prev, s) and val[k][si] == target:
                marks.append(s)
                target = nxt[k][si]
                prev = s
                break
        else:
            raise AssertionError("dynamic program lost its own optimum")
    value = 0.0
    for k, s in enumerate(marks):
        value += site(k, s)
    assert abs(value - best) <= 1e-9 * max(1.0, abs(best))
    return DpResult(tuple(marks), value, multiplicity)


def wr_segment_brute_force(
    weights: list[tuple[float, float]],
    left_boundary: str | None = None,
    right_boundary: str | None = None,
    chunk: int = 1 << 20,
) -> DpResult:
    """Independent enumeration of all 3**m sign assignments of a segment.

    Rows run in base-3 odometer order, site 0 the leading digit, which is the
    lexicographic order of the dynamic program.  Each site extends every row
    by an outer sum with its three sign scores, so row totals accumulate
    site scores left to right and values and tie counts are directly
    comparable.  Rows that share a leading-digit prefix form one chunk of at
    most chunk rows, and of at least three.
    """
    m = len(weights)
    if m == 0:
        return wr_chain_dp(weights, left_boundary, right_boundary)
    # row cap, not row * column work: the sweep is vectorized over rows
    if 3**m > BRUTE_FORCE_CAP:
        raise WorkCapError(f"segment of {m} sites exceeds the enumeration cap")
    if not {left_boundary, right_boundary} <= {None, *SIGNS}:
        raise ValidationError(
            f"boundaries must be in {SIGNS} or None: {left_boundary!r}, {right_boundary!r}"
        )
    scores = np.array([(0.0, wp, wm) for wp, wm in weights])
    # follows[a, b]: sign digit b may sit next to sign digit a ("+" and "-" clash)
    follows = np.array([[True, True, True], [True, True, False], [True, False, True]])

    def extend(totals, valid, last, sites):
        """Continue the rows by the sites, each an outer sum with its three
        sign scores.  last is the final digit (or left boundary) of a single
        starting row, or None when rows come in threes by final digit."""
        for k in sites:
            totals = (totals[:, None] + scores[k]).ravel()
            if last is None:
                valid = (valid.reshape(-1, 3)[:, :, None] & follows).ravel()
            else:
                valid, last = valid & follows[last], None
        return totals, valid

    left, right = (SIGNS.index(b or "0") for b in (left_boundary, right_boundary))
    suffix = 1
    while suffix < m and 3 ** (suffix + 1) <= chunk:
        suffix += 1
    prefix_totals, prefix_valid = extend(
        np.zeros(1), np.ones(1, dtype=bool), left, range(m - suffix)
    )
    best = NEG_INF
    best_row = -1
    multiplicity = 0
    for p in range(len(prefix_totals)):
        last = p % 3 if m > suffix else left
        rows = slice(p, p + 1)
        totals, valid = extend(prefix_totals[rows], prefix_valid[rows], last, range(m - suffix, m))
        totals[~(valid.reshape(-1, 3) & follows[right]).ravel()] = NEG_INF
        chunk_max = float(totals.max())
        if chunk_max == NEG_INF:
            continue
        if chunk_max > best:
            best = chunk_max
            best_row = p * 3**suffix + int(np.argmax(totals))
            multiplicity = int(np.count_nonzero(totals == best))
        elif chunk_max == best:
            multiplicity += int(np.count_nonzero(totals == best))
    if best_row < 0:
        return DpResult((), NEG_INF, 0)
    marks = tuple(SIGNS[best_row // 3**k % 3] for k in range(m - 1, -1, -1))
    return DpResult(marks, best, multiplicity)


@dataclass(frozen=True)
class WrSegment:
    """Resolved stretch between two consecutive forced-plus anchor sites."""

    left_anchor: int
    right_anchor: int
    multiplicity: int

    @property
    def interior_length(self) -> int:
        return self.right_anchor - self.left_anchor - 1


@dataclass
class WrResolution:
    marks: tuple[str, ...]
    resolved: tuple[bool, ...]
    anchors: tuple[int, ...]
    anchor_sources: dict[int, BlockingInterval]  # a blocking interval forcing each anchor
    intervals: list[BlockingInterval]  # maximal blocking intervals
    segments: list[WrSegment]
    flags: list[str]


def wr_anchor_sites(interval: BlockingInterval) -> tuple[int, ...]:
    """Sites of a blocking interval that carry a plus in every locally
    optimal marking: the site itself for length 1, the interior for length
    >= 3.  Length-2 intervals contain a plus as well, but which of the two
    sites carries it depends on the marks outside, so they pin no anchor."""
    if interval.length == 1:
        return (interval.lo,)
    if interval.length >= 3:
        return tuple(range(interval.lo + 1, interval.hi))
    return ()


def wr_unique_marking(c: Configuration) -> WrResolution:
    """Shield decomposition of the optimal sign chain.

    Anchor sites collected from every blocking interval are forced to plus.
    Between consecutive anchors the marking is completed by the chain
    dynamic program with plus boundaries; those stretches depend only on
    their own weights, so they are reported as resolved.  Sites before the
    first anchor and after the last see the free window edge and stay
    unresolved; with fewer than two anchors nothing is resolved and the
    whole chain is just the free-boundary optimum, flagged accordingly.
    """
    weights = _chain_weights(c)
    n = len(weights)
    blocking = _all_blocking_intervals(weights)
    intervals = _maximal_intervals(blocking)
    anchor_sources: dict[int, BlockingInterval] = {}
    for iv in blocking:
        for site in wr_anchor_sites(iv):
            anchor_sources.setdefault(site, iv)
    anchors = tuple(sorted(anchor_sources))
    flags: list[str] = []
    segments: list[WrSegment] = []
    marks: list[str] = [""] * n
    resolved = [False] * n
    if len(anchors) < 2:
        flags.append("no-shields" if not anchors else "single-shield")
        flags.append("unresolved-boundary")
        fill = wr_chain_dp(weights, None, None)
        marks = list(fill.marks)
    else:
        for a in anchors:
            marks[a] = "+"
            resolved[a] = True
        for a1, a2 in zip(anchors, anchors[1:]):
            fill = wr_chain_dp(weights[a1 + 1 : a2], "+", "+")
            for off, s in enumerate(fill.marks):
                marks[a1 + 1 + off] = s
                resolved[a1 + 1 + off] = True
            segments.append(WrSegment(a1, a2, fill.multiplicity))
        first, last = anchors[0], anchors[-1]
        if first > 0:
            head = wr_chain_dp(weights[:first], None, "+")
            for k, s in enumerate(head.marks):
                marks[k] = s
        if last < n - 1:
            tail = wr_chain_dp(weights[last + 1 :], "+", None)
            for off, s in enumerate(tail.marks):
                marks[last + 1 + off] = s
        if first > 0 or last < n - 1:
            flags.append("unresolved-boundary")
    for k in range(n - 1):
        assert _compatible(marks[k], marks[k + 1]), "adjacent opposite signs"
    for iv in intervals:
        assert any(
            marks[k] == "+" for k in range(iv.lo, iv.hi + 1)
        ), f"blocking interval [{iv.lo}, {iv.hi}] lost its plus"
    return WrResolution(
        tuple(marks), tuple(resolved), anchors, anchor_sources, intervals, segments, flags
    )


def wr_marks_to_configuration(c: Configuration, marks: tuple[str, ...]) -> Configuration:
    return c.with_opt_marks({i: SignMark(s) for i, s in enumerate(marks)})


# ---------------------------------------------------------------------------
# tree balls


@dataclass
class TreeCheckResult:
    locally_optimal: bool
    witness: SwapProposal | None
    witness_gain: float
    deviations_tested: int
    flip_sets_tested: int
    flip_excess_max: float  # max gain minus bound over flip-set deviations


def tree_local_optimality_check(
    c: Configuration,
    v_max: int,
    weight_lo: float = 0.9,
    weight_hi: float = 1.1,
) -> TreeCheckResult:
    """Exhaustive deviation test of a sign marking on a tree ball.

    Two deviation families are scanned: every reassignment of at most v_max
    interior vertices, and, when the marking is uniformly plus or minus,
    every flip of an interior set V of at most v_max vertices to the
    opposite sign with its boundary zeroed.  For the flip family the gain is
    compared against weight_hi*#V - weight_lo*(#V + #boundary), which bounds
    it whenever all weights lie in [weight_lo, weight_hi].  The first
    positive-gain deviation is returned as a witness.
    """
    if c.window.kind != "tree":
        raise ValidationError("tree check needs a tree window")
    depth = c.window.depth
    if depth > TREE_DEPTH_CAP or v_max > TREE_VMAX_CAP:
        raise WorkCapError(
            f"tree check capped at depth {TREE_DEPTH_CAP}, v_max {TREE_VMAX_CAP}"
        )
    adjacency, depths = tree_structure(depth)
    n = tree_vertex_count(depth)
    marks = []
    wp = []
    wm = []
    for i, p in enumerate(c.points):
        if not isinstance(p.opt, SignMark):
            raise MarkSpaceError(f"point {i} needs a sign mark")
        if not isinstance(p.base, WeightPair):
            raise MarkSpaceError(f"point {i} needs a weight pair base mark")
        marks.append(p.opt.sign)
        wp.append(p.base.w_plus)
        wm.append(p.base.w_minus)

    def score(v: int, overlay: dict[int, str]) -> float:
        s = overlay.get(v, marks[v])
        if s == "0":
            return 0.0
        opp = "-" if s == "+" else "+"
        for u in adjacency[v]:
            if overlay.get(u, marks[u]) == opp:
                return NEG_INF
        return wp[v] if s == "+" else wm[v]

    before = [score(v, {}) for v in range(n)]

    def gain(overlay: dict[int, str]) -> float:
        affected = set(overlay)
        for v in overlay:
            affected.update(adjacency[v])
        return sum_score_diffs(
            score_diff(score(v, overlay), before[v]) for v in sorted(affected)
        )

    interior = [v for v in range(n) if depths[v] < depth]
    tested = 0
    flips = 0
    excess_max = NEG_INF
    uniform = len(set(marks)) == 1 and marks[0] in ("+", "-")
    witness: SwapProposal | None = None
    witness_gain = NEG_INF

    for k in range(1, min(v_max, len(interior)) + 1):
        for combo in itertools.combinations(interior, k):
            for signs in itertools.product(
                *(tuple(s for s in SIGNS if s != marks[v]) for v in combo)
            ):
                overlay = dict(zip(combo, signs))
                tested += 1
                g = gain(overlay)
                if g > 0.0 and witness is None:
                    witness = SwapProposal(combo, tuple(SignMark(s) for s in signs))
                    witness_gain = g
    if uniform:
        flip_to = "-" if marks[0] == "+" else "+"
        for k in range(1, min(v_max, len(interior)) + 1):
            for combo in itertools.combinations(interior, k):
                vset = set(combo)
                boundary = set()
                for v in combo:
                    boundary.update(u for u in adjacency[v] if u not in vset)
                overlay = {v: flip_to for v in combo}
                overlay.update({u: "0" for u in boundary})
                flips += 1
                g = gain(overlay)
                bound = weight_hi * len(vset) - weight_lo * (len(vset) + len(boundary))
                excess_max = max(excess_max, g - bound)
                if g > 0.0 and witness is None:
                    indices = tuple(sorted(overlay))
                    witness = SwapProposal(
                        indices, tuple(SignMark(overlay[v]) for v in indices)
                    )
                    witness_gain = g
    return TreeCheckResult(
        locally_optimal=witness is None,
        witness=witness,
        witness_gain=witness_gain,
        deviations_tested=tested,
        flip_sets_tested=flips,
        flip_excess_max=excess_max,
    )


def uniform_sign_configuration(c: Configuration, sign: str) -> Configuration:
    return c.with_opt_marks({i: SignMark(sign) for i in range(c.n_points)})


# ---------------------------------------------------------------------------
# lilypond growth


@dataclass(frozen=True)
class LilypondEvent:
    order: int
    index: int
    time: float
    cause: str  # "pair" or "frozen"
    partner: int


@dataclass
class LilypondResult:
    radii: tuple[float, ...]
    residual: float
    events: list[LilypondEvent]


def _lilypond_distances(c: Configuration) -> np.ndarray:
    if c.window.kind != "cube":
        raise ValidationError("lilypond needs a cube window")
    if c.n_points < 2:
        raise ValidationError("lilypond growth needs at least 2 points")
    return lilypond_distances(c)


def _lilypond_residual(distances: np.ndarray, radii: np.ndarray) -> float:
    u = lilypond_constraints(distances, radii)
    return float(np.abs(radii - u.min(axis=1)).max())


def lilypond_solve(c: Configuration) -> LilypondResult:
    """Exact simultaneous unit-rate growth: every ball grows until it first
    touches another ball, where it freezes.

    Events are processed in time order: the earliest pending event is either
    two growing balls meeting halfway or a growing ball reaching a frozen
    one, ties to the first index pair and then to pairs.  A freeze updates
    only the rows it touches, so the work is O(n^2).  The result is
    hard-core (ball interiors disjoint) and a fixed point of the touch
    constraints, reported as the residual.
    """
    d = _lilypond_distances(c)
    n = c.n_points
    radii = np.zeros(n)
    growing = np.ones(n, dtype=bool)
    # each growing ball's earliest pair and frozen events; inf once frozen,
    # as are the frozen columns of half
    half = d / 2.0
    pair_to, pair_at = half.argmin(axis=1), half.min(axis=1)
    frozen_to, frozen_at = np.full(n, n), np.full(n, np.inf)
    events: list[LilypondEvent] = []
    now = 0.0
    while len(events) < n:
        i, k = int(pair_at.argmin()), int(frozen_at.argmin())
        order = len(events)
        if frozen_at[k] < pair_at[i]:
            t, newly = float(frozen_at[k]), (k,)
            events.append(LilypondEvent(order, k, t, "frozen", int(frozen_to[k])))
        else:
            t, newly = float(pair_at[i]), tuple(sorted((i, int(pair_to[i]))))
            events.append(LilypondEvent(order, newly[0], t, "pair", newly[1]))
            events.append(LilypondEvent(order + 1, newly[1], t, "pair", newly[0]))
        assert t >= now - 1e-9, "events must be chronological"
        now = max(now, t)
        for f in newly:
            radii[f], growing[f], pair_at[f], frozen_at[f] = t, False, np.inf, np.inf
            half[:, f] = np.inf
            cand = d[f] - t  # d is symmetric bit for bit
            better = growing & ((cand < frozen_at) | ((cand == frozen_at) & (f < frozen_to)))
            frozen_at[better], frozen_to[better] = cand[better], f
        stale = np.flatnonzero(growing & ((pair_to == newly[0]) | (pair_to == newly[-1])))
        rows = half[stale]
        pair_to[stale], pair_at[stale] = rows.argmin(axis=1), rows.min(axis=1)
    del half
    gap = d - (radii[:, None] + radii[None, :])
    assert float(gap.min()) >= -1e-9, "lilypond produced overlapping balls"
    return LilypondResult(tuple(float(r) for r in radii), _lilypond_residual(d, radii), events)


def lilypond_radii_configuration(c: Configuration, radii) -> Configuration:
    return c.with_opt_marks({i: RadiusMark(float(r)) for i, r in enumerate(radii)})


def lilypond_perturbation_search(
    c: Configuration, deltas: tuple[float, ...] = (1e-3, 1e-2)
) -> tuple[float, tuple[int, float] | None]:
    """Best gain over all single-point radius perturbations +-delta.

    Returns (best gain, (point, signed delta)) with gain -inf meaning every
    perturbation breaks admissibility.  Vectorized over the other points via
    the two smallest touch constraints per point.
    """
    d = _lilypond_distances(c)
    n = c.n_points
    radii = np.array([_opt_mark(c, i, RadiusMark).radius for i in range(n)])
    u = lilypond_constraints(d, radii)
    first_idx = u.argmin(axis=1)
    first = u[np.arange(n), first_idx]
    u2 = u.copy()
    u2[np.arange(n), first_idx] = np.inf
    second = u2.min(axis=1)
    before = lilypond_touch_scores(radii, first)
    best_gain = NEG_INF
    best: tuple[int, float] | None = None
    for i in range(n):
        # every other point's tightest constraint apart from the one to i
        excl = np.where(first_idx == i, second, first)
        for delta in deltas:
            for signed in (delta, -delta):
                r_new = radii[i] + signed
                if r_new < 0.0:
                    continue
                diffs = [score_diff(lilypond_touch_scores(r_new, first[i]), float(before[i]))]
                u_new = np.maximum(d[:, i] / 2.0, d[:, i] - r_new)
                min_new = np.minimum(excl, u_new)
                after = lilypond_touch_scores(radii, min_new)
                # a point whose score does not move adds an exact 0.0 (also
                # -inf to -inf), which leaves the sum unchanged
                moved = np.flatnonzero(after != before)
                moved = moved[moved != i]
                diffs += map(score_diff, after[moved].tolist(), before[moved].tolist())
                gain = sum_score_diffs(diffs)
                if gain > best_gain:
                    best_gain = gain
                    best = (i, signed)
    return best_gain, best


# ---------------------------------------------------------------------------
# optimal medium access marks


def aloha_response_terms(c: Configuration, beta: float) -> np.ndarray:
    """Matrix a[i, j] = 1 / (1 + |X_i - recv_j|^beta): the coupling of point
    i's transmission into point j's receiver; diagonal is 0.  A new array
    from the family's ``aloha_attenuation``."""
    a = 1.0 / aloha_attenuation(c, beta).T
    np.fill_diagonal(a, 0.0)
    return a


def aloha_optimal_marking(
    c: Configuration, beta: float, tol: float = 1e-9
) -> Configuration:
    """Assign each point the access probability maximizing its own separable
    share of the window total.  The share is strictly concave, so the
    maximizer is unique and the joint assignment is the global optimum."""
    if c.window.kind != "cube":
        raise ValidationError("aloha needs a cube window")
    if beta <= c.window.dim:
        raise ValidationError(f"aloha needs beta > dim, got beta={beta}")
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    n = c.n_points
    # rows[i] is np.delete(aloha_response_terms(c, beta)[i], i)
    rows = aloha_response_terms(c, beta)[~np.eye(n, dtype=bool)].reshape(n, max(n - 1, 0))
    probs = _aloha_argmax(rows, tol)
    return c.with_opt_marks({i: _access_prob(p) for i, p in enumerate(probs)})


def _aloha_argmax(rows: np.ndarray, tol: float) -> list[float]:
    """Smallest maximizer within tol of log p + sum_j log(1 - p rows[i, j])
    on [0, 1] for every i, by bisection on a central-difference slope."""
    n, h = len(rows), max(tol, 1e-8)

    def objective(p: np.ndarray) -> np.ndarray:
        out, px = np.full(n, NEG_INF), p[:, None] * rows
        with np.errstate(divide="ignore", invalid="ignore"):
            # 1 - px <= 0 exactly when px >= 1, as 0 <= px <= 1
            ok = np.flatnonzero((p > 0.0) & ~(px >= 1.0).any(axis=1))
            logs = np.log1p(np.negative(px, out=px), out=px).sum(axis=1)
        out[ok] = np.array(list(map(math.log, p[ok].tolist()))) + logs[ok]
        return out

    def slope(x: np.ndarray) -> np.ndarray:
        a, b = objective(np.maximum(x - h, 0.0)), objective(np.minimum(x + h, 1.0))
        with np.errstate(invalid="ignore"):
            return np.where((a == NEG_INF) & (b == NEG_INF), 0.0, b - a)

    at_lo, at_hi = slope(np.zeros(n)) <= 0.0, slope(np.ones(n)) >= 0.0
    a, b, width = np.zeros(n), np.ones(n), 1.0
    while width > tol:  # all widths halve exactly, so they stay equal
        mid = 0.5 * (a + b)
        up = slope(mid) > 0.0
        a, b, width = np.where(up, mid, a), np.where(up, b, mid), 0.5 * width
    return np.where(at_lo, 0.0, np.where(at_hi, 1.0, 0.5 * (a + b))).tolist()


def _access_prob(p: float) -> AccessProb:
    return AccessProb(min(1.0, max(p, 1e-15)))


# ---------------------------------------------------------------------------
# optimal matching


@dataclass
class MatchingResult:
    configuration: Configuration
    value: float
    multiplicity: int


def matching_optimum(c: Configuration) -> MatchingResult:
    """Minimum total distance perfect matching of blue to red points, by
    enumeration of all red permutations.

    Requires equal color counts; refuses more than MATCHING_PAIR_CAP pairs.
    Ties keep the lexicographically first permutation.
    """
    blues = []
    reds = []
    for i in range(c.n_points):
        color = _base_mark(c, i, ColorMark).color
        (blues if color == "blue" else reds).append(i)
    if len(blues) != len(reds):
        raise ValidationError(
            f"matching needs equal color counts, got {len(blues)} blue, {len(reds)} red"
        )
    m = len(blues)
    if m > MATCHING_PAIR_CAP:
        raise WorkCapError(f"{m} pairs exceed the enumeration cap of {MATCHING_PAIR_CAP}")
    if m == 0:
        return MatchingResult(c, 0.0, 1)
    pos = positions_array(c)
    dist = torus_cross_distances(c.window, pos[blues], pos[reds])
    best_perm: tuple[int, ...] | None = None
    best_cost = math.inf
    multiplicity = 0
    for perm in itertools.permutations(range(m)):
        cost = 0.0
        for bi, ri in enumerate(perm):
            cost += dist[bi, ri]
        if best_perm is None or cost < best_cost:
            best_perm, best_cost, multiplicity = perm, cost, 1
        elif cost == best_cost:
            multiplicity += 1
    marks = {}
    for bi, ri in enumerate(best_perm):
        marks[blues[bi]] = PartnerIndex(reds[ri])
        marks[reds[ri]] = PartnerIndex(blues[bi])
    out = c.with_opt_marks(marks)
    value = total_window_score(out, MatchingModel())
    return MatchingResult(out, value, multiplicity)


# ---------------------------------------------------------------------------
# certified routes of the pipeline

# oracle -> (route name that exact_summary.json records, model kinds it certifies)
ROUTES = {
    "brute": ("brute", ("hardcore", "wr_line", "wr_tree", "caching", "matching")),
    "wr-chain": ("chain-dp", ("wr_line",)),
    "lilypond": ("growth", ("lilypond",)),
    "aloha": ("separable-argmax", ("aloha",)),
    "matching": ("permutations", ("matching",)),
}


def certified_route(oracle: str, kind: str) -> str:
    """The route name of oracle; refuses a model kind that it does not certify."""
    method, kinds = ROUTES[oracle]
    if kind not in kinds:
        raise ValidationError(f"oracle:{oracle} does not certify {kind} markings")
    return method


def oracle_marking(
    c: Configuration, model: ScoreModel, oracle: str, work_cap: int = BRUTE_FORCE_CAP
) -> tuple[Configuration, dict]:
    """The marking of c by the certified route of oracle, with what
    exact_summary.json records of it; work_cap bounds brute force.  Refuses a
    model kind that the route does not certify."""
    info: dict = {"method": certified_route(oracle, model.kind)}
    if oracle == "brute":
        result = brute_force_optimum(c, model, work_cap)
        marked = c.with_opt_marks(dict(enumerate(result.marks)))
        info.update(value=result.value, multiplicity=result.multiplicity)
    elif oracle == "wr-chain":
        resolution = wr_unique_marking(c)
        marked = wr_marks_to_configuration(c, resolution.marks)
        info.update(anchors=len(resolution.anchors), segments=len(resolution.segments),
                    flags=resolution.flags)
    elif oracle == "lilypond":
        if c.n_points < 2:  # no growth partner: radius 0, score 0
            result = LilypondResult((0.0,) * c.n_points, 0.0, [])
        else:
            result = lilypond_solve(c)
        marked = lilypond_radii_configuration(c, result.radii)
        info["residual"] = result.residual
    elif oracle == "aloha":
        marked = aloha_optimal_marking(c, model.beta)
    else:
        result = matching_optimum(c)
        marked = result.configuration
        info.update(value=result.value, multiplicity=result.multiplicity)
    return marked, info
