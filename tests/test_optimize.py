"""Swap machinery: gains, search and proposals."""

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markopt.core import (
    NEG_INF,
    POS_INF,
    Configuration,
    GrainRadius,
    MarkedPoint,
    PartnerIndex,
    Retain,
    SignMark,
    ValidationError,
    WeightPair,
    integer_line,
    periodic_cube,
    rng,
    sample_poisson_configuration,
    sample_weighted_line,
    sample_weighted_tree,
    score_diff,
    sum_score_diffs,
)
from markopt.models import (
    AlohaModel,
    CachingModel,
    HardcoreModel,
    LilypondModel,
    MatchingModel,
    WidomRowlinsonModel,
)
from markopt.optimize import (
    SearchParams,
    SwapProposal,
    apply_swap,
    exhaustive_feasible,
    find_valid_swap,
    initialize_marks,
    local_search,
    score_difference,
    total_window_score,
)
from markopt import exact, optimize

WR = WidomRowlinsonModel(graph="line")


def wr_config(rows, marks=None):
    w = integer_line(len(rows))
    pts = tuple(
        MarkedPoint(
            position=i,
            base=WeightPair(wp, wm),
            opt=SignMark(marks[i]) if marks else None,
        )
        for i, (wp, wm) in enumerate(rows)
    )
    return Configuration(w, "wr_line", pts)


def hardcore_line(entries, side=20.0):
    w = periodic_cube(1, side)
    pts = tuple(
        MarkedPoint(position=(float(x),), base=GrainRadius(r), opt=Retain(keep))
        for x, r, keep in entries
    )
    return Configuration(w, "hardcore", pts)


# -- aggregation and differences ----------------------------------------------


def test_total_score_empty_window():
    w = periodic_cube(1, 5.0)
    c = Configuration(w, "hardcore", ())
    assert total_window_score(c, HardcoreModel()) == 0.0


def test_total_score_additive_when_disjoint():
    c = hardcore_line([(2.0, 1.0, True), (8.0, 0.5, True), (14.0, 0.25, True)])
    assert total_window_score(c, HardcoreModel()) == pytest.approx(2.0 + 1.0 + 0.5)


def test_total_score_absorbs_inadmissible():
    c = hardcore_line([(2.0, 1.0, True), (3.0, 1.0, True)])
    assert total_window_score(c, HardcoreModel()) == NEG_INF


def test_score_difference_single_site():
    c = wr_config([(1.0, 1.0), (2.0, 0.7), (0.3, 0.1)], marks=["0", "0", "+"])
    swap = SwapProposal((1,), (SignMark("+"),))
    assert score_difference(c, swap, WR) == pytest.approx(2.0)


def test_score_difference_repair_is_pos_inf():
    c = hardcore_line([(2.0, 1.0, True), (3.0, 1.0, True)])
    swap = SwapProposal((0,), (Retain(False),))
    assert score_difference(c, swap, HardcoreModel()) == POS_INF


def test_score_difference_breaking_is_neg_inf():
    c = wr_config([(1.0, 1.0), (2.0, 0.7)], marks=["+", "0"])
    swap = SwapProposal((1,), (SignMark("-"),))
    assert score_difference(c, swap, WR) == NEG_INF


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_score_difference_antisymmetry(seed):
    """Applying a swap and measuring the way back negates the gain."""
    c = sample_weighted_line(6, seed)
    g = rng(seed, 3)
    signs = ["0", "+", "-"]
    c = c.with_opt_marks({i: SignMark(signs[int(g.integers(0, 3))]) for i in range(6)})
    i = int(g.integers(0, 6))
    old = c.points[i].opt
    new = SignMark(signs[(signs.index(old.sign) + 1) % 3])
    swap = SwapProposal((i,), (new,))
    forward = score_difference(c, swap, WR)
    if not math.isfinite(forward):
        return
    after = apply_swap(c, swap)
    back = score_difference(after, SwapProposal((i,), (old,)), WR)
    assert back == pytest.approx(-forward)


# -- swap search --------------------------------------------------------------


def test_no_swap_at_brute_optimum():
    c = sample_weighted_line(6, 11)
    best = exact.brute_force_optimum(c, WR)
    marked = c.with_opt_marks(dict(enumerate(best.marks)))
    params = SearchParams(k_max=6, mode="exhaustive")
    assert find_valid_swap(marked, WR, params) is None


def test_best_single_site_swap_from_all_zero():
    rows = [(0.4, 0.1), (0.2, 0.9), (0.6, 0.3)]
    c = wr_config(rows, marks=["0", "0", "0"])
    swap = find_valid_swap(c, WR, SearchParams(k_max=1, mode="exhaustive"))
    assert swap is not None
    assert score_difference(c, swap, WR) == pytest.approx(0.9)
    assert swap.indices == (1,)
    assert swap.new_marks == (SignMark("-"),)


def test_zero_budget_randomized_finds_nothing():
    c = wr_config([(1.0, 1.0)], marks=["0"])
    params = SearchParams(k_max=1, trial_budget=0, mode="randomized")
    assert find_valid_swap(c, WR, params) is None


def test_search_params_validation():
    with pytest.raises(ValidationError):
        SearchParams(k_max=0)
    with pytest.raises(ValidationError):
        SearchParams(mode="annealing")
    with pytest.raises(ValidationError):
        SearchParams(indices=(3, 1))
    with pytest.raises(ValidationError):
        SearchParams(indices=())
    assert SearchParams(indices=(1, 3, 5)).indices == (1, 3, 5)


def test_nan_delta_min_is_refused():
    # no gain clears a NaN threshold, so the search would stop at its first
    # round and still report a local optimum
    with pytest.raises(ValidationError, match="delta_min"):
        SearchParams(delta_min=math.nan)


def replayed_totals(c, model, trace):
    """The window total after each step of the trace, replayed from c."""
    totals = []
    for step in trace.steps:
        c = c.with_opt_marks(dict(zip(step.indices, step.new_marks)))
        totals.append(total_window_score(c, model))
    return totals


def test_local_search_fixed_at_optimum():
    c = sample_weighted_line(6, 13)
    best = exact.brute_force_optimum(c, WR)
    marked = c.with_opt_marks(dict(enumerate(best.marks)))
    final, trace = local_search(marked, WR, SearchParams(k_max=6, mode="exhaustive"))
    assert final == marked
    assert trace.steps == []
    assert trace.certificate == "locally-optimal-k6"


def test_local_search_reaches_brute_value():
    for seed in range(5):
        c = sample_weighted_line(10, seed)
        best = exact.brute_force_optimum(c, WR)
        params = SearchParams(k_max=10, seed=seed)
        final, trace = local_search(c, WR, params)
        assert total_window_score(final, WR) == pytest.approx(best.value, abs=1e-12)
        totals = [trace.initial_total] + replayed_totals(initialize_marks(c, WR, params), WR, trace)
        finite = [t for t in totals if math.isfinite(t)]
        assert finite == sorted(finite)
        assert all(x < y for x, y in zip(finite, finite[1:]))


def test_local_search_restricted_indices_touch_nothing_else():
    c = sample_weighted_line(12, 3)
    c = c.with_opt_marks({i: SignMark("0") for i in range(12)})
    params = SearchParams(k_max=2, mode="exhaustive", indices=(4, 5, 6))
    final, _ = local_search(c, WR, params)
    for i in range(12):
        if i not in (4, 5, 6):
            assert final.points[i].opt == SignMark("0")


def test_local_search_output_has_no_sign_conflict():
    for seed in range(10):
        c = sample_weighted_line(9, seed, 77)
        final, _ = local_search(c, WR, SearchParams(k_max=3, seed=seed))
        signs = [p.opt.sign for p in final.points]
        for a, b in zip(signs, signs[1:]):
            assert {a, b} != {"+", "-"}
        assert total_window_score(final, WR) > NEG_INF


def test_fixed_point_verified_by_independent_enumeration():
    c = sample_weighted_line(7, 19)
    final, _ = local_search(c, WR, SearchParams(k_max=2, seed=1))
    signs = ("0", "+", "-")
    for combo in itertools.chain(
        itertools.combinations(range(7), 1), itertools.combinations(range(7), 2)
    ):
        options = [
            [SignMark(s) for s in signs if s != final.points[i].opt.sign] for i in combo
        ]
        for marks in itertools.product(*options):
            cand = final.with_opt_marks(dict(zip(combo, marks)))
            gain = total_window_score(cand, WR) - total_window_score(final, WR)
            if math.isnan(gain):
                # -inf minus -inf never occurs here: final is admissible
                raise AssertionError("unexpected indeterminate gain")
            assert gain <= 1e-12


# -- reference search ---------------------------------------------------------
#
# The search as a full rescan: every round rescores all points and every swap,
# the accepted swap's gain is measured again, and the whole window is
# rescored for the trace.  local_search keeps scores and gains across rounds
# and must reproduce it bit for bit.


def reference_gain(c, swap, model, affected_fn):
    """score_difference, with the affected set supplied by the caller."""
    after = apply_swap(c, swap)
    return sum_score_diffs(
        score_diff(model.score_at(after, j), model.score_at(c, j))
        for j in affected_fn(c, swap.indices)
    )


def reference_find_swap(c, model, params, pool, exhaustive, stream, affected_fn):
    before = [model.checked_score_at(c, i) for i in range(c.n_points)]
    k_max = min(params.k_max, len(pool))
    best_gain, best = params.delta_min, None

    def gain_of(combo, marks):
        after = c.with_opt_marks(dict(zip(combo, marks)))
        return sum_score_diffs(
            score_diff(model.score_at(after, j), before[j]) for j in affected_fn(c, combo)
        )

    if exhaustive:
        for k in range(1, k_max + 1):
            for combo in itertools.combinations(pool, k):
                options = [
                    [m for m in model.mark_candidates(c, i) if m != c.points[i].opt]
                    for i in combo
                ]
                for marks in itertools.product(*options):
                    gain = gain_of(combo, marks)
                    if gain == POS_INF:
                        return SwapProposal(combo, marks)
                    if gain > best_gain:
                        best_gain, best = gain, SwapProposal(combo, marks)
        return best
    g = rng(params.seed, 92, stream)  # the search's proposal stream
    for _ in range(params.trial_budget):
        k = int(g.integers(1, k_max + 1))
        combo = tuple(sorted(pool[int(j)] for j in g.choice(len(pool), size=k, replace=False)))
        marks = []
        for i in combo:
            cand = model.mark_candidates(c, i)
            if cand is None:
                marks.append(model.perturb_mark(c, i, c.points[i].opt, g))
            else:
                alts = [m for m in cand if m != c.points[i].opt]
                if not alts:
                    marks.append(c.points[i].opt)
                    continue
                marks.append(alts[int(g.integers(0, len(alts)))])
        gain = gain_of(combo, tuple(marks))
        if gain == POS_INF:
            return SwapProposal(combo, tuple(marks))
        if gain > best_gain:
            best_gain, best = gain, SwapProposal(combo, tuple(marks))
    return best


def reference_local_search(c, model, params, affected_fn=None):
    affected_fn = affected_fn or model.affected_points
    c = initialize_marks(c, model, params)
    pool = params.indices or tuple(range(c.n_points))
    exhaustive = params.mode == "exhaustive" or (
        params.mode == "auto" and exhaustive_feasible(c, model, pool)
    )
    initial = total_window_score(c, model)
    steps = []
    for round_index in range(params.max_rounds):
        swap = reference_find_swap(c, model, params, pool, exhaustive, round_index, affected_fn)
        if swap is None:
            k = min(params.k_max, max(len(pool), 1))
            certificate = f"locally-optimal-k{k}" if exhaustive else "uncertified-budget-exhausted"
            break
        gain = reference_gain(c, swap, model, affected_fn)
        c = apply_swap(c, swap)
        steps.append((swap.indices, repr(gain), repr(total_window_score(c, model))))
    else:
        certificate = "max-rounds"
    return c, initial, steps, certificate


def _partner_affected(c, changed):
    """Matching's affected set as partner pointers give it: smaller than the
    model's, but dependent on opt marks."""
    out = set(changed)
    for j in range(c.n_points):
        mark = c.points[j].opt
        if isinstance(mark, PartnerIndex) and mark.index in out:
            out.add(j)
    return tuple(sorted(out))


def _grains(model, dim, side, intensity, seed, retain=None):
    w = periodic_cube(dim, side)
    c = sample_poisson_configuration(w, intensity, model.kind, model.default_base_sampler(w), seed)
    if retain is not None:
        c = c.with_opt_marks({i: Retain(retain) for i in range(c.n_points)})
    return c


def _random_marks(model, c, seed):
    g = rng(seed, 5)
    return c.with_opt_marks({i: model.sample_mark(c, i, g) for i in range(c.n_points)})


HC = HardcoreModel(radius_lo=0.2, radius_hi=0.6)
MATCHING = MatchingModel()
LILY = LilypondModel()
ALOHA = AlohaModel(beta=4.0)
CACHING = CachingModel(radius_lo=0.3, radius_hi=1.0)

WR_TREE = WidomRowlinsonModel(graph="tree")
EXHAUSTIVE = dict(mode="exhaustive")

# case -> seed -> (configuration, model, search parameters)
EQUIVALENCE_CASES = {
    "wr_line-k1": lambda s: (
        sample_weighted_line(30, s), WR, SearchParams(k_max=1, seed=s, **EXHAUSTIVE)
    ),
    "wr_line-k2": lambda s: (
        sample_weighted_line(12, s), WR, SearchParams(k_max=2, seed=s, **EXHAUSTIVE)
    ),
    "wr_line-restricted": lambda s: (
        sample_weighted_line(20, s),
        WR,
        SearchParams(k_max=2, seed=s, indices=(3, 4, 5, 6, 9), **EXHAUSTIVE),
    ),
    "wr_tree-k1": lambda s: (
        sample_weighted_tree(3, s), WR_TREE, SearchParams(k_max=1, seed=s, **EXHAUSTIVE)
    ),
    "wr_tree-k2": lambda s: (
        sample_weighted_tree(2, s), WR_TREE, SearchParams(k_max=2, seed=s, **EXHAUSTIVE)
    ),
    "hardcore-1d-discard": lambda s: (
        _grains(HC, 1, 12.0, 1.5, s), HC, SearchParams(k_max=2, **EXHAUSTIVE)
    ),
    "hardcore-1d-retain": lambda s: (
        _grains(HC, 1, 12.0, 1.5, s, True), HC, SearchParams(k_max=1, **EXHAUSTIVE)
    ),
    "hardcore-2d-discard": lambda s: (
        _grains(HC, 2, 4.0, 1.0, s), HC, SearchParams(k_max=1, **EXHAUSTIVE)
    ),
    "hardcore-2d-retain": lambda s: (
        _grains(HC, 2, 4.0, 1.0, s, True), HC, SearchParams(k_max=2, **EXHAUSTIVE)
    ),
    "caching-1d": lambda s: (
        _grains(CACHING, 1, 6.0, 1.5, s), CACHING, SearchParams(k_max=1, seed=s, **EXHAUSTIVE)
    ),
    "matching": lambda s: (
        _random_marks(MATCHING, _grains(MATCHING, 2, 3.0, 1.0, s), s),
        MATCHING,
        SearchParams(k_max=2, **EXHAUSTIVE),
    ),
    "hardcore-randomized": lambda s: (
        _grains(HC, 2, 5.0, 1.0, s, True),
        HC,
        SearchParams(k_max=2, seed=s, mode="randomized", trial_budget=40),
    ),
    "lilypond-randomized": lambda s: (
        _grains(LILY, 2, 3.0, 1.0, s),
        LILY,
        SearchParams(k_max=2, seed=s, trial_budget=30, max_rounds=25),
    ),
    "aloha-randomized": lambda s: (
        _grains(ALOHA, 2, 3.0, 1.0, s),
        ALOHA,
        SearchParams(k_max=1, seed=s, trial_budget=30, max_rounds=25),
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_local_search_matches_full_rescan(case, seed):
    c, model, params = EQUIVALENCE_CASES[case](seed)
    affected_fn = _partner_affected if model is MATCHING else None
    ref_final, ref_initial, ref_steps, ref_certificate = reference_local_search(
        c, model, params, affected_fn
    )
    final, trace = local_search(c, model, params)
    assert repr(trace.initial_total) == repr(ref_initial)
    totals = replayed_totals(initialize_marks(c, model, params), model, trace)
    steps = [(s.indices, repr(s.gain), repr(t)) for s, t in zip(trace.steps, totals)]
    assert steps == ref_steps
    assert trace.certificate == ref_certificate
    assert repr([p.opt for p in final.points]) == repr([p.opt for p in ref_final.points])


# -- reference swap-set scan --------------------------------------------------
#
# The exhaustive search state before its heaps: each round walks every swap
# set's cached best gain in enumeration order, refilling stale sets on the
# way, and returns the first +inf or else the first highest gain.  The heaps
# must give the same swaps, gains and swap_evaluations.


class ScanState(optimize._SearchState):
    def accept(self, swap):
        model, points, scores = self.model, self.points, self.scores
        for i, mark in zip(swap.indices, swap.new_marks):
            points[i] = replace(points[i], opt=mark)
        affected = model.affected_points(self.view, swap.indices)
        after = [model.checked_score_at(self.view, j) for j in affected]
        gain = sum_score_diffs(score_diff(a, scores[j]) for j, a in zip(affected, after))
        for j, a in zip(affected, after):
            scores[j] = a
        for j in affected:
            for s in self.sets_at.get(j, ()):
                self.best[s] = None
        return gain

    def _scan_gain(self, combo, new_points, affected):
        self.evaluations += 1
        points, score_at, view, before = self.points, self.model.score_at, self.view, self.scores
        saved = [points[i] for i in combo]
        for i, p in zip(combo, new_points):
            points[i] = p
        gain = sum_score_diffs(score_diff(score_at(view, j), before[j]) for j in affected)
        for i, p in zip(combo, saved):
            points[i] = p
        return gain

    def _find_exhaustive(self):
        best_gain = self.params.delta_min
        best = None
        for s, entry in enumerate(self.best):
            if entry is None:
                entry = self.best[s] = self._best_in_set(s)
            gain, swap = entry
            if gain == POS_INF:
                return swap
            if gain > best_gain:
                best_gain, best = gain, swap
        return best

    def _best_in_set(self, s):
        combo, affected, points = self.combos[s], self.affected[s], self.points
        choices = [
            [(q.opt, q) for q in self.options[i] if q.opt != points[i].opt] for i in combo
        ]
        best_gain, best_marks = NEG_INF, None
        for choice in itertools.product(*choices):
            gain = self._scan_gain(combo, [p for _, p in choice], affected)
            if gain > best_gain:
                best_gain, best_marks = gain, tuple(m for m, _ in choice)
                if gain == POS_INF:
                    break
        return best_gain, None if best_marks is None else SwapProposal(combo, best_marks)


HC_EQUAL = HardcoreModel(radius_lo=0.4, radius_hi=0.4)

# case -> seed -> (configuration, model, search parameters); equal radii and
# equal weights make ties, random and all-retained marks make +inf repairs
SCAN_CASES = {
    "wr_line-random-k1": lambda s: (
        _random_marks(WR, sample_weighted_line(60, s), s), WR, SearchParams(k_max=1, **EXHAUSTIVE)
    ),
    "wr_line-random-k2": lambda s: (
        _random_marks(WR, sample_weighted_line(14, s), s), WR, SearchParams(k_max=2, **EXHAUSTIVE)
    ),
    "wr_line-equal-weights": lambda s: (
        _random_marks(WR, sample_weighted_line(40, s, lo=0.5, hi=0.5), s),
        WR,
        SearchParams(k_max=1, **EXHAUSTIVE),
    ),
    "wr_line-delta-min": lambda s: (
        sample_weighted_line(40, s), WR, SearchParams(k_max=1, delta_min=0.3, **EXHAUSTIVE)
    ),
    "wr_line-restricted": lambda s: (
        _random_marks(WR, sample_weighted_line(20, s), s),
        WR,
        SearchParams(k_max=2, indices=(2, 3, 4, 8, 9, 15), **EXHAUSTIVE),
    ),
    "wr_tree-k1": lambda s: (
        _random_marks(WR_TREE, sample_weighted_tree(3, s), s),
        WR_TREE,
        SearchParams(k_max=1, **EXHAUSTIVE),
    ),
    "wr_tree-k2": lambda s: (
        _random_marks(WR_TREE, sample_weighted_tree(2, s), s),
        WR_TREE,
        SearchParams(k_max=2, **EXHAUSTIVE),
    ),
    "hardcore-1d-retain-k2": lambda s: (
        _grains(HC, 1, 16.0, 1.5, s, True), HC, SearchParams(k_max=2, **EXHAUSTIVE)
    ),
    "hardcore-1d-equal-k1": lambda s: (
        _grains(HC_EQUAL, 1, 30.0, 1.5, s), HC_EQUAL, SearchParams(k_max=1, **EXHAUSTIVE)
    ),
    "hardcore-2d-retain-k1": lambda s: (
        _grains(HC, 2, 7.0, 1.0, s, True), HC, SearchParams(k_max=1, **EXHAUSTIVE)
    ),
    "hardcore-2d-equal-k2": lambda s: (
        _grains(HC_EQUAL, 2, 4.0, 1.0, s, True), HC_EQUAL, SearchParams(k_max=2, **EXHAUSTIVE)
    ),
    "hardcore-2d-delta-min": lambda s: (
        _grains(HC, 2, 7.0, 1.0, s), HC, SearchParams(k_max=1, delta_min=0.5, **EXHAUSTIVE)
    ),
    "hardcore-2d-restricted": lambda s: (
        _grains(HC, 2, 6.0, 1.0, s, True),
        HC,
        SearchParams(k_max=2, indices=tuple(range(0, 20, 2)), **EXHAUSTIVE),
    ),
    "caching-1d": lambda s: (
        _grains(CACHING, 1, 8.0, 1.5, s), CACHING, SearchParams(k_max=1, seed=s, **EXHAUSTIVE)
    ),
    "caching-1d-k2": lambda s: (
        _grains(CACHING, 1, 4.0, 1.5, s), CACHING, SearchParams(k_max=2, seed=s, **EXHAUSTIVE)
    ),
    "matching": lambda s: (
        _random_marks(MATCHING, _grains(MATCHING, 2, 3.0, 1.0, s), s),
        MATCHING,
        SearchParams(k_max=2, **EXHAUSTIVE),
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_heap_selection_matches_set_scan(case, seed, monkeypatch):
    c, model, params = SCAN_CASES[case](seed)
    final, trace = local_search(c, model, params)
    with monkeypatch.context() as m:
        m.setattr(optimize, "_SearchState", ScanState)
        ref_final, ref_trace = local_search(c, model, params)
    assert ref_trace.steps, "the case makes no swap"

    def steps(t):
        return [(s.indices, s.new_marks, repr(s.gain)) for s in t.steps]

    assert steps(trace) == steps(ref_trace)
    assert trace.certificate == ref_trace.certificate
    assert trace.swap_evaluations == ref_trace.swap_evaluations
    assert repr(trace.initial_total) == repr(ref_trace.initial_total)
    assert repr([p.opt for p in final.points]) == repr([p.opt for p in ref_final.points])
    # two scans with no swap accepted between them: the second reads the cache
    start = initialize_marks(c, model, params)
    scans = []
    for cls in (optimize._SearchState, ScanState):
        state = cls(start, model, params)
        scans.append((state.find(0), state.find(1), state.evaluations))
    assert scans[0] == scans[1]


def test_swap_evaluations_counted():
    """Every gain evaluated is counted; rounds after the first re-evaluate
    only the swaps an accepted swap touched."""
    c = sample_weighted_line(10, 4)
    c = c.with_opt_marks({i: SignMark("0") for i in range(10)})
    params = SearchParams(k_max=1, mode="exhaustive")
    _, trace = local_search(c, WR, params)
    assert trace.steps
    assert 2 * 10 <= trace.swap_evaluations < 2 * 10 * (len(trace.steps) + 1)
    assert local_search(c, WR, params)[1].swap_evaluations == trace.swap_evaluations
    params = SearchParams(k_max=1, mode="randomized", trial_budget=7, max_rounds=3)
    _, randomized = local_search(c, WR, params)
    scans = len(randomized.steps) + (randomized.certificate != "max-rounds")
    assert randomized.swap_evaluations == 7 * scans > 0


def test_repair_accepted_before_finite_gains():
    c = hardcore_line([(2.0, 1.0, True), (3.0, 1.0, True), (10.0, 0.2, False)])
    m = HardcoreModel()
    swap = find_valid_swap(c, m, SearchParams(k_max=1, mode="exhaustive"))
    assert swap is not None
    assert score_difference(c, swap, m) == POS_INF


def test_initialize_marks_neutral_vs_random():
    m = HardcoreModel()
    w = periodic_cube(1, 10.0)
    c = sample_poisson_configuration(w, 1.0, "hardcore", m.default_base_sampler(w), 5)
    init = initialize_marks(c, m, SearchParams(seed=0))
    assert all(p.opt == Retain(False) for p in init.points)

    c2 = sample_weighted_line(8, 5)
    init2 = initialize_marks(c2, WR, SearchParams(seed=0))
    assert all(p.opt is not None for p in init2.points)
    # deterministic in the seed
    again = initialize_marks(c2, WR, SearchParams(seed=0))
    assert again == init2


def test_exhaustive_feasible_cap():
    c = sample_weighted_line(10, 1)
    assert exhaustive_feasible(c, WR)
    big = sample_weighted_line(40, 1)
    assert not exhaustive_feasible(big, WR)
    assert exhaustive_feasible(big, WR, indices=(0, 1, 2))
    w = periodic_cube(1, 10.0)
    cont = sample_poisson_configuration(w, 1.0, "lilypond", None, 2)
    assert not exhaustive_feasible(cont, LilypondModel()) or cont.n_points == 0


# -- swap proposals -----------------------------------------------------------


def test_swap_proposal_validation():
    with pytest.raises(ValidationError):
        SwapProposal((), ())
    with pytest.raises(ValidationError):
        SwapProposal((2, 1), (SignMark("+"), SignMark("-")))
    with pytest.raises(ValidationError):
        SwapProposal((1,), (SignMark("+"), SignMark("-")))

