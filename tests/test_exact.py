"""Oracles: brute force, chain DP, shields, trees, lilypond, argmax, matching."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markopt.core import (
    GEOM_TOL,
    NEG_INF,
    AccessProb,
    ColorMark,
    Configuration,
    GrainRadius,
    MarkedPoint,
    PartnerIndex,
    RadiusMark,
    Retain,
    SignMark,
    ValidationError,
    WeightPair,
    WorkCapError,
    integer_line,
    pairwise_torus_distances,
    periodic_cube,
    positions_array,
    receiver_offset_sampler,
    rng,
    sample_poisson_configuration,
    sample_weighted_line,
    sample_weighted_tree,
    score_diff,
    sum_score_diffs,
    torus_cross_distances,
    torus_distance,
)
from markopt import models
from markopt.models import (
    AlohaModel,
    CachingModel,
    HardcoreModel,
    LilypondModel,
    MatchingModel,
    WidomRowlinsonModel,
    _opt_mark,
    aloha_receivers,
    build_model,
    lilypond_constraints,
)
from markopt.optimize import SearchParams, local_search, total_window_score
from markopt.exact import (
    BRUTE_FORCE_CAP,
    SIGNS,
    BlockingInterval,
    BruteForceResult,
    DpResult,
    LilypondEvent,
    _lilypond_distances,
    _lilypond_residual,
    aloha_optimal_marking,
    aloha_point_objective,
    aloha_response_terms,
    brute_force_optimum,
    is_blocking_interval,
    lilypond_fixed_point,
    lilypond_perturbation_search,
    lilypond_radii_configuration,
    lilypond_solve,
    matching_optimum,
    mtp_argmax,
    oracle_marking,
    tree_boundary,
    tree_local_optimality_check,
    uniform_sign_configuration,
    wr_anchor_sites,
    wr_blocking_intervals,
    wr_chain_dp,
    wr_marks_to_configuration,
    wr_segment_brute_force,
    wr_unique_marking,
)
from test_models import aloha_config, dense_case

WR = WidomRowlinsonModel(graph="line")


def wr_config(pairs):
    w = integer_line(len(pairs))
    pts = tuple(
        MarkedPoint(position=i, base=WeightPair(wp, wm))
        for i, (wp, wm) in enumerate(pairs)
    )
    return Configuration(w, "wr_line", pts)


# -- brute force --------------------------------------------------------------


def test_brute_force_hardcore_keeps_larger_grain():
    w = periodic_cube(1, 10.0)
    pts = (
        MarkedPoint(position=(3.0,), base=GrainRadius(1.0)),
        MarkedPoint(position=(4.0,), base=GrainRadius(1.5)),
    )
    c = Configuration(w, "hardcore", pts)
    res = brute_force_optimum(c, HardcoreModel())
    assert res.value == pytest.approx(3.0)
    assert res.marks == (Retain(False), Retain(True))
    assert res.multiplicity == 1


def test_brute_force_wr_single_site():
    c = wr_config([(1.0, 2.0)])
    res = brute_force_optimum(c, WR)
    assert res.value == 2.0
    assert res.marks == (SignMark("-"),)


def test_brute_force_empty_configuration():
    w = periodic_cube(1, 5.0)
    res = brute_force_optimum(Configuration(w, "hardcore", ()), HardcoreModel())
    assert res.value == 0.0
    assert res.marks == ()
    assert res.multiplicity == 1


def test_brute_force_work_cap():
    c = sample_weighted_line(20, 0)
    with pytest.raises(WorkCapError):
        brute_force_optimum(c, WR)


def test_brute_force_tie_multiplicity():
    # equal weights make + and - interchangeable at an isolated site
    c = wr_config([(2.0, 2.0)])
    res = brute_force_optimum(c, WR)
    assert res.value == 2.0
    assert res.multiplicity == 2
    # smallest in enumeration order (0, +, -) among the two maximizers
    assert res.marks == (SignMark("+"),)


def _old_brute_force_optimum(c, model, work_cap=BRUTE_FORCE_CAP):
    """brute_force_optimum as it was: one with_opt_marks copy per marking."""
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
            raise WorkCapError(f"enumeration needs {work} > {work_cap} score evaluations")
    best_marks = None
    best_value = NEG_INF
    multiplicity = 0
    for marks in itertools.product(*candidates):
        value = total_window_score(c.with_opt_marks(dict(enumerate(marks))), model)
        if value == NEG_INF:
            continue
        if best_marks is None or value > best_value:
            best_marks, best_value, multiplicity = marks, value, 1
        elif value == best_value:
            multiplicity += 1
    if best_marks is None:
        return BruteForceResult(tuple(candidates[i][0] for i in range(n)), NEG_INF, 0)
    return BruteForceResult(best_marks, best_value, multiplicity)


def _grains(dim, side, n, model_id, lo, hi, seed):
    g = np.random.default_rng(seed)
    pts = tuple(
        MarkedPoint(tuple(float(x) for x in g.uniform(0.0, side, dim)),
                    GrainRadius(float(g.uniform(lo, hi))))
        for _ in range(n)
    )
    return Configuration(periodic_cube(dim, side), model_id, pts)


def _colors(*colors):
    pts = tuple(MarkedPoint((1.5 * k, 0.5 * k), ColorMark(col)) for k, col in enumerate(colors))
    return Configuration(periodic_cube(2, 10.0), "matching", pts)


# name -> (configuration, model, work cap)
BRUTE_CASES = {
    "hardcore-1d": (_grains(1, 6.0, 9, "hardcore", 0.2, 0.8, 1), HardcoreModel(), BRUTE_FORCE_CAP),
    "hardcore-2d": (_grains(2, 3.0, 9, "hardcore", 0.3, 0.8, 2), HardcoreModel(), BRUTE_FORCE_CAP),
    "hardcore-n1": (_grains(2, 3.0, 1, "hardcore", 0.3, 0.8, 3), HardcoreModel(), BRUTE_FORCE_CAP),
    "hardcore-n0": (Configuration(periodic_cube(2, 3.0), "hardcore", ()), HardcoreModel(),
                    BRUTE_FORCE_CAP),
    "hardcore-tie": (
        Configuration(periodic_cube(1, 10.0), "hardcore",
                      (MarkedPoint((3.0,), GrainRadius(1.0)), MarkedPoint((4.0,), GrainRadius(1.0)))),
        HardcoreModel(), BRUTE_FORCE_CAP),
    "caching-1d": (_grains(1, 5.0, 5, "caching", 0.5, 1.5, 4), CachingModel(), BRUTE_FORCE_CAP),
    "caching-2d": (_grains(2, 3.0, 3, "caching", 0.5, 1.0, 5), CachingModel(k_items=2),
                   BRUTE_FORCE_CAP),
    "wr_line": (sample_weighted_line(7, 6), WR, BRUTE_FORCE_CAP),
    "wr_line-n1": (sample_weighted_line(1, 7), WR, BRUTE_FORCE_CAP),
    "wr_line-tie": (wr_config([(2.0, 2.0), (0.0, 0.0), (1.0, 1.0)]), WR, BRUTE_FORCE_CAP),
    "wr_tree": (sample_weighted_tree(1, 8), WidomRowlinsonModel(graph="tree"), BRUTE_FORCE_CAP),
    "matching": (_colors("blue", "red", "red", "blue", "red", "blue"), MatchingModel(),
                 BRUTE_FORCE_CAP),
    "matching-inadmissible": (_colors("blue", "red", "red"), MatchingModel(), BRUTE_FORCE_CAP),
    "matching-no-candidates": (_colors("blue", "blue"), MatchingModel(), BRUTE_FORCE_CAP),
    "work-cap": (sample_weighted_line(20, 0), WR, BRUTE_FORCE_CAP),
    "work-cap-small": (sample_weighted_line(4, 0), WR, 4 * 3**4 - 1),
    "work-cap-exact": (sample_weighted_line(4, 0), WR, 4 * 3**4),
}


def _brute_outcome(brute_force, c, model, work_cap):
    try:
        return repr(brute_force(c, model, work_cap))
    except (ValidationError, WorkCapError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("case", sorted(BRUTE_CASES))
def test_brute_force_repr_equals_per_marking_copies(case):
    c, model, work_cap = BRUTE_CASES[case]
    new = _brute_outcome(brute_force_optimum, c, model, work_cap)
    assert new == _brute_outcome(_old_brute_force_optimum, c, model, work_cap)
    if case == "matching-inadmissible":
        assert new.endswith("value=-inf, multiplicity=0)")
    if case.endswith("tie"):
        assert brute_force_optimum(c, model, work_cap).multiplicity > 1
    if case.startswith("work-cap") and case != "work-cap-exact":
        assert new.startswith("WorkCapError")


# -- blocking intervals -------------------------------------------------------


def interval_weights(plus, minus):
    return [(p, m) for p, m in zip(plus, minus)]


def test_blocking_interval_example():
    weights = interval_weights([1.0, 2.5, 2.5, 1.0], [1.0, 1.0, 1.0, 1.0])
    assert is_blocking_interval(weights, 1, 2)
    c = wr_config(weights)
    ivs = wr_blocking_intervals(c)
    assert BlockingInterval(1, 2) in ivs


def test_blocking_needs_pointwise_dominance():
    # condition (1): some inside plus weight at or below a nearby minus
    weights = interval_weights([1.0, 0.9, 2.5, 1.0], [1.0, 1.0, 1.0, 1.0])
    assert not is_blocking_interval(weights, 1, 2)


def test_blocking_needs_sum_dominance():
    # condition (2): inside plus total not above the widened minus total
    weights = interval_weights([1.0, 1.05, 1.05, 1.0], [1.0, 1.0, 1.0, 1.0])
    assert not is_blocking_interval(weights, 1, 2)


def test_equal_weights_block_nothing():
    c = wr_config([(1.0, 1.0)] * 6)
    assert wr_blocking_intervals(c) == []


def test_blocking_intervals_are_maximal():
    for seed in range(20):
        c = sample_weighted_line(40, seed, 21)
        weights = [(p.base.w_plus, p.base.w_minus) for p in c.points]
        ivs = wr_blocking_intervals(c)
        for a, b in itertools.combinations(ivs, 2):
            assert not (a.lo <= b.lo and b.hi <= a.hi)
            assert not (b.lo <= a.lo and a.hi <= b.hi)
        for iv in ivs:
            assert is_blocking_interval(weights, iv.lo, iv.hi)


def test_anchor_sites_by_length():
    assert wr_anchor_sites(BlockingInterval(4, 4)) == (4,)
    assert wr_anchor_sites(BlockingInterval(4, 5)) == ()
    assert wr_anchor_sites(BlockingInterval(4, 6)) == (5,)
    assert wr_anchor_sites(BlockingInterval(4, 9)) == (5, 6, 7, 8)


# -- chain DP -----------------------------------------------------------------


def test_chain_dp_one_site_plus_boundaries():
    res = wr_chain_dp([(1.0, 5.0)], left_boundary="+", right_boundary="+")
    assert res.marks == ("+",)
    assert res.value == 1.0


def test_chain_dp_empty_segment_boundary_compatibility():
    ok = wr_chain_dp([], left_boundary="+", right_boundary="+")
    assert ok.value == 0.0 and ok.multiplicity == 1
    clash = wr_chain_dp([], left_boundary="+", right_boundary="-")
    assert clash.value == NEG_INF and clash.multiplicity == 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    lb=st.sampled_from([None, "0", "+", "-"]),
    rb=st.sampled_from([None, "0", "+", "-"]),
)
def test_chain_dp_equals_enumeration(n, seed, lb, rb):
    g = rng(seed, 31)
    weights = [(float(g.uniform(0, 1)), float(g.uniform(0, 1))) for _ in range(n)]
    res = wr_chain_dp(weights, left_boundary=lb, right_boundary=rb)

    def site_score(s, w):
        return 0.0 if s == "0" else (w[0] if s == "+" else w[1])

    best = NEG_INF
    count = 0
    best_marks = None
    for assign in itertools.product("0+-", repeat=n):
        chain = ([lb] if lb else []) + list(assign) + ([rb] if rb else [])
        if any({a, b} == {"+", "-"} for a, b in zip(chain, chain[1:])):
            continue
        val = sum(site_score(s, w) for s, w in zip(assign, weights))
        if val > best:
            best, count, best_marks = val, 1, assign
        elif val == best:
            count += 1
    assert res.value == pytest.approx(best if count else NEG_INF, abs=1e-12)
    if count:
        assert res.multiplicity == count
        if count == 1:
            assert res.marks == best_marks


def test_dp_matches_vectorized_brute():
    for seed in range(30):
        g = rng(seed, 32)
        n = int(g.integers(1, 13))
        weights = [(float(g.uniform(0, 1)), float(g.uniform(0, 1))) for _ in range(n)]
        lb = [None, "0", "+", "-"][int(g.integers(0, 4))]
        rb = [None, "0", "+", "-"][int(g.integers(0, 4))]
        a = wr_chain_dp(weights, left_boundary=lb, right_boundary=rb)
        b = wr_segment_brute_force(weights, left_boundary=lb, right_boundary=rb)
        assert a.value == b.value
        assert a.multiplicity == b.multiplicity
        assert a.marks == b.marks


def _row_digit_segment_brute_force(weights, left_boundary=None, right_boundary=None, chunk=1 << 18):
    """Reference copy of the row-digit enumeration that wr_segment_brute_force
    replaced: base-3 digits of every row for every site, chunked by row range."""
    m = len(weights)
    if m == 0:
        return wr_chain_dp(weights, left_boundary, right_boundary)
    wp = np.array([w[0] for w in weights])
    wm = np.array([w[1] for w in weights])
    powers = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    total_rows = 3**m
    best, best_row, multiplicity = NEG_INF, -1, 0
    for start in range(0, total_rows, chunk):
        rows = np.arange(start, min(start + chunk, total_rows), dtype=np.int64)
        digits = (rows[:, None] // powers[None, :]) % 3
        valid = np.ones(len(rows), dtype=bool)
        if left_boundary == "+":
            valid &= digits[:, 0] != 2
        elif left_boundary == "-":
            valid &= digits[:, 0] != 1
        if right_boundary == "+":
            valid &= digits[:, -1] != 2
        elif right_boundary == "-":
            valid &= digits[:, -1] != 1
        if m > 1:
            a, b = digits[:, :-1], digits[:, 1:]
            clash = ((a == 1) & (b == 2)) | ((a == 2) & (b == 1))
            valid &= ~clash.any(axis=1)
        totals = np.zeros(len(rows))
        for k in range(m):
            totals = totals + np.where(
                digits[:, k] == 1, wp[k], np.where(digits[:, k] == 2, wm[k], 0.0)
            )
        totals[~valid] = NEG_INF
        chunk_max = float(totals.max())
        if chunk_max == NEG_INF:
            continue
        if chunk_max > best:
            best = chunk_max
            best_row = int(rows[int(np.argmax(totals))])
            multiplicity = int(np.count_nonzero(totals == best))
        elif chunk_max == best:
            multiplicity += int(np.count_nonzero(totals == best))
    if best_row < 0:
        return DpResult((), NEG_INF, 0)
    digits = (best_row // powers) % 3
    return DpResult(tuple(SIGNS[int(d)] for d in digits), best, multiplicity)


BOUNDARIES = [None, "0", "+", "-"]


@pytest.mark.parametrize("m", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("weights_kind", ["continuous", "ties", "zeros", "negative"])
def test_segment_brute_force_repr_equals_row_digit_enumeration(m, weights_kind):
    """Outer-sum enumeration against the row-digit reference, bit for bit in
    value, marks and tie count, for every boundary pair."""
    g = rng(m, 36)
    if weights_kind == "continuous":
        weights = [(float(g.uniform(0, 1)), float(g.uniform(0, 1))) for _ in range(m)]
    elif weights_kind == "ties":
        # 0.1 + 0.2 != 0.3: ties and near-ties that only a left-to-right sum keeps
        weights = [((0.1, 0.2, 0.3)[k % 3], (0.3, 0.1, 0.2)[k % 3]) for k in range(m)]
    elif weights_kind == "zeros":
        weights = [(0.0, 0.0)] * m
    else:
        weights = [(-float(g.uniform(0, 1)), float(g.uniform(-1, 0))) for _ in range(m)]
    for lb, rb in itertools.product(BOUNDARIES, BOUNDARIES):
        want = _row_digit_segment_brute_force(weights, lb, rb)
        assert repr(wr_segment_brute_force(weights, lb, rb)) == repr(want), (lb, rb)


@pytest.mark.parametrize("chunk", [1, 2, 3, 8, 9, 10, 27, 1 << 18])
def test_segment_brute_force_chunking_repr_invariant(chunk):
    """Chunks by leading-digit prefix give the reference result whatever the
    chunk size, with the best rows and ties spread over several chunks."""
    g = rng(7, 37)
    cases = [
        [(float(g.uniform(0, 1)), float(g.uniform(0, 1))) for _ in range(5)],
        [(0.5, 0.5)] * 5,
        [(0.1, 0.2), (0.2, 0.1), (0.3, 0.3), (0.1, 0.2), (0.2, 0.1)],
    ]
    for weights in cases:
        for lb, rb in itertools.product(BOUNDARIES, BOUNDARIES):
            want = _row_digit_segment_brute_force(weights, lb, rb, chunk=7)
            got = wr_segment_brute_force(weights, lb, rb, chunk=chunk)
            assert repr(got) == repr(want), (weights, lb, rb, chunk)


@pytest.mark.parametrize("m", [0, 2])
def test_segment_brute_force_rejects_unknown_boundary(m):
    with pytest.raises(ValidationError, match="boundar"):
        wr_segment_brute_force([(0.5, 0.5)] * m, "x", None)
    with pytest.raises(ValidationError, match="boundar"):
        wr_segment_brute_force([(0.5, 0.5)] * m, None, "++")


def test_segment_brute_force_repr_at_fourteen_sites():
    """The largest segment criterion 2 enumerates, several chunks deep."""
    g = rng(14, 38)
    weights = [(float(g.uniform(0, 1)), float(g.uniform(0, 1))) for _ in range(14)]
    for lb, rb in (("+", "+"), (None, "-")):
        want = _row_digit_segment_brute_force(weights, lb, rb)
        assert repr(wr_segment_brute_force(weights, lb, rb)) == repr(want)


def test_dp_multiplicity_one_for_continuous_weights():
    for seed in range(25):
        g = rng(seed, 33)
        weights = [(float(g.uniform(0, 1)), float(g.uniform(0, 1))) for _ in range(10)]
        assert wr_chain_dp(weights).multiplicity == 1


# -- shields and the unique line marking --------------------------------------


def test_unique_marking_matches_full_brute():
    for seed in range(10):
        c = sample_weighted_line(14, seed, 34)
        res = wr_unique_marking(c)
        weights = [(p.base.w_plus, p.base.w_minus) for p in c.points]
        brute = wr_segment_brute_force(weights)
        assert tuple(res.marks) == brute.marks
        assert brute.multiplicity == 1


def test_unique_marking_has_plus_in_every_interval():
    for seed in range(15):
        c = sample_weighted_line(300, seed, 35)
        res = wr_unique_marking(c)
        for iv in res.intervals:
            assert any(res.marks[k] == "+" for k in range(iv.lo, iv.hi + 1))


def test_unique_marking_admissible_and_anchored():
    c = sample_weighted_line(500, 5, 36)
    res = wr_unique_marking(c)
    for a, b in zip(res.marks, res.marks[1:]):
        assert {a, b} != {"+", "-"}
    for site in res.anchors:
        assert res.marks[site] == "+"
        assert res.resolved[site]
        iv = res.anchor_sources[site]
        assert iv.lo <= site <= iv.hi


def test_unique_marking_is_search_fixed_point():
    c = sample_weighted_line(60, 2, 37)
    res = wr_unique_marking(c)
    marked = wr_marks_to_configuration(c, res.marks)
    for seg in res.segments:
        inner = tuple(range(seg.left_anchor + 1, seg.right_anchor))
        if not inner or len(inner) > 7:
            continue
        params = SearchParams(k_max=len(inner), mode="exhaustive", indices=inner)
        final, trace = local_search(marked, WR, params)
        assert final == marked
        assert trace.steps == []


def test_unique_marking_few_shields_flagged():
    c = wr_config([(1.0, 1.0)] * 5)
    res = wr_unique_marking(c)
    assert "no-shields" in res.flags
    assert not any(res.resolved)


def test_unique_marking_boundary_unresolved():
    c = sample_weighted_line(200, 3, 38)
    res = wr_unique_marking(c)
    if not res.anchors:
        pytest.skip("draw produced no anchors")
    first, last = res.anchors[0], res.anchors[-1]
    assert all(not res.resolved[i] for i in range(0, max(first - 1, 0)))
    assert all(not res.resolved[i] for i in range(last + 2, 200))
    assert "unresolved-boundary" in res.flags


def test_segment_marks_survive_far_rerandomization():
    c = sample_weighted_line(400, 7, 39)
    res = wr_unique_marking(c)
    segs = [s for s in res.segments if s.interior_length >= 1]
    if not segs:
        pytest.skip("no interior segments in draw")
    seg = segs[len(segs) // 2]
    a1, a2 = seg.left_anchor, seg.right_anchor
    lo_keep = max(res.anchor_sources[a1].lo - 1, 0)
    hi_keep = min(res.anchor_sources[a2].hi + 1, 399)
    g = rng(71)
    for _ in range(5):
        pts = list(c.points)
        for i in range(400):
            if lo_keep <= i <= hi_keep:
                continue
            pts[i] = MarkedPoint(
                position=i,
                base=WeightPair(float(g.uniform(0, 1)), float(g.uniform(0, 1))),
            )
        res2 = wr_unique_marking(Configuration(c.window, c.model_id, tuple(pts)))
        assert res2.marks[a1 : a2 + 1] == res.marks[a1 : a2 + 1]


# -- trees --------------------------------------------------------------------


def test_tree_boundary_of_root():
    assert tree_boundary(3, {0}) == (1, 3)


def test_tree_boundary_of_depth_one_ball():
    assert tree_boundary(3, {0, 1, 2, 3}) == (4, 6)


def test_tree_boundary_empty():
    assert tree_boundary(3, set()) == (0, 0)


def test_tree_boundary_rejects_rim_vertices():
    from markopt.core import tree_vertex_count

    rim = tree_vertex_count(3) - 1
    with pytest.raises(ValidationError):
        tree_boundary(3, {rim})


def test_tree_boundary_dominates_interior():
    g = rng(41)
    from markopt.core import tree_vertex_count

    depth = 5
    interior = tree_vertex_count(depth - 1)
    for _ in range(300):
        size = int(g.integers(1, 12))
        vertices = set(int(v) for v in g.choice(interior, size=size, replace=False))
        n_v, n_b = tree_boundary(depth, vertices)
        assert n_v == len(vertices)
        assert n_b >= n_v


def test_uniform_tree_markings_locally_optimal():
    c = sample_weighted_tree(4, 3, lo=0.9, hi=1.1)
    for sign in ("+", "-"):
        marked = uniform_sign_configuration(c, sign)
        verdict = tree_local_optimality_check(marked, v_max=3)
        assert verdict.locally_optimal
        assert verdict.witness is None
        assert verdict.flip_excess_max <= 0.0


def test_planted_heavy_root_breaks_optimality():
    c = sample_weighted_tree(3, 5, lo=0.9, hi=1.1)
    heavy = MarkedPoint(position=0, base=WeightPair(1.0, 10.0))
    pts = (heavy,) + c.points[1:]
    c = Configuration(c.window, c.model_id, pts)
    marked = uniform_sign_configuration(c, "+")
    verdict = tree_local_optimality_check(marked, v_max=1)
    assert not verdict.locally_optimal
    assert verdict.witness is not None
    assert verdict.witness_gain == pytest.approx(10.0 - 0.9 * 1 - sum(
        c.points[v].base.w_plus for v in (0,)
    ), abs=2.0) or verdict.witness_gain > 0.0


def test_tree_check_work_cap():
    c = sample_weighted_tree(4, 1, lo=0.9, hi=1.1)
    marked = uniform_sign_configuration(c, "+")
    with pytest.raises(WorkCapError):
        tree_local_optimality_check(marked, v_max=5)


# -- lilypond -----------------------------------------------------------------


def lily_points(xs, side=50.0):
    w = periodic_cube(1, side)
    pts = tuple(MarkedPoint(position=(float(x),), base=None) for x in xs)
    return Configuration(w, "lilypond", pts)


def test_lilypond_two_points():
    c = lily_points([10.0, 13.0])
    res = lilypond_solve(c)
    assert res.radii == (1.5, 1.5)
    assert res.residual < 1e-9


def test_lilypond_three_collinear():
    c = lily_points([10.0, 11.0, 13.0])
    res = lilypond_solve(c)
    assert res.radii[0] == pytest.approx(0.5)
    assert res.radii[1] == pytest.approx(0.5)
    assert res.radii[2] == pytest.approx(1.5)
    # the late ball freezes against an already frozen one
    causes = {e.index: e.cause for e in res.events}
    assert causes[2] == "frozen"


def test_lilypond_scores_zero_everywhere():
    from markopt.models import LilypondModel

    w = periodic_cube(2, 12.0)
    c = sample_poisson_configuration(w, 0.8, "lilypond", None, 8)
    if c.n_points < 2:
        pytest.skip("degenerate draw")
    res = lilypond_solve(c)
    marked = lilypond_radii_configuration(c, res.radii)
    m = LilypondModel()
    for i in range(c.n_points):
        assert abs(m.score_at(marked, i)) < 1e-9


def test_lilypond_hard_core_property():
    w = periodic_cube(2, 15.0)
    c = sample_poisson_configuration(w, 1.0, "lilypond", None, 9)
    res = lilypond_solve(c)
    for i in range(c.n_points):
        for j in range(i + 1, c.n_points):
            d = torus_distance(w, c.points[i].position, c.points[j].position)
            assert d >= res.radii[i] + res.radii[j] - 1e-9


def test_lilypond_events_chronological():
    w = periodic_cube(1, 30.0)
    c = sample_poisson_configuration(w, 1.0, "lilypond", None, 10)
    res = lilypond_solve(c)
    times = [e.time for e in res.events]
    assert times == sorted(times)
    assert len(res.events) == c.n_points


def test_lilypond_fixed_point_agreement():
    for seed in (11, 12, 13):
        w = periodic_cube(2, 14.0)
        c = sample_poisson_configuration(w, 1.0, "lilypond", None, seed)
        if c.n_points < 2:
            continue
        event = lilypond_solve(c)
        radii, defect, sweeps = lilypond_fixed_point(c)
        assert defect < 1e-9
        assert max(abs(a - b) for a, b in zip(event.radii, radii)) < 1e-9


def test_lilypond_rejects_single_point():
    with pytest.raises(ValidationError):
        lilypond_solve(lily_points([5.0]))


def cubic_lilypond_solve(c):
    """Reference event loop: one submatrix argmin per event, O(n^3)."""
    n = c.n_points
    d = pairwise_torus_distances(c)
    np.fill_diagonal(d, np.inf)
    radii = np.zeros(n)
    frozen = np.zeros(n, dtype=bool)
    events = []
    while not frozen.all():
        growing, done = np.flatnonzero(~frozen), np.flatnonzero(frozen)
        best_time, best = np.inf, None
        if growing.size >= 2:
            sub = d[np.ix_(growing, growing)] / 2.0
            i0, j0 = divmod(int(np.argmin(sub)), growing.size)
            best_time, best = float(sub[i0, j0]), ("pair", growing[i0], growing[j0])
        if done.size:
            sub = d[np.ix_(growing, done)] - radii[done][None, :]
            i0, j0 = divmod(int(np.argmin(sub)), done.size)
            if float(sub[i0, j0]) < best_time:
                best_time, best = float(sub[i0, j0]), ("frozen", growing[i0], done[j0])
        cause, i, j = best[0], int(best[1]), int(best[2])
        pairs = [(min(i, j), max(i, j)), (max(i, j), min(i, j))] if cause == "pair" else [(i, j)]
        for a, b in pairs:
            radii[a], frozen[a] = best_time, True
            events.append(LilypondEvent(len(events), a, best_time, cause, b))
    return tuple(float(r) for r in radii), _lilypond_residual(d, radii), events


def lilypond_grid(dim, m, spacing=1.0):
    w = periodic_cube(dim, m * spacing)
    pts = [
        MarkedPoint(position=tuple(spacing * k for k in ks))
        for ks in itertools.product(range(m), repeat=dim)
    ]
    return Configuration(w, "lilypond", tuple(pts))


LILYPOND_CASES = [
    lilypond_grid(1, 9),
    lilypond_grid(2, 5),
    lilypond_grid(2, 6, 0.5),
    lilypond_grid(3, 3),
    # at t = 2 the pair (2, 3) ties the frozen event (2 against 1), and at
    # t = 19 point 4 reaches frozen balls 0 and 3 at once
    lily_points([0.0, 2.0, 5.0, 9.0, 30.0]),
    # the same, with the later-frozen ball holding the smaller index
    lily_points([30.0, 5.0, 9.0, 0.0, 2.0]),
] + [
    sample_poisson_configuration(periodic_cube(dim, side), 1.0, "lilypond", None, seed)
    for dim, side in ((1, 40.0), (2, 7.0), (3, 3.5))
    for seed in range(4)
]


@pytest.mark.parametrize("case", range(len(LILYPOND_CASES)))
def test_lilypond_solve_matches_cubic_event_loop(case):
    c = LILYPOND_CASES[case]
    res = lilypond_solve(c)
    assert repr((res.radii, res.residual, res.events)) == repr(cubic_lilypond_solve(c))


def looped_perturbation_search(c, deltas=(1e-3, 1e-2)):
    """Reference perturbation search: adds the score difference of every
    other point, one point at a time."""
    d = _lilypond_distances(c)
    n = c.n_points
    radii = np.array([_opt_mark(c, i, RadiusMark).radius for i in range(n)])
    u = lilypond_constraints(d, radii)
    first_idx = u.argmin(axis=1)
    first = u[np.arange(n), first_idx]
    u2 = u.copy()
    u2[np.arange(n), first_idx] = np.inf
    second = u2.min(axis=1)
    before = np.where(radii <= first + GEOM_TOL, radii - first, NEG_INF)
    best_gain, best = NEG_INF, None
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        for delta in deltas:
            for signed in (delta, -delta):
                r_new = radii[i] + signed
                if r_new < 0.0:
                    continue
                own_new = r_new - first[i] if r_new <= first[i] + GEOM_TOL else NEG_INF
                diffs = [score_diff(own_new, float(before[i]))]
                u_new = np.maximum(d[:, i] / 2.0, d[:, i] - r_new)
                excl = np.where(first_idx == i, second, first)
                min_new = np.minimum(excl, u_new)
                after = np.where(radii <= min_new + GEOM_TOL, radii - min_new, NEG_INF)
                for j in others[mask]:
                    diffs.append(score_diff(float(after[j]), float(before[j])))
                gain = sum_score_diffs(diffs)
                if gain > best_gain:
                    best_gain, best = gain, (i, signed)
    return best_gain, best


def perturbation_cases():
    cases = []
    for dim, side, seed in ((1, 30.0, 0), (2, 8.0, 1), (2, 8.0, 2), (3, 4.0, 3)):
        c = sample_poisson_configuration(periodic_cube(dim, side), 1.0, "lilypond", None, seed)
        radii = np.array(lilypond_solve(c).radii)
        # the growth marking, then one with overlaps (-inf) and slack
        cases.append(lilypond_radii_configuration(c, radii))
        scale = rng(seed, 5).uniform(0.5, 1.5, len(radii))
        cases.append(lilypond_radii_configuration(c, radii * scale))
    two = lily_points([10.0, 13.0])
    cases += [lilypond_radii_configuration(two, r) for r in ((1.5, 1.5), (0.5, 2.9), (2.0, 1.2))]
    # point 0 cannot shrink by either delta
    cases.append(lilypond_radii_configuration(lily_points([0.0, 1.0, 4.0]), (5e-4, 0.5, 1.0)))
    return cases


def test_perturbation_search_repr_equals_looped_sum():
    cases = perturbation_cases()
    model = LilypondModel()
    assert sum(NEG_INF in list(model.window_scores(c)) for c in cases) >= 4
    for c in cases:
        for deltas in ((1e-3, 1e-2), (0.3,)):
            expect = looped_perturbation_search(c, deltas)
            assert repr(lilypond_perturbation_search(c, deltas)) == repr(expect)


# -- concave argmax -----------------------------------------------------------


def test_argmax_increasing_function():
    assert mtp_argmax(math.log, 1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_argmax_interior_maximum():
    f = lambda p: math.log(p) + math.log(1.0 - 0.9 * p)
    assert mtp_argmax(f, 1e-9, 1.0) == pytest.approx(1.0 / 1.8, abs=1e-6)


def test_argmax_constant_returns_left_endpoint():
    assert mtp_argmax(lambda p: 2.0, 0.25, 1.0) == pytest.approx(0.25, abs=1e-6)


# -- aloha construction -------------------------------------------------------


def aloha_points(entries, side=40.0):
    from markopt.core import ReceiverOffset

    w = periodic_cube(1, side)
    pts = tuple(
        MarkedPoint(position=(float(x),), base=ReceiverOffset((float(y),)))
        for x, y in entries
    )
    return Configuration(w, "aloha", pts)


def test_aloha_isolated_gets_full_access():
    c = aloha_points([(10.0, 1.0)])
    out = aloha_optimal_marking(c, beta=4.0)
    assert out.points[0].opt.prob == pytest.approx(1.0, abs=1e-6)


def test_aloha_symmetric_pair_equal_probs():
    c = aloha_points([(10.0, 1.0), (12.0, -1.0)])
    out = aloha_optimal_marking(c, beta=4.0)
    p0 = out.points[0].opt.prob
    p1 = out.points[1].opt.prob
    assert p0 == pytest.approx(p1, abs=1e-6)
    assert 0.0 < p0 <= 1.0


ALOHA_CASES = [
    aloha_points([(10.0, 1.0)]),
    aloha_points([(10.0, 1.0), (12.0, -1.0)]),
    # point 1 transmits on point 0's receiver, so its objective is -inf at p = 1
    aloha_points([(10.0, 1.0), (11.0, 1.0), (14.0, -1.0)]),
] + [
    sample_poisson_configuration(
        periodic_cube(dim, side), 1.0, "aloha", receiver_offset_sampler(dim), seed
    )
    for dim, side, seed in ((1, 20.0, 1), (2, 5.0, 2), (2, 8.0, 3), (3, 3.0, 4))
]


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("case", range(len(ALOHA_CASES)))
def test_aloha_optimal_marking_matches_per_point_argmax(case, tol):
    c = ALOHA_CASES[case]
    a = aloha_response_terms(c, 4.0)
    expect = []
    for i in range(c.n_points):
        g = aloha_point_objective(np.delete(a[i], i))
        expect.append(repr(min(1.0, max(mtp_argmax(g, 0.0, 1.0, tol=tol), 1e-15))))
    out = aloha_optimal_marking(c, 4.0, tol=tol)
    assert [repr(p.opt.prob) for p in out.points] == expect


def test_aloha_first_order_conditions():
    from markopt.exact import aloha_point_objective, aloha_response_terms

    w = periodic_cube(2, 10.0)
    from markopt.models import AlohaModel

    m = AlohaModel(beta=4.0)
    c = sample_poisson_configuration(w, 1.0, "aloha", m.default_base_sampler(w), 14)
    out = aloha_optimal_marking(c, beta=4.0)
    a = aloha_response_terms(c, 4.0)
    h = 1e-7
    for i in range(c.n_points):
        gi = aloha_point_objective(a[i])
        p = out.points[i].opt.prob
        if p >= 1.0 - 1e-6:
            assert gi(1.0) >= gi(1.0 - h)
        else:
            slope = (gi(p + h) - gi(p - h)) / (2 * h)
            assert abs(slope) < 1e-4


# Test-only copies of the Aloha loops before the per-family attenuation
# matrix: the coupling terms and the window scores by one float pow, division
# and log1p per pair, with the window scores summed left to right.


def looped_aloha_response_terms(c, beta):
    dist = torus_cross_distances(c.window, positions_array(c), aloha_receivers(c))
    a = np.empty_like(dist)
    for i, row in enumerate(dist):
        a[i] = [1.0 / (1.0 + d**beta) for d in row.tolist()]
    np.fill_diagonal(a, 0.0)
    return a


def looped_aloha_window_scores(c, beta):
    probs = [p.opt.prob for p in c.points]
    dist = torus_cross_distances(c.window, aloha_receivers(c), positions_array(c))
    scores = []
    for i in range(c.n_points):
        acc = math.log(probs[i])
        for j, d in enumerate(dist[i].tolist()):
            if j == i:
                continue
            x = probs[j] / (1.0 + d**beta)
            if x >= 1.0:
                acc = NEG_INF
                break
            acc += math.log1p(-x)
        scores.append(acc)
    return scores


def aloha_reference_cases():
    """ALOHA_CASES with every access probability 1 (the third case then has a
    receiver on a p = 1 transmitter) and with seeded random ones, the dense
    configurations of test_models with n = 0, 1, 2, 7 and 25, and its edge
    case with a -inf row."""
    cases = []
    for k, c in enumerate(ALOHA_CASES):
        g = rng(k, 7)
        cases.append(c.with_opt_marks({i: AccessProb(1.0) for i in range(c.n_points)}))
        cases.append(c.with_opt_marks(
            {i: AccessProb(1.0 - float(g.random())) for i in range(c.n_points)}))
    cases += [dense_case("aloha", dim, n, seed) for dim in (1, 2, 3) for n in (0, 1, 2, 7, 25)
              for seed in range(2)]
    cases.append(aloha_config([(10.0, 1.0, 1.0), (11.0, 1.0, 1.0), (20.0, 1.0, 0.5)]))
    return cases


ALOHA_REFERENCE_CASES = aloha_reference_cases()


@pytest.mark.parametrize("beta", [4.0, 3.5])
@pytest.mark.parametrize("case", range(len(ALOHA_REFERENCE_CASES)))
def test_aloha_dense_terms_repr_equal_looped_copies(case, beta):
    c = ALOHA_REFERENCE_CASES[case]
    expect = looped_aloha_window_scores(c, beta)
    assert repr(list(AlohaModel(beta=beta).window_scores(c))) == repr(expect)
    assert repr(aloha_response_terms(c, beta).tolist()) == repr(
        looped_aloha_response_terms(c, beta).tolist())


def test_aloha_reference_cases_cover_the_edges():
    sizes = {c.n_points for c in ALOHA_REFERENCE_CASES}
    assert {0, 1, 2} <= sizes
    assert any(NEG_INF in looped_aloha_window_scores(c, 4.0) for c in ALOHA_REFERENCE_CASES)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim, side", [(1, 30.0), (2, 6.0)])
@pytest.mark.parametrize("kind", ["lilypond", "aloha"])
def test_oracle_output_window_total_in_shared_family(kind, dim, side, seed, monkeypatch):
    # the exact command scores the oracle's output, which shares the derived
    # cache of the configuration the oracle read: one matrix per family
    builds = []
    read = "aloha_receivers" if kind == "aloha" else "pairwise_torus_distances"
    original = getattr(models, read)

    def counted(c):  # read once per matrix build
        builds.append(c.n_points)
        return original(c)

    monkeypatch.setattr(models, read, counted)
    m = build_model(kind)
    w = periodic_cube(dim, side)
    c = sample_poisson_configuration(w, 1.0, kind, m.default_base_sampler(w), seed)

    def matrix(c):
        if kind == "aloha":
            return models.aloha_attenuation(c, m.beta)
        return models.lilypond_distances(c)

    marked, _ = oracle_marking(c, m, kind)
    scores = [repr(v) for v in m.window_scores(marked)]
    assert scores == [repr(m.checked_score_at(marked, i)) for i in range(c.n_points)]
    total = total_window_score(marked, m)
    a = matrix(c)
    before = a.copy()
    again, _ = oracle_marking(c, m, kind)
    assert repr(again) == repr(marked)
    assert repr(total_window_score(again, m)) == repr(total)
    assert builds == [c.n_points]
    assert matrix(again) is a
    assert not a.flags.writeable and np.array_equal(a, before)


# -- matching -----------------------------------------------------------------


def colored_points(entries, side=10.0):
    w = periodic_cube(1, side)
    pts = tuple(
        MarkedPoint(position=(float(x),), base=ColorMark(color))
        for x, color in entries
    )
    return Configuration(w, "matching", pts)


def test_matching_square_tie():
    c = colored_points(
        [(0.0, "blue"), (1.0, "red"), (2.0, "blue"), (3.0, "red")], side=4.0
    )
    res = matching_optimum(c)
    # window score counts each matched pair from both endpoints
    assert res.value == pytest.approx(-4.0)
    assert res.multiplicity == 2
    # lexicographically first permutation: blue 0 -> red 1, blue 2 -> red 3
    assert res.configuration.points[0].opt == PartnerIndex(1)
    assert res.configuration.points[2].opt == PartnerIndex(3)


def test_matching_single_pair():
    c = colored_points([(1.0, "blue"), (4.0, "red")])
    res = matching_optimum(c)
    m = MatchingModel()
    assert m.score_at(res.configuration, 0) == pytest.approx(-3.0)
    assert m.score_at(res.configuration, 1) == pytest.approx(-3.0)


def test_matching_output_admissible():
    g = rng(55)
    m = MatchingModel()
    for _ in range(10):
        xs = sorted(float(x) for x in g.uniform(0, 10, size=8))
        colors = ["blue"] * 4 + ["red"] * 4
        idx = [int(i) for i in g.permutation(8)]
        c = colored_points([(xs[k], colors[idx[k]]) for k in range(8)])
        res = matching_optimum(c)
        for i in range(8):
            assert m.score_at(res.configuration, i) > NEG_INF


def test_matching_rejects_unbalanced():
    c = colored_points([(1.0, "blue"), (2.0, "blue"), (3.0, "red")])
    with pytest.raises(ValidationError):
        matching_optimum(c)


def test_matching_work_cap():
    g = rng(56)
    xs = sorted(float(x) for x in g.uniform(0, 10, size=20))
    c = colored_points(
        [(x, "blue" if k < 10 else "red") for k, x in enumerate(xs)]
    )
    with pytest.raises(WorkCapError):
        matching_optimum(c)


def test_matching_value_equals_independent_enumeration():
    g = rng(57)
    for _ in range(5):
        n_pairs = 3
        xs = [float(x) for x in g.uniform(0, 10, size=2 * n_pairs)]
        colors = ["blue"] * n_pairs + ["red"] * n_pairs
        c = colored_points(list(zip(xs, colors)))
        res = matching_optimum(c)
        w = c.window
        blues = [i for i, p in enumerate(c.points) if p.base.color == "blue"]
        reds = [i for i, p in enumerate(c.points) if p.base.color == "red"]
        best = -math.inf
        for perm in itertools.permutations(reds):
            total = -sum(
                torus_distance(w, c.points[b].position, c.points[r].position)
                for b, r in zip(blues, perm)
            )
            best = max(best, total)
        assert res.value == pytest.approx(2.0 * best, abs=1e-12)
