"""Per-model score evaluators against hand-computed values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markopt import models
from markopt.core import (
    GEOM_TOL,
    NEG_INF,
    AccessProb,
    ColorMark,
    Configuration,
    GrainRadius,
    ItemSet,
    MarkSpaceError,
    MarkedPoint,
    PartnerIndex,
    RadiusMark,
    ReceiverOffset,
    Retain,
    SignMark,
    ValidationError,
    WeightPair,
    _replace_points,
    dump_configuration,
    grain_radius_sampler,
    graph_neighbors,
    integer_line,
    load_configuration,
    periodic_cube,
    receiver_offset_sampler,
    rng,
    sample_poisson_configuration,
    sample_weighted_line,
    sample_weighted_tree,
    pairwise_torus_distances,
    pairwise_torus_linf,
    torus_cross_distances,
    torus_distance,
    torus_distance_linf,
)
from markopt.estimate import aloha_truncated_score_at, hardcore_stab_radii_all
from markopt.models import (
    AlohaModel,
    CachingModel,
    HardcoreModel,
    LilypondModel,
    MatchingModel,
    WidomRowlinsonModel,
    _caching_score_1d,
    _caching_score_2d,
    aloha_receivers,
    build_model,
    grain_volume,
    hardcore_score_at,
    lilypond_score_at,
    validate_marked_configuration,
)
from markopt.optimize import total_window_score


def cube_points(window, entries, model_id):
    pts = tuple(
        MarkedPoint(position=pos, base=base, opt=opt) for pos, base, opt in entries
    )
    return Configuration(window, model_id, pts)


# -- hardcore thinning --------------------------------------------------------


def hardcore_config(entries, side=20.0, dim=1):
    w = periodic_cube(dim, side)
    return cube_points(
        w,
        [((float(x),) * dim, GrainRadius(r), Retain(keep)) for x, r, keep in entries],
        "hardcore",
    )


def test_hardcore_single_retained_grain():
    c = hardcore_config([(5.0, 1.0, True)])
    assert HardcoreModel().score_at(c, 0) == 2.0


def test_hardcore_overlap_is_inadmissible():
    c = hardcore_config([(5.0, 1.0, True), (6.5, 1.0, True)])
    m = HardcoreModel()
    assert m.score_at(c, 0) == NEG_INF
    assert m.score_at(c, 1) == NEG_INF


def test_hardcore_deleted_grain_scores_zero():
    # deletion neutralizes the overlap for the deleted grain only
    c = hardcore_config([(5.0, 1.0, False), (6.5, 1.0, True)])
    m = HardcoreModel()
    assert m.score_at(c, 0) == 0.0
    assert m.score_at(c, 1) == 2.0


def test_hardcore_touching_grains_admissible():
    c = hardcore_config([(5.0, 1.0, True), (7.0, 1.0, True)])
    m = HardcoreModel()
    assert m.score_at(c, 0) == 2.0
    assert m.score_at(c, 1) == 2.0


def test_hardcore_2d_volume():
    c = hardcore_config([(5.0, 1.5, True)], dim=2)
    assert HardcoreModel().score_at(c, 0) == pytest.approx(math.pi * 1.5**2)
    assert grain_volume(1, 2.0) == 4.0
    assert grain_volume(2, 2.0) == pytest.approx(4.0 * math.pi)


def test_hardcore_locality_witness():
    """Marks beyond 4 r_max from a grain never change its score."""
    w = periodic_cube(1, 40.0)
    m = HardcoreModel(radius_lo=0.5, radius_hi=1.0)
    g = rng(21)
    for _ in range(30):
        c = sample_poisson_configuration(
            w, 0.4, "hardcore", m.default_base_sampler(w), int(g.integers(0, 2**32))
        )
        if c.n_points < 2:
            continue
        c = c.with_opt_marks({i: Retain(True) for i in range(c.n_points)})
        r_max = max(p.base.radius for p in c.points)
        from markopt.core import torus_distance

        for i in range(c.n_points):
            before = m.score_at(c, i)
            for j in range(c.n_points):
                if j == i:
                    continue
                d = torus_distance(w, c.points[i].position, c.points[j].position)
                if d <= 4.0 * r_max:
                    continue
                flipped = c.with_opt_marks({j: Retain(False)})
                assert m.score_at(flipped, i) == before


def test_hardcore_neutral_mark_property():
    """Switching any point to the neutral mark hurts nobody."""
    w = periodic_cube(1, 10.0)
    m = HardcoreModel(radius_lo=0.3, radius_hi=0.8)
    neutral = m.neutral_mark()
    assert neutral == Retain(False)
    g = rng(22)
    checked = 0
    for _ in range(200):
        c = sample_poisson_configuration(
            w, 0.5, "hardcore", m.default_base_sampler(w), int(g.integers(0, 2**32))
        )
        marks = {i: Retain(bool(g.integers(0, 2))) for i in range(c.n_points)}
        c = c.with_opt_marks(marks)
        for i in range(c.n_points):
            swapped = c.with_opt_marks({i: neutral})
            assert m.score_at(swapped, i) >= 0.0
            for j in range(c.n_points):
                if j != i:
                    assert m.score_at(swapped, j) >= m.score_at(c, j)
            checked += 1
    assert checked > 100


# -- Widom-Rowlinson signs ----------------------------------------------------


def wr_line_config(rows):
    w = integer_line(len(rows))
    pts = tuple(
        MarkedPoint(position=i, base=WeightPair(wp, wm), opt=SignMark(s))
        for i, (wp, wm, s) in enumerate(rows)
    )
    return Configuration(w, "wr_line", pts)


def test_wr_direct_read():
    c = wr_line_config([(0.2, 0.9, "0"), (1.3, 0.4, "+"), (0.5, 0.5, "+")])
    m = WidomRowlinsonModel(graph="line")
    assert m.score_at(c, 1) == 1.3
    assert m.score_at(c, 0) == 0.0


def test_wr_opposite_neighbors_inadmissible():
    c = wr_line_config([(1.0, 1.0, "+"), (1.0, 1.0, "-")])
    m = WidomRowlinsonModel(graph="line")
    assert m.score_at(c, 0) == NEG_INF
    assert m.score_at(c, 1) == NEG_INF


def test_wr_zero_mark_scores_zero():
    c = wr_line_config([(3.0, 2.0, "0"), (1.0, 1.0, "-")])
    m = WidomRowlinsonModel(graph="line")
    assert m.score_at(c, 0) == 0.0
    assert m.score_at(c, 1) == 1.0


def test_wr_minus_reads_minus_weight():
    c = wr_line_config([(1.0, 2.5, "-")])
    assert WidomRowlinsonModel(graph="line").score_at(c, 0) == 2.5


def test_wr_tree_scores():
    c = sample_weighted_tree(1, 7)
    marks = {0: SignMark("+"), 1: SignMark("0"), 2: SignMark("+"), 3: SignMark("+")}
    c = c.with_opt_marks(marks)
    m = WidomRowlinsonModel(graph="tree")
    assert m.score_at(c, 0) == c.points[0].base.w_plus
    # flip one leaf to minus: the root becomes inadmissible, the other leaves not
    flipped = c.with_opt_marks({1: SignMark("-")})
    assert m.score_at(flipped, 0) == NEG_INF
    assert m.score_at(flipped, 1) == NEG_INF
    assert m.score_at(flipped, 2) == c.points[2].base.w_plus


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_wr_inadmissibility_is_symmetric(seed):
    c = sample_weighted_line(8, seed)
    g = rng(seed, 5)
    c = c.with_opt_marks(
        {i: SignMark(("0", "+", "-")[int(g.integers(0, 3))]) for i in range(8)}
    )
    m = WidomRowlinsonModel(graph="line")
    for i in range(7):
        si = c.points[i].opt.sign
        sj = c.points[i + 1].opt.sign
        if {si, sj} == {"+", "-"}:
            assert m.score_at(c, i) == NEG_INF
            assert m.score_at(c, i + 1) == NEG_INF


# -- lilypond -----------------------------------------------------------------


def lilypond_config(entries, side=50.0):
    w = periodic_cube(1, side)
    return cube_points(
        w, [((float(x),), None, RadiusMark(r)) for x, r in entries], "lilypond"
    )


def test_lilypond_equal_radii_score_zero():
    c = lilypond_config([(10.0, 0.5), (11.0, 0.5)])
    m = LilypondModel()
    assert m.score_at(c, 0) == 0.0
    assert m.score_at(c, 1) == 0.0


def test_lilypond_overgrown_is_inadmissible():
    c = lilypond_config([(10.0, 0.6), (11.0, 0.5)])
    m = LilypondModel()
    assert m.score_at(c, 0) == NEG_INF


def test_lilypond_undergrown_scores_deficit():
    c = lilypond_config([(10.0, 0.4), (11.0, 0.4)])
    m = LilypondModel()
    # U = max(1/2, 1 - 0.4) = 0.6 for both sides
    assert m.score_at(c, 0) == pytest.approx(-0.2)
    assert m.score_at(c, 1) == pytest.approx(-0.2)


def test_lilypond_single_point_scores_zero():
    c = lilypond_config([(10.0, 3.0)])
    assert LilypondModel().score_at(c, 0) == 0.0


# -- aloha --------------------------------------------------------------------


def aloha_config(entries, side=50.0):
    w = periodic_cube(1, side)
    return cube_points(
        w,
        [((float(x),), ReceiverOffset((float(y),)), AccessProb(p)) for x, y, p in entries],
        "aloha",
    )


def test_aloha_isolated_transmitter():
    c = aloha_config([(10.0, 1.0, 1.0)])
    assert AlohaModel(beta=4.0).score_at(c, 0) == 0.0


def test_aloha_single_interferer():
    # transmitter 1 sits at unit distance from the receiver of point 0
    c = aloha_config([(10.0, 1.0, 1.0), (12.0, 1.0, 1.0)])
    m = AlohaModel(beta=4.0)
    assert m.score_at(c, 0) == pytest.approx(math.log(0.5))
    # transmitter 0 is 3 away from receiver 13 of point 1
    assert m.score_at(c, 1) == pytest.approx(math.log(1.0 - 1.0 / 82.0))


def test_aloha_interferer_at_receiver():
    # receiver of point 0 sits exactly on transmitter 1
    c = aloha_config([(10.0, 1.0, 1.0), (11.0, 1.0, 1.0)])
    m = AlohaModel(beta=4.0)
    assert m.score_at(c, 0) == NEG_INF


def test_aloha_rejects_bad_access_prob():
    with pytest.raises(ValidationError):
        AccessProb(0.0)
    with pytest.raises(ValidationError):
        AccessProb(1.5)


def test_aloha_requires_beta_above_dim():
    m = AlohaModel(beta=1.5)
    m.validate_for_window(periodic_cube(1, 10.0))
    with pytest.raises(ValidationError):
        m.validate_for_window(periodic_cube(2, 10.0))


# -- dense window scores ------------------------------------------------------


def dense_case(kind, dim, n, seed, side=3.0):
    """n uniform points on a small cube with random radius or access marks;
    lilypond radii are often overgrown, so both score branches occur."""
    g = rng(seed, 5, n)
    pts = []
    for _ in range(n):
        pos = tuple(float(x) for x in g.uniform(0.0, side, size=dim))
        if kind == "lilypond":
            pts.append(MarkedPoint(pos, None, RadiusMark(float(g.uniform(0.0, 0.6)))))
        else:
            base = receiver_offset_sampler(dim)(g)
            pts.append(MarkedPoint(pos, base, AccessProb(1.0 - float(g.random()))))
    return Configuration(periodic_cube(dim, side), kind, tuple(pts))


def assert_window_scores_match(m, c):
    dense = [repr(v) for v in m.window_scores(c)]
    assert dense == [repr(m.checked_score_at(c, i)) for i in range(c.n_points)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [0, 1, 2, 7, 25])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "m",
    [LilypondModel(), AlohaModel(beta=4.0), AlohaModel(beta=3.5)],
    ids=["lilypond", "aloha", "aloha-beta3.5"],
)
def test_window_scores_match_per_point_scores(m, dim, n, seed):
    assert_window_scores_match(m, dense_case(m.kind, dim, n, seed))


def test_window_scores_edge_cases():
    # overgrown lilypond radius and an Aloha receiver on a p = 1 transmitter
    lily = lilypond_config([(10.0, 0.6), (11.0, 0.5), (30.0, 0.1)])
    aloha = aloha_config([(10.0, 1.0, 1.0), (11.0, 1.0, 1.0), (20.0, 1.0, 0.5)])
    for m, c in ((LilypondModel(), lily), (AlohaModel(beta=4.0), aloha)):
        assert NEG_INF in m.window_scores(c)
        assert_window_scores_match(m, c)
    with pytest.raises(ValidationError):
        list(AlohaModel(beta=2.0).window_scores(dense_case("aloha", 2, 3, 0)))


# -- caching ------------------------------------------------------------------


def caching_config(entries, side=20.0):
    w = periodic_cube(1, side)
    return cube_points(
        w,
        [((float(x),), GrainRadius(r), ItemSet(items)) for x, r, items in entries],
        "caching",
    )


def test_caching_single_cache():
    c = caching_config([(5.0, 1.0, (1,))])
    m = CachingModel(popularity=(1.0,), k_items=1)
    assert m.score_at(c, 0) == pytest.approx(2.0)


def test_caching_unstored_items_contribute_zero():
    c = caching_config([(5.0, 1.0, (2,))])
    m = CachingModel(popularity=(1.0, 0.0), k_items=1)
    assert m.score_at(c, 0) == pytest.approx(0.0)


def test_caching_shared_coverage_splits_mass():
    # near-co-located caches storing the same item split its mass evenly;
    # exact co-location is excluded by the simple-point check, so offset by
    # a hair and allow the matching tolerance
    delta = 1e-9
    c = caching_config([(5.0, 1.0, (1,)), (5.0 + delta, 1.0, (1,))])
    m = CachingModel(popularity=(1.0,), k_items=1)
    assert m.score_at(c, 0) == pytest.approx(1.0, abs=1e-6)
    assert m.score_at(c, 1) == pytest.approx(1.0, abs=1e-6)


def test_caching_partial_overlap_by_hand():
    # grains [4,6] and [5.5,7.5]; overlap [5.5,6] has two holders
    c = caching_config([(5.0, 1.0, (1,)), (6.5, 1.0, (1,))])
    m = CachingModel(popularity=(1.0,), k_items=1)
    expect = 1.5 + 0.5 / 2.0
    assert m.score_at(c, 0) == pytest.approx(expect)
    assert m.score_at(c, 1) == pytest.approx(expect)


def test_caching_popularity_validation():
    with pytest.raises(ValidationError):
        CachingModel(popularity=(0.5, 0.4), k_items=1)
    with pytest.raises(ValidationError):
        CachingModel(popularity=(1.2, -0.2), k_items=1)
    with pytest.raises(ValidationError):
        CachingModel(popularity=(0.5, 0.5), k_items=3)


def test_caching_neutral_mark_needs_zero_popularity():
    has_zero = CachingModel(popularity=(0.7, 0.3, 0.0), k_items=1)
    assert has_zero.neutral_mark() == ItemSet((3,))
    no_zero = CachingModel(popularity=(0.7, 0.3), k_items=1)
    assert no_zero.neutral_mark() is None
    reserved = CachingModel(popularity=(0.7, 0.3), k_items=1, reserve_neutral=True)
    assert reserved.neutral_mark() is not None
    assert sum(reserved.popularity) == pytest.approx(1.0)


def test_caching_neutral_mark_property():
    w = periodic_cube(1, 10.0)
    m = CachingModel(popularity=(0.6, 0.4), k_items=1, reserve_neutral=True)
    neutral = m.neutral_mark()
    g = rng(23)
    for _ in range(60):
        c = sample_poisson_configuration(
            w, 0.4, "caching", m.default_base_sampler(w), int(g.integers(0, 2**32))
        )
        c = c.with_opt_marks(
            {i: m.sample_mark(c, i, g) for i in range(c.n_points)}
        )
        for i in range(c.n_points):
            swapped = c.with_opt_marks({i: neutral})
            assert m.score_at(swapped, i) >= 0.0
            for j in range(c.n_points):
                if j != i:
                    assert m.score_at(swapped, j) >= m.score_at(c, j) - 1e-12


# -- matching -----------------------------------------------------------------


def matching_config(entries, side=10.0):
    w = periodic_cube(1, side)
    return cube_points(
        w,
        [
            ((float(x),), ColorMark(color), PartnerIndex(j))
            for x, color, j in entries
        ],
        "matching",
    )


def test_matching_reciprocal_pair():
    c = matching_config([(1.0, "blue", 1), (4.0, "red", 0)])
    m = MatchingModel()
    assert m.score_at(c, 0) == -3.0
    assert m.score_at(c, 1) == -3.0


def test_matching_non_reciprocal_is_inadmissible():
    c = matching_config([(1.0, "blue", 1), (4.0, "red", 2), (6.0, "blue", 1)])
    m = MatchingModel()
    assert m.score_at(c, 0) == NEG_INF


def test_matching_same_color_is_inadmissible():
    c = matching_config([(1.0, "blue", 1), (4.0, "blue", 0)])
    m = MatchingModel()
    assert m.score_at(c, 0) == NEG_INF
    assert m.score_at(c, 1) == NEG_INF


def test_matching_out_of_range_partner():
    c = matching_config([(1.0, "blue", 7), (4.0, "red", 0)])
    assert MatchingModel().score_at(c, 0) == NEG_INF


# -- shared interface ---------------------------------------------------------


def test_build_model_dispatch():
    assert isinstance(build_model("hardcore"), HardcoreModel)
    assert isinstance(build_model("wr_line"), WidomRowlinsonModel)
    assert isinstance(build_model("wr_tree"), WidomRowlinsonModel)
    assert isinstance(build_model("lilypond"), LilypondModel)
    assert isinstance(build_model("aloha", beta=5.0), AlohaModel)
    assert isinstance(build_model("caching"), CachingModel)
    assert isinstance(build_model("matching"), MatchingModel)
    with pytest.raises(ValidationError):
        build_model("percolation")


def test_neutral_mark_presence():
    # only grain retention and item caches have a do-no-harm mark
    assert HardcoreModel().neutral_mark() == Retain(False)
    assert CachingModel(popularity=(1.0, 0.0), k_items=1).neutral_mark() is not None
    assert WidomRowlinsonModel(graph="line").neutral_mark() is None
    assert LilypondModel().neutral_mark() is None
    assert AlohaModel().neutral_mark() is None
    assert MatchingModel().neutral_mark() is None


def test_checked_score_rejects_wrong_mark_space():
    c = wr_line_config([(1.0, 1.0, "0")])
    bad = c.with_opt_marks({0: Retain(True)})
    with pytest.raises(MarkSpaceError):
        WidomRowlinsonModel(graph="line").checked_score_at(bad, 0)


def test_checked_score_rejects_unset_mark():
    c = sample_weighted_line(3, 5)
    with pytest.raises(MarkSpaceError):
        WidomRowlinsonModel(graph="line").checked_score_at(c, 0)


def test_validate_marked_configuration():
    c = wr_line_config([(1.0, 1.0, "0"), (1.0, 2.0, "+")])
    validate_marked_configuration(c, WidomRowlinsonModel(graph="line"))
    with pytest.raises(MarkSpaceError):
        validate_marked_configuration(
            sample_weighted_line(2, 0), WidomRowlinsonModel(graph="line")
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sign_regimes_on_random_configs(seed):
    """Retention-type scores sit in [0, inf) + {-inf}; cost-type in [-inf, 0]."""
    g = rng(seed, 9)
    w = periodic_cube(1, 15.0)

    m = HardcoreModel()
    c = sample_poisson_configuration(w, 0.5, "hardcore", m.default_base_sampler(w), seed, 1)
    c = c.with_opt_marks({i: m.sample_mark(c, i, g) for i in range(c.n_points)})
    for i in range(c.n_points):
        v = m.score_at(c, i)
        assert v == NEG_INF or v >= 0.0

    m2 = LilypondModel()
    c2 = sample_poisson_configuration(w, 0.5, "lilypond", None, seed, 2)
    if c2.n_points >= 2:
        c2 = c2.with_opt_marks({i: m2.sample_mark(c2, i, g) for i in range(c2.n_points)})
        for i in range(c2.n_points):
            assert m2.score_at(c2, i) <= 0.0

    m3 = AlohaModel(beta=4.0)
    c3 = sample_poisson_configuration(w, 0.5, "aloha", m3.default_base_sampler(w), seed, 3)
    c3 = c3.with_opt_marks({i: m3.sample_mark(c3, i, g) for i in range(c3.n_points)})
    for i in range(c3.n_points):
        assert m3.score_at(c3, i) <= 0.0


def test_affected_points_superset_of_changed():
    c = sample_weighted_line(10, 2)
    c = c.with_opt_marks({i: SignMark("0") for i in range(10)})
    m = WidomRowlinsonModel(graph="line")
    affected = m.affected_points(c, (4, 7))
    assert set(affected) >= {4, 7}
    assert set(affected) == {3, 4, 5, 6, 7, 8}
    assert list(affected) == sorted(affected)


def _finite_mark_case(model, window, intensity, seed):
    c = sample_poisson_configuration(
        window, intensity, model.kind, model.default_base_sampler(window), seed
    )
    return c, model


# every model with a finite mark space, on windows dense enough to interact
FINITE_MARK_CASES = {
    "hardcore-1d": lambda s: _finite_mark_case(
        HardcoreModel(0.2, 0.6), periodic_cube(1, 6.0), 1.5, s
    ),
    "hardcore-2d": lambda s: _finite_mark_case(
        HardcoreModel(0.2, 0.6), periodic_cube(2, 4.0), 1.0, s
    ),
    "wr_line": lambda s: (sample_weighted_line(12, s), WidomRowlinsonModel(graph="line")),
    "wr_tree": lambda s: (sample_weighted_tree(2, s), WidomRowlinsonModel(graph="tree")),
    "caching-1d": lambda s: _finite_mark_case(
        CachingModel(radius_lo=0.3, radius_hi=1.0), periodic_cube(1, 6.0), 1.5, s
    ),
    "caching-2d": lambda s: _finite_mark_case(
        CachingModel(radius_lo=0.3, radius_hi=1.0, resolution=0.1), periodic_cube(2, 3.0), 1.0, s
    ),
    "matching": lambda s: _finite_mark_case(MatchingModel(), periodic_cube(2, 3.0), 1.0, s),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(FINITE_MARK_CASES))
def test_affected_points_contract(case, seed):
    """The affected set ignores opt marks and holds every point whose score
    a swap of the changed marks moves."""
    c, m = FINITE_MARK_CASES[case](seed)
    n = c.n_points
    if n < 2:
        pytest.skip("draw too small")
    g = rng(seed, 8)

    def redraw(config):
        return config.with_opt_marks(
            {i: m.sample_mark(config, i, g) for i in range(config.n_points)}
        )

    marked = [redraw(c) for _ in range(3)]
    for _ in range(6):
        k = int(g.integers(1, min(3, n) + 1))
        changed = tuple(sorted(int(i) for i in g.choice(n, size=k, replace=False)))
        affected = m.affected_points(marked[0], changed)
        assert set(changed) <= set(affected)
        assert list(affected) == sorted(affected)
        for config in marked:
            assert m.affected_points(config, changed) == affected
            cands = [m.mark_candidates(config, i) for i in changed]
            swapped = config.with_opt_marks(
                {i: cand[int(g.integers(0, len(cand)))] for i, cand in zip(changed, cands)}
            )
            moved = {
                j
                for j in range(n)
                if repr(m.score_at(swapped, j)) != repr(m.score_at(config, j))
            }
            assert moved <= set(affected)


# -- interaction graph --------------------------------------------------------


def _scan_neighbors(c, closed):
    """Grain contacts by a torus_distance double loop."""
    w, pts = c.window, c.points
    out = []
    for i, p in enumerate(pts):
        row = []
        for j, q in enumerate(pts):
            if j == i:
                continue
            d = torus_distance(w, p.position, q.position)
            reach = p.base.radius + q.base.radius + GEOM_TOL
            if (d <= reach) if closed else (d < reach):
                row.append(j)
        out.append(tuple(row))
    return out


def _old_hardcore_score_at(c, i):
    """hardcore_score_at as an all-point scan."""
    if not c.points[i].opt.keep:
        return 0.0
    p = c.points[i]
    r_i = p.base.radius
    for j, q in enumerate(c.points):
        if j == i or not q.opt.keep:
            continue
        if torus_distance(c.window, p.position, q.position) < r_i + q.base.radius - GEOM_TOL:
            return NEG_INF
    return grain_volume(c.window.dim, r_i)


def _old_caching_score_1d(c, i, popularity, items):
    """_caching_score_1d as an all-point scan."""
    side = c.window.side
    x_i = c.points[i].position[0]
    r_i = c.points[i].base.radius
    ball_len = min(2.0 * r_i, side)
    start = (x_i - r_i) % side
    total = 0.0
    for k in items:
        pieces = []
        cuts = {0.0, ball_len}
        for q in c.points:
            if k not in q.opt.items:
                continue
            r_j = q.base.radius
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


def _old_lilypond_score_at(c, i):
    """lilypond_score_at with one torus_distance call per other point."""
    r_i = c.points[i].opt.radius
    if c.n_points == 1:
        return 0.0
    tightest = min(
        max(0.5 * d, d - c.points[j].opt.radius)
        for j in range(c.n_points)
        if j != i
        for d in [torus_distance(c.window, c.points[i].position, c.points[j].position)]
    )
    if r_i <= tightest + GEOM_TOL:
        return r_i - tightest
    return NEG_INF


def _boundary_grains(dim, r_i=0.5, r_j=0.25):
    """Grains at the origin and on the first axis at distances r_i + r_j and
    within +-GEOM_TOL of it: exactly r_i + r_j, (r_i + r_j) + GEOM_TOL and
    (r_i + r_j) - GEOM_TOL, and one ulp either side of each."""
    reach = r_i + r_j + GEOM_TOL
    overlap = r_i + r_j - GEOM_TOL
    gaps = [r_i + r_j, reach, math.nextafter(reach, 0.0), math.nextafter(reach, 1.0),
            overlap, r_i + r_j + 2 * GEOM_TOL, math.nextafter(r_i + r_j, 0.0),
            math.nextafter(r_i + r_j, 1.0), math.nextafter(overlap, 0.0),
            math.nextafter(overlap, 1.0)]
    configs = []
    for gap in gaps:
        pts = (
            MarkedPoint((0.0,) * dim, GrainRadius(r_i)),
            MarkedPoint((gap,) + (0.0,) * (dim - 1), GrainRadius(r_j)),
        )
        configs.append(Configuration(periodic_cube(dim, 10.0), "hardcore", pts))
    return configs


def _grain_cases(dim):
    """Configurations of 0, 1 and 2 grains, boundary pairs and dense draws."""
    w = periodic_cube(dim, 3.0)
    sampler = grain_radius_sampler(0.1, 0.6)
    cases = [Configuration(w, "hardcore", ())]
    cases.append(Configuration(w, "hardcore", (MarkedPoint((1.0,) * dim, GrainRadius(0.4)),)))
    cases.append(
        Configuration(
            w,
            "hardcore",
            (
                MarkedPoint((1.0,) * dim, GrainRadius(0.4)),
                MarkedPoint((2.5,) * dim, GrainRadius(0.3)),
            ),
        )
    )
    cases += _boundary_grains(dim)
    for seed in range(4):
        cases.append(sample_poisson_configuration(w, 3.0 if dim == 1 else 2.0, "hardcore", sampler, seed))
    return cases


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [HardcoreModel(), CachingModel()], ids=["hardcore", "caching"])
def test_interaction_neighbors_match_scalar_scan(m, dim):
    closed = m.kind == "caching"
    for c in _grain_cases(dim):
        assert list(m.interaction_neighbors(c)) == _scan_neighbors(c, closed)


def test_boundary_grains_split_open_and_closed_range():
    for dim in (1, 2):
        at_reach = _boundary_grains(dim)[1]
        assert list(HardcoreModel().interaction_neighbors(at_reach)) == [(), ()]
        assert list(CachingModel().interaction_neighbors(at_reach)) == [(1,), (0,)]


def test_interaction_neighbors_across_blocks(monkeypatch):
    """Blocks of a few rows give the graph of one block."""
    w = periodic_cube(2, 3.0)
    c = sample_poisson_configuration(w, 4.0, "hardcore", grain_radius_sampler(0.1, 0.5), 3)
    assert c.n_points > 20
    whole = list(HardcoreModel().interaction_neighbors(c))
    monkeypatch.setattr(models, "_CONTACT_BLOCK", 2 * c.n_points + 1)
    fresh = Configuration(c.window, c.model_id, c.points)
    assert list(HardcoreModel().interaction_neighbors(fresh)) == whole == _scan_neighbors(c, False)


def test_graph_models_read_graph_neighbors():
    m = WidomRowlinsonModel(graph="tree")
    c = sample_weighted_tree(2, 1)
    assert m.interaction_neighbors(c) == tuple(graph_neighbors(c.window, i) for i in range(10))
    assert LilypondModel().interaction_neighbors(dense_case("lilypond", 2, 5, 0)) is None
    assert AlohaModel().interaction_neighbors(dense_case("aloha", 2, 5, 0)) is None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [1, 2])
def test_hardcore_score_matches_all_point_scan(dim, seed):
    g = rng(seed, 31)
    for c in _grain_cases(dim):
        marked = c.with_opt_marks({i: Retain(bool(g.integers(0, 4))) for i in range(c.n_points)})
        for i in range(c.n_points):
            assert repr(hardcore_score_at(marked, i)) == repr(_old_hardcore_score_at(marked, i))


@pytest.mark.parametrize("seed", range(4))
def test_caching_1d_score_matches_all_point_scan(seed):
    m = CachingModel(popularity=(0.4, 0.3, 0.2, 0.1), k_items=2)
    g = rng(seed, 32)
    for c in _grain_cases(1):
        marked = c.with_opt_marks({i: m.sample_mark(c, i, g) for i in range(c.n_points)})
        for i in range(c.n_points):
            items = marked.points[i].opt.items
            assert repr(_caching_score_1d(marked, i, m.popularity, items)) == repr(
                _old_caching_score_1d(marked, i, m.popularity, items)
            )


def _old_caching_score_2d(c, i, popularity, items, resolution):
    """_caching_score_2d with every point in the coverage matrix."""
    side = c.window.side
    radii = np.array([p.base.radius for p in c.points])
    positions = np.array([p.position for p in c.points], dtype=float)
    if resolution is None:  # the smallest grain among i and the grains touching it
        d_i = torus_cross_distances(c.window, positions[i : i + 1], positions)[0]
        resolution = float(radii[d_i <= radii[i] + radii + GEOM_TOL].min()) / 20.0
    x_i = np.asarray(c.points[i].position)
    r_i = radii[i]
    m = max(1, math.ceil(2.0 * r_i / resolution))
    axis = x_i[None, :] - r_i + (np.arange(m)[:, None] + 0.5) * resolution
    gx, gy = np.meshgrid(axis[:, 0], axis[:, 1], indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1) % side
    covered = torus_cross_distances(c.window, grid, positions) <= radii[None, :]
    inside = covered[:, i]
    total = 0.0
    cell = resolution * resolution
    for k in items:
        holders = np.array([k in q.opt.items for q in c.points])
        n_k = (covered[inside][:, holders]).sum(axis=1)
        total += popularity[k - 1] * cell * (1.0 / n_k).sum()
    return float(total)


@pytest.mark.parametrize("resolution", [None, 0.04])
@pytest.mark.parametrize("seed", range(2))
def test_caching_2d_score_matches_all_point_matrix(seed, resolution):
    m = CachingModel(popularity=(0.4, 0.3, 0.2, 0.1), k_items=2, resolution=resolution)
    g = rng(seed, 33)
    for c in _grain_cases(2):
        marked = c.with_opt_marks({i: m.sample_mark(c, i, g) for i in range(c.n_points)})
        for i in range(c.n_points):
            items = marked.points[i].opt.items
            assert repr(_caching_score_2d(marked, i, m.popularity, items, resolution)) == repr(
                _old_caching_score_2d(marked, i, m.popularity, items, resolution)
            )


def test_caching_2d_score_ignores_far_grains():
    """A 2-d score reads only the cache and the grains that touch it, its
    default grid included: a smaller grain far away changes nothing."""
    m = CachingModel(popularity=(0.5, 0.3, 0.2))
    near = (
        MarkedPoint((2.0, 2.0), GrainRadius(0.5), ItemSet((1,))),
        MarkedPoint((2.6, 2.0), GrainRadius(0.4), ItemSet((1,))),
    )
    far = MarkedPoint((9.0, 2.0), GrainRadius(0.31), ItemSet((2,)))
    w = periodic_cube(2, 16.0)
    alone = Configuration(w, "caching", near)
    with_far = Configuration(w, "caching", near + (far,))
    assert m.score_at(with_far, 0) == m.score_at(alone, 0)
    assert m.score_at(with_far, 1) == m.score_at(alone, 1)


def _old_hardcore_stab_radii_all(c):
    """hardcore_stab_radii_all from two n x n matrices."""
    n = c.n_points
    if n < 2:
        return np.zeros(n)
    radii = np.array([p.base.radius for p in c.points])
    capable = pairwise_torus_distances(c) < (radii[:, None] + radii[None, :]) - GEOM_TOL
    np.fill_diagonal(capable, False)
    return np.where(capable, 2.0 * pairwise_torus_linf(c), 0.0).max(axis=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_hardcore_stab_radii_match_matrices(dim):
    for c in _grain_cases(dim):
        new, old = hardcore_stab_radii_all(c), _old_hardcore_stab_radii_all(c)
        assert repr(new.tolist()) == repr(old.tolist())


def _old_matching_affected_points(c, changed):
    """MatchingModel.affected_points as it was before the colour graph."""
    own = set(changed)
    colors = {c.points[i].base.color for i in changed}
    return tuple(
        j for j in range(c.n_points) if j in own or colors != {c.points[j].base.color}
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p_blue", [0.0, 0.3, 0.5, 1.0])
def test_matching_affected_points_match_colour_scan(p_blue, seed):
    m = MatchingModel(p_blue=p_blue)
    w = periodic_cube(2, 3.0)
    c = sample_poisson_configuration(w, 1.5, "matching", m.default_base_sampler(w), seed)
    g = rng(seed, 34)
    for k in range(1, min(3, c.n_points) + 1):
        for _ in range(5):
            changed = tuple(sorted(int(i) for i in g.choice(c.n_points, size=k, replace=False)))
            assert m.affected_points(c, changed) == _old_matching_affected_points(c, changed)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 2, 7, 25])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lilypond_score_matches_scalar_distances(dim, n, seed):
    c = dense_case("lilypond", dim, n, seed)
    for i in range(n):
        assert repr(lilypond_score_at(c, i)) == repr(_old_lilypond_score_at(c, i))


def _old_aloha_receiver(c, i):
    """Receiver of point i, one coordinate at a time."""
    offset = c.points[i].base.offset
    return tuple((a + b) % c.window.side for a, b in zip(c.points[i].position, offset))


def _old_aloha_score_at(c, i, beta):
    """AlohaModel.score_at with one torus_distance and one float pow per interferer."""
    receiver = _old_aloha_receiver(c, i)
    acc = math.log(c.points[i].opt.prob)
    for j, q in enumerate(c.points):
        if j == i:
            continue
        x = q.opt.prob / (1.0 + torus_distance(c.window, q.position, receiver) ** beta)
        if x >= 1.0:
            return NEG_INF
        acc += math.log1p(-x)
    return acc


def _old_aloha_truncated_score_at(c, i, beta, radius):
    """aloha_truncated_score_at with one torus_distance and one float pow per interferer."""
    receiver = _old_aloha_receiver(c, i)
    acc = math.log(c.points[i].opt.prob)
    for j, q in enumerate(c.points):
        gap = 2.0 * torus_distance_linf(c.window, q.position, c.points[i].position)
        if j == i or gap > radius:
            continue
        dist = torus_distance(c.window, q.position, receiver)
        acc += math.log1p(-q.opt.prob / (1.0 + dist**beta))
    return acc


def _outcome(f, *args):
    """repr of f(*args), or the name of the exception that it raises."""
    try:
        return repr(f(*args))
    except Exception as err:
        return type(err).__name__


def assert_aloha_scores_match_scalar_copies(c):
    for beta in (4.0, 3.5):
        m = AlohaModel(beta=beta)
        for i in range(c.n_points):
            assert repr(m.score_at(c, i)) == repr(_old_aloha_score_at(c, i, beta))
            for radius in (0.0, 1.5, math.inf):
                assert _outcome(aloha_truncated_score_at, c, i, beta, radius) == _outcome(
                    _old_aloha_truncated_score_at, c, i, beta, radius)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", [0, 1, 2, 7, 25])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_aloha_scores_match_scalar_copies(dim, n, seed):
    c = dense_case("aloha", dim, n, seed)
    assert_aloha_scores_match_scalar_copies(c)
    assert repr(aloha_receivers(c).tolist()) == repr(
        [list(_old_aloha_receiver(c, i)) for i in range(n)])


def test_dense_scores_match_scalar_copies_on_edge_cases():
    # the -inf rows of test_window_scores_edge_cases; the truncated score of
    # a receiver on a p = 1 transmitter takes the log of 0 and raises
    lily = lilypond_config([(10.0, 0.6), (11.0, 0.5), (30.0, 0.1)])
    aloha = aloha_config([(10.0, 1.0, 1.0), (11.0, 1.0, 1.0), (20.0, 1.0, 0.5)])
    assert lilypond_score_at(lily, 0) == NEG_INF
    for i in range(3):
        assert repr(lilypond_score_at(lily, i)) == repr(_old_lilypond_score_at(lily, i))
    assert _old_aloha_score_at(aloha, 0, 4.0) == NEG_INF
    assert _outcome(_old_aloha_truncated_score_at, aloha, 0, 4.0, math.inf) == "ValueError"
    assert_aloha_scores_match_scalar_copies(aloha)


def test_aloha_receivers_wrap_into_the_window():
    w = periodic_cube(2, 4.0)
    c = cube_points(w, [((3.5, 0.2), ReceiverOffset((1.0, 0.0)), None),
                        ((1.0, 0.5), ReceiverOffset((0.0, -1.0)), None)], "aloha")
    assert aloha_receivers(c).tolist() == [[0.5, 0.2], [1.0, 3.5]]


def test_aloha_receivers_refuse_offsets_of_another_dimension():
    # a 1-d offset in a 2-d window would move the receiver along one axis only
    w = periodic_cube(2, 6.0)
    c = cube_points(w, [((1.0, 1.0), ReceiverOffset((1.0,)), AccessProb(1.0)),
                        ((3.0, 1.0), ReceiverOffset((-1.0,)), AccessProb(1.0))], "aloha")
    for score in (lambda: list(AlohaModel().window_scores(c)), lambda: AlohaModel().score_at(c, 0)):
        with pytest.raises(ValidationError, match="2 coordinates"):
            score()


@dataclasses.dataclass(frozen=True)
class _ConstantModel(models.ScoreModel):
    """Stub model that scores every point value."""

    kind = "constant"
    value: float = 0.0

    def score_at(self, c, i):
        return self.value


def test_checked_score_at_rejects_nan_and_pos_inf():
    c = lilypond_config([(1.0, 0.5)])
    assert _ConstantModel(1.5).checked_score_at(c, 0) == 1.5
    assert _ConstantModel(NEG_INF).checked_score_at(c, 0) == NEG_INF
    for value in (math.nan, math.inf):
        with pytest.raises(AssertionError, match="produced score"):
            _ConstantModel(value).checked_score_at(c, 0)


def test_model_parameters_outside_their_domain():
    for params in ({"popularity": (0.5, math.nan, 0.5)}, {"popularity": (0.5, math.inf)},
                   {"resolution": 0.0}, {"resolution": math.nan}, {"resolution": math.inf}):
        with pytest.raises(ValidationError):
            CachingModel(**params)
    for p_blue in (-0.1, 1.5, 5.0, math.nan):
        with pytest.raises(ValidationError, match="p_blue"):
            MatchingModel(p_blue=p_blue)
    assert MatchingModel(p_blue=0.0).p_blue == 0.0 and MatchingModel(p_blue=1.0).p_blue == 1.0


def test_derived_cache_follows_positions_and_base_marks(tmp_path):
    c = sample_poisson_configuration(
        periodic_cube(2, 3.0), 2.0, "hardcore", grain_radius_sampler(0.1, 0.5), 4
    )
    builds = []

    def probe(config):
        builds.append(config)
        return len(builds)

    assert c.derived("probe", probe) == 1
    marked = c.with_opt_marks({0: Retain(True)})
    view = _replace_points(marked, list(marked.points))
    assert marked.derived("probe", probe) == view.derived("probe", probe) == 1
    assert HardcoreModel().interaction_neighbors(view) is HardcoreModel().interaction_neighbors(c)
    path = str(tmp_path / "c.json")
    dump_configuration(marked, path)
    others = [
        load_configuration(path),
        Configuration(c.window, c.model_id, c.points),
        dataclasses.replace(c),
    ]
    for k, other in enumerate(others, start=2):
        assert other.derived("probe", probe) == k
    # the cache is no field: equality and repr ignore it
    assert others[1] == c and repr(others[1]) == repr(c)
    assert others[0] == marked


def test_hardcore_score_reads_only_contact_marks():
    """A grain far from every other scores without their marks; the window
    total still refuses a partly marked window."""
    c = hardcore_config([(1.0, 0.5, True), (10.0, 0.5, True)])
    partial = c.with_opt_marks({1: None})
    assert HardcoreModel().score_at(partial, 0) == 1.0
    with pytest.raises(MarkSpaceError):
        total_window_score(partial, HardcoreModel())
