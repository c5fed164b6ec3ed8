"""Monte Carlo estimation, stabilization radii, identity checks, result IO."""

import math
import os

import numpy as np
import pytest

from markopt.core import (
    NEG_INF,
    Configuration,
    GrainRadius,
    ItemSet,
    MarkedPoint,
    Retain,
    UnsupportedModelError,
    ValidationError,
    integer_line,
    periodic_cube,
    rng,
    sample_poisson_configuration,
    torus_distance,
    tree_ball,
)
from markopt.models import (
    AlohaModel,
    CachingModel,
    HardcoreModel,
    LilypondModel,
    MatchingModel,
    WidomRowlinsonModel,
)
from markopt.optimize import SearchParams
from markopt.estimate import (
    Policy,
    aloha_stab_radii_all,
    aloha_truncated_score_at,
    apply_policy,
    campbell_identity_check,
    coverage_hit_probability,
    hardcore_stab_radii_all,
    intensity_estimate,
    parse_policy,
    read_results_csv,
    record_to_row,
    run_replicates,
    sample_configuration,
    stabilization_sample,
    summarize_records,
    write_results_csv,
)


# -- policies -----------------------------------------------------------------


def test_parse_policy_forms():
    assert parse_policy("all-retain") == Policy("all-retain")
    p = parse_policy("oracle:wr-chain")
    assert p.name == "oracle" and p.oracle == "wr-chain"
    q = parse_policy({"name": "local-search", "search": {"k_max": 2}})
    assert q.search.k_max == 2
    with pytest.raises(ValidationError):
        parse_policy("simulated-annealing")
    with pytest.raises(ValidationError):
        parse_policy("oracle:newton")


def test_policy_labels():
    assert parse_policy("oracle:brute").label == "oracle:brute"
    assert parse_policy("neutral").label == "neutral"


def test_apply_policy_all_retain_requires_hardcore():
    w = integer_line(4)
    c = sample_configuration(WidomRowlinsonModel(graph="line"), w, None, 1, 0)
    with pytest.raises(ValidationError):
        apply_policy(c, WidomRowlinsonModel(graph="line"), Policy("all-retain"), 1, 0)


def test_apply_policy_neutral_requires_neutral_mark():
    w = integer_line(4)
    m = WidomRowlinsonModel(graph="line")
    c = sample_configuration(m, w, None, 1, 0)
    with pytest.raises(ValidationError):
        apply_policy(c, m, Policy("neutral"), 1, 0)


def test_sample_configuration_dispatch():
    m = HardcoreModel()
    cube = sample_configuration(m, periodic_cube(1, 10.0), 1.0, 3, 0)
    assert cube.model_id == "hardcore"
    line = sample_configuration(
        WidomRowlinsonModel(graph="line"), integer_line(6), None, 3, 0
    )
    assert line.n_points == 6
    tree = sample_configuration(
        WidomRowlinsonModel(graph="tree"), tree_ball(2), None, 3, 0
    )
    assert tree.n_points == 10
    # replicate index shifts the substream
    other = sample_configuration(m, periodic_cube(1, 10.0), 1.0, 3, 1)
    assert other != cube


# -- intensity estimation -----------------------------------------------------


def test_neutral_policy_estimates_exactly_zero():
    est = intensity_estimate(
        HardcoreModel(), periodic_cube(1, 10.0), Policy("neutral"),
        intensity=1.0, replicates=40, seed=5,
    )
    assert est.mean == 0.0
    assert est.stderr == 0.0
    assert est.inadmissible_fraction == 0.0


def test_sparse_all_retain_matches_campbell_mean():
    # overlap-free regime: score intensity = lambda * mean grain volume
    lam = 0.02
    m = HardcoreModel(radius_lo=0.05, radius_hi=0.15)
    est = intensity_estimate(
        m, periodic_cube(1, 50.0), Policy("all-retain"),
        intensity=lam, replicates=400, seed=7,
    )
    expect = lam * 2.0 * 0.10
    assert est.inadmissible_fraction < 0.2
    half_width = est.ci95[1] - est.mean
    assert abs(est.mean - expect) <= max(3.0 * est.stderr, 1e-3)
    assert half_width == pytest.approx(1.96 * est.stderr)


def test_stderr_scaling_with_replicates():
    m = HardcoreModel()
    kwargs = dict(intensity=0.5, seed=9)
    small = intensity_estimate(
        m, periodic_cube(1, 10.0), Policy("neutral"), replicates=100, **kwargs
    )
    # neutral scores are deterministic zero; use all-retain for spread
    small = intensity_estimate(
        m, periodic_cube(1, 10.0), Policy("all-retain"), replicates=100, **kwargs
    )
    big = intensity_estimate(
        m, periodic_cube(1, 10.0), Policy("all-retain"), replicates=10_000, **kwargs
    )
    assert small.stderr > 0.0 and big.stderr > 0.0
    ratio = small.stderr / big.stderr
    assert 5.0 <= ratio <= 20.0


def test_policy_ordering_on_hardcore():
    """Search dominates blanket retention replicate by replicate.

    The estimate means are not directly comparable: all-retain drops its
    inadmissible replicates, which biases its conditional mean toward sparse
    draws.  The pointwise comparison on shared seeds is the honest one.
    """
    m = HardcoreModel(radius_lo=0.3, radius_hi=0.8)
    w = periodic_cube(1, 12.0)
    shared = dict(intensity=0.6, replicates=25, seed=11)
    searched = intensity_estimate(
        m, w, Policy("local-search", search=SearchParams(k_max=1)), **shared
    )
    retained = intensity_estimate(m, w, Policy("all-retain"), **shared)
    neutral = intensity_estimate(m, w, Policy("neutral"), **shared)
    assert searched.mean >= neutral.mean
    assert retained.inadmissible_fraction > 0.0
    assert searched.inadmissible_fraction == 0.0

    pol = Policy("local-search", search=SearchParams(k_max=1))
    srecs = run_replicates(m, w, pol, intensity=0.6, replicates=25, seed=11)
    rrecs = run_replicates(m, w, Policy("all-retain"), intensity=0.6, replicates=25, seed=11)
    for s, r in zip(srecs, rrecs):
        assert s.seed == r.seed
        assert s.total_score >= r.total_score


def test_run_replicates_thread_invariance():
    m = HardcoreModel()
    w = periodic_cube(1, 15.0)
    pol = Policy("local-search", search=SearchParams(k_max=1))
    serial = run_replicates(m, w, pol, intensity=0.5, replicates=12, seed=3, threads=1)
    parallel = run_replicates(m, w, pol, intensity=0.5, replicates=12, seed=3, threads=4)
    strip = lambda recs: [
        (r.replicate, r.seed, r.n_points, r.total_score, r.admissible) for r in recs
    ]
    assert strip(serial) == strip(parallel)


def test_summarize_excludes_inadmissible():
    from markopt.estimate import ReplicateRecord

    w = periodic_cube(1, 10.0)
    records = [
        ReplicateRecord(0, 1, 5, 2.0, True, 0.1),
        ReplicateRecord(1, 2, 5, NEG_INF, False, 0.1),
        ReplicateRecord(2, 3, 5, 4.0, True, 0.1),
    ]
    est = summarize_records(records, w)
    assert est.mean == pytest.approx((0.2 + 0.4) / 2)
    assert est.inadmissible_fraction == pytest.approx(1.0 / 3.0)
    assert est.replicates == 3


# -- hardcore stabilization ---------------------------------------------------


def hc_config(entries, side=20.0):
    w = periodic_cube(1, side)
    pts = tuple(
        MarkedPoint(position=(float(x),), base=GrainRadius(r), opt=Retain(True))
        for x, r in entries
    )
    return Configuration(w, "hardcore", pts)


def test_isolated_grain_radius_zero():
    c = hc_config([(2.0, 0.5), (15.0, 0.5)])
    assert hardcore_stab_radii_all(c)[0] == 0.0


def test_hardcore_radius_bound():
    m = HardcoreModel(radius_lo=0.2, radius_hi=0.7)
    g = rng(61)
    for _ in range(50):
        w = periodic_cube(1, 20.0)
        c = sample_poisson_configuration(
            w, 0.7, "hardcore", m.default_base_sampler(w), int(g.integers(0, 2**32))
        )
        if c.n_points == 0:
            continue
        r_max = max(p.base.radius for p in c.points)
        radii = hardcore_stab_radii_all(c)
        for i in range(c.n_points):
            assert radii[i] <= 4.0 * r_max + 1e-12


def test_hardcore_radius_strong_stabilization():
    """Mark changes outside the cube of the radius never move the score."""
    m = HardcoreModel(radius_lo=0.3, radius_hi=0.8)
    g = rng(62)
    for _ in range(40):
        w = periodic_cube(1, 16.0)
        c = sample_poisson_configuration(
            w, 0.6, "hardcore", m.default_base_sampler(w), int(g.integers(0, 2**32))
        )
        if c.n_points < 2:
            continue
        c = c.with_opt_marks(
            {i: Retain(bool(g.integers(0, 2))) for i in range(c.n_points)}
        )
        radii = hardcore_stab_radii_all(c)
        for i in range(c.n_points):
            r = radii[i]
            base = m.score_at(c, i)
            for j in range(c.n_points):
                if j == i:
                    continue
                d = torus_distance(w, c.points[i].position, c.points[j].position)
                if d <= r / 2.0:
                    continue
                flipped = c.with_opt_marks({j: Retain(not c.points[j].opt.keep)})
                assert m.score_at(flipped, i) == base


# -- aloha stabilization ------------------------------------------------------


def aloha_sample(seed, side=10.0, lam=1.0):
    m = AlohaModel(beta=4.0)
    w = periodic_cube(2, side)
    c = sample_poisson_configuration(w, lam, "aloha", m.default_base_sampler(w), seed)
    g = rng(seed, 99)
    return c.with_opt_marks({i: m.sample_mark(c, i, g) for i in range(c.n_points)})


def test_aloha_radii_zero_when_epsilon_huge():
    c = aloha_sample(15)
    if c.n_points < 2:
        pytest.skip("draw too small")
    internal, external = aloha_stab_radii_all(c, epsilon=1e9, beta=4.0)
    assert internal[0] == 0.0
    assert external[0] == 0.0


def test_aloha_radii_monotone_in_epsilon():
    c = aloha_sample(16)
    if c.n_points < 3:
        pytest.skip("draw too small")
    grid = [1e-1, 1e-2, 1e-3, 1e-4]
    radii = [aloha_stab_radii_all(c, eps, 4.0) for eps in grid]
    for i in range(min(c.n_points, 5)):
        internals = [internal[i] for internal, _ in radii]
        externals = [external[i] for _, external in radii]
        assert internals == sorted(internals)
        assert externals == sorted(externals)


def test_aloha_radii_rejects_bad_epsilon():
    c = aloha_sample(17)
    if c.n_points == 0:
        pytest.skip("empty draw")
    with pytest.raises(ValidationError):
        aloha_stab_radii_all(c, 0.0, 4.0)


def test_aloha_truncation_error_within_epsilon():
    c = aloha_sample(18)
    if c.n_points < 3:
        pytest.skip("draw too small")
    m = AlohaModel(beta=4.0)
    for eps in (1e-2, 1e-4):
        internal, _ = aloha_stab_radii_all(c, eps, 4.0)
        for i in range(min(c.n_points, 6)):
            full = m.score_at(c, i)
            truncated = aloha_truncated_score_at(c, i, 4.0, internal[i])
            assert abs(full - truncated) <= eps + 1e-12


def test_stabilization_sample_summaries():
    sample = stabilization_sample(
        HardcoreModel(), periodic_cube(1, 15.0), intensity=0.8, replicates=30, seed=4
    )
    grid = np.linspace(0.0, 3.0, 11)
    ccdf = sample.ccdf(grid)
    assert all(a >= b for a, b in zip(ccdf, ccdf[1:]))
    assert 0.0 <= ccdf[-1] <= ccdf[0] <= 1.0
    mom = sample.moments(dim=1, p=2.0)
    assert set(mom) == {1.0, 2.0}
    assert all(math.isfinite(v) for v in mom.values())

    aloha = stabilization_sample(
        AlohaModel(beta=4.0), periodic_cube(2, 6.0), intensity=1.0,
        replicates=10, seed=4, epsilon=1e-3,
    )
    assert aloha.epsilon == 1e-3
    mom2 = aloha.moments(dim=2, p=2.0)
    assert set(mom2) == {1.0, 2.0, 4.0}


def test_stabilization_sample_unsupported_model():
    with pytest.raises(UnsupportedModelError):
        stabilization_sample(MatchingModel(), periodic_cube(2, 5.0), intensity=1.0)


# -- coverage and identity checks ---------------------------------------------


def caching_marked(entries, side=10.0):
    w = periodic_cube(1, side)
    pts = tuple(
        MarkedPoint(position=(float(x),), base=GrainRadius(r), opt=ItemSet(items))
        for x, r, items in entries
    )
    return Configuration(w, "caching", pts)


def test_hit_probability_full_coverage():
    # one cache whose grain wraps the whole 1-torus
    c = caching_marked([(5.0, 6.0, (1,))], side=10.0)
    p, se = coverage_hit_probability(c, popularity=(0.6, 0.4), samples=20000, seed=1)
    assert p == pytest.approx(0.6, abs=3 * se + 1e-9)


def test_hit_probability_no_caches():
    w = periodic_cube(1, 10.0)
    c = Configuration(w, "caching", ())
    p, se = coverage_hit_probability(c, popularity=(1.0,), samples=1000, seed=1)
    assert p == 0.0 and se == 0.0


def test_campbell_identity_hardcore_exact():
    m = HardcoreModel(radius_lo=0.2, radius_hi=0.5)
    g = rng(63)
    for _ in range(20):
        w = periodic_cube(1, 12.0)
        c = sample_poisson_configuration(
            w, 0.5, "hardcore", m.default_base_sampler(w), int(g.integers(0, 2**32))
        )
        c = c.with_opt_marks({i: Retain(True) for i in range(c.n_points)})
        from markopt.optimize import total_window_score

        if total_window_score(c, m) == NEG_INF:
            with pytest.raises(ValidationError):
                campbell_identity_check(c, m)
            continue
        check = campbell_identity_check(c, m)
        assert check.gap < 1e-12


def test_campbell_identity_caching_mc():
    m = CachingModel(popularity=(0.5, 0.3, 0.2), k_items=1)
    w = periodic_cube(1, 10.0)
    g = rng(64)
    c = sample_poisson_configuration(w, 0.5, "caching", m.default_base_sampler(w), 19)
    c = c.with_opt_marks({i: m.sample_mark(c, i, g) for i in range(c.n_points)})
    check = campbell_identity_check(c, m, samples=200000, seed=2)
    assert check.gap <= 3.0 * check.stderr + 1e-9


def test_campbell_identity_empty_configuration():
    w = periodic_cube(1, 10.0)
    check = campbell_identity_check(Configuration(w, "hardcore", ()), HardcoreModel())
    assert check.gap == 0.0


def test_campbell_identity_unsupported_model():
    w = integer_line(3)
    c = sample_configuration(WidomRowlinsonModel(graph="line"), w, None, 1, 0)
    with pytest.raises(UnsupportedModelError):
        campbell_identity_check(c, WidomRowlinsonModel(graph="line"))


# -- results IO ---------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    from markopt.estimate import ReplicateRecord

    rows = [
        record_to_row("exp", "neutral", ReplicateRecord(0, 7, 3, 1.25, True, 0.5)),
        record_to_row("exp", "neutral", ReplicateRecord(1, 8, 0, NEG_INF, False, 0.25)),
    ]
    path = os.path.join(tmp_path, "results.csv")
    write_results_csv(path, rows)
    back = read_results_csv(path)
    assert len(back) == 2
    assert back[0]["experiment"] == "exp"
    assert back[0]["replicate"] == 0
    assert back[0]["total_score"] == 1.25
    assert back[0]["admissible"] is True
    assert back[1]["total_score"] == NEG_INF
    assert back[1]["admissible"] is False


def test_csv_deterministic_bytes(tmp_path):
    from markopt.estimate import ReplicateRecord

    rows = [record_to_row("e", "p", ReplicateRecord(0, 1, 2, 0.5, True, 1.234567))]
    p1 = os.path.join(tmp_path, "a.csv")
    p2 = os.path.join(tmp_path, "b.csv")
    write_results_csv(p1, rows)
    write_results_csv(p2, rows)
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        assert fa.read() == fb.read()
