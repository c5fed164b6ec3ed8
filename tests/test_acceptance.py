"""Acceptance gate: one test per release criterion.

Each test is self-contained, pins its seeds and tolerances, and prints a
single summary line on success, so the -v output reads as a pass/fail
checklist.  Wall-clock budgets are asserted where a criterion carries one.
"""

import csv
import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np

from markopt.cli import main
from markopt.core import (
    AccessProb,
    ColorMark,
    Configuration,
    MarkedPoint,
    WeightPair,
    pairwise_torus_distances,
    periodic_cube,
    rng,
    sample_weighted_line,
    sample_weighted_tree,
    torus_distance,
)
from markopt.estimate import (
    aloha_stab_radii_all,
    aloha_truncated_score_at,
    campbell_identity_check,
    sample_configuration,
    stabilization_sample,
)
from markopt.models import (
    AlohaModel,
    CachingModel,
    HardcoreModel,
    LilypondModel,
    WidomRowlinsonModel,
)
from markopt.optimize import (
    SearchParams,
    initialize_marks,
    local_search,
    total_window_score,
)
from markopt import exact

SIGNS = ("+", "-", "0")


def admissible_draws(model, window, intensity, seed, count, n_lo, n_hi):
    """First `count` replicate draws whose point count lies in [n_lo, n_hi]."""
    out = []
    k = 0
    while len(out) < count:
        c = sample_configuration(model, window, intensity, seed, k)
        k += 1
        if n_lo <= c.n_points <= n_hi:
            out.append(c)
        assert k < 40 * count, "draw acceptance rate collapsed"
    return out


def caching_rational_total(c, popularity):
    """Window total of a caching marking in exact rational arithmetic.

    The per-point credit splitting telescopes: summed over the window it
    equals the popularity-weighted union coverage per item, which needs only
    interval arithmetic on exact binary rationals.  Used to decide whether
    two markings whose float totals differ in the last ulp are a true tie."""
    side = Fraction(c.window.side)
    total = Fraction(0)
    for k in range(1, len(popularity) + 1):
        segments = []
        for p in c.points:
            if k not in p.opt.items:
                continue
            x, r = Fraction(p.position[0]), Fraction(p.base.radius)
            width = min(2 * r, side)
            start = (x - r) % side
            end = start + width
            if end <= side:
                segments.append((start, end))
            else:
                segments.append((start, side))
                segments.append((Fraction(0), end - side))
        segments.sort()
        cur = None
        for lo, hi in segments:
            if cur is None or lo > cur[1]:
                if cur is not None:
                    total += Fraction(popularity[k - 1]) * (cur[1] - cur[0])
                cur = [lo, hi]
            else:
                cur[1] = max(cur[1], hi)
        if cur is not None:
            total += Fraction(popularity[k - 1]) * (cur[1] - cur[0])
    return total


def test_criterion_01_search_matches_brute_force_on_discrete_models():
    """Exhaustive local search with swap size up to n lands exactly on the
    enumerated optimum, for every discrete mark space."""
    t0 = time.monotonic()
    checked = 0

    hardcore = HardcoreModel()
    for c in admissible_draws(hardcore, periodic_cube(1, 5.0), 1.0, 41, 100, 1, 8):
        brute = exact.brute_force_optimum(c, hardcore)
        params = SearchParams(k_max=c.n_points, mode="exhaustive", seed=checked)
        final, _ = local_search(initialize_marks(c, hardcore, params), hardcore, params)
        assert total_window_score(final, hardcore) == brute.value
        checked += 1

    wr = WidomRowlinsonModel(graph="line")
    for k in range(100):
        n = 2 + k % 9
        c = sample_weighted_line(n, 40, k)
        brute = exact.brute_force_optimum(c, wr)
        params = SearchParams(k_max=n, mode="exhaustive", seed=k)
        final, _ = local_search(initialize_marks(c, wr, params), wr, params)
        assert total_window_score(final, wr) == brute.value
        checked += 1

    caching = CachingModel(popularity=(0.4, 0.3, 0.2, 0.1), k_items=2)
    rational_ties = 0
    for c in admissible_draws(caching, periodic_cube(1, 5.0), 1.0, 77, 100, 1, 5):
        brute = exact.brute_force_optimum(c, caching)
        params = SearchParams(k_max=c.n_points, mode="exhaustive", seed=checked)
        final, _ = local_search(initialize_marks(c, caching, params), caching, params)
        if total_window_score(final, caching) != brute.value:
            # a ball contained in its same-item neighbors makes several
            # markings tie exactly; the float totals then disagree in the
            # last ulp and only rational arithmetic can certify the tie
            brute_marked = c.with_opt_marks(dict(enumerate(brute.marks)))
            assert caching_rational_total(
                final, caching.popularity
            ) == caching_rational_total(brute_marked, caching.popularity)
            rational_ties += 1
        checked += 1

    elapsed = time.monotonic() - t0
    assert checked == 300
    assert rational_ties <= 5
    assert elapsed < 300.0
    print(
        f"criterion 1 PASS: 300 configurations, zero gap to brute force "
        f"({rational_ties} exact ties), {elapsed:.0f}s"
    )


def test_criterion_02_chain_resolution_unique_and_reproducible():
    """On long weight chains the shield decomposition is confirmed three
    ways per draw: segment brute force, tie counting, and restarted local
    search restricted to a segment."""
    t0 = time.monotonic()
    model = WidomRowlinsonModel(graph="line")
    brute_checked = 0
    searches = 0
    for draw in range(50):
        c = sample_weighted_line(2000, 12345, draw)
        res = exact.wr_unique_marking(c)
        assert len(res.anchors) >= 2
        weights = [
            (p.base.w_plus, p.base.w_minus) for p in c.points
        ]

        for s in res.segments:
            assert s.multiplicity == 1
            if 1 <= s.interior_length <= 14:
                bf = exact.wr_segment_brute_force(
                    weights[s.left_anchor + 1 : s.right_anchor], "+", "+"
                )
                assert bf.marks == res.marks[s.left_anchor + 1 : s.right_anchor]
                assert bf.multiplicity == 1
                brute_checked += 1

        # hardest affordable segments: restart the search 20 times from
        # random sign assignments of the interior and require it to land on
        # the resolved marks every time
        chosen = sorted(
            (s for s in res.segments if 1 <= s.interior_length <= 7),
            key=lambda s: -s.interior_length,
        )[:2]
        for s in chosen:
            inner = tuple(range(s.left_anchor + 1, s.right_anchor))
            params = SearchParams(k_max=len(inner), mode="exhaustive", indices=inner)
            want = tuple(res.marks[i] for i in inner)
            for init in range(20):
                g = rng(777, 70, draw, init)
                marks = list(res.marks)
                for i in inner:
                    marks[i] = SIGNS[int(g.integers(3))]
                start = exact.wr_marks_to_configuration(c, tuple(marks))
                final, _ = local_search(start, model, params)
                assert tuple(final.points[i].opt.sign for i in inner) == want
                searches += 1

    elapsed = time.monotonic() - t0
    assert brute_checked > 500
    assert searches == 50 * 2 * 20
    assert elapsed < 600.0
    print(
        f"criterion 2 PASS: 50 chains, {brute_checked} segments brute-forced, "
        f"{searches} restarted searches reproduced, {elapsed:.0f}s"
    )


def test_criterion_03_segment_marks_shielded_from_outside_weights():
    """Weights beyond the two flanking blocking intervals (and the one-site
    neighborhoods defining them) never move a resolved segment's marks."""
    t0 = time.monotonic()
    n = 500
    trials = 0
    trial_seed = 0
    while trials < 100:
        c = sample_weighted_line(n, 9000 + trial_seed, 0)
        trial_seed += 1
        res = exact.wr_unique_marking(c)
        segs = [s for s in res.segments if s.interior_length >= 1]
        if not segs:
            continue
        s = max(segs, key=lambda t: t.interior_length)
        src1 = res.anchor_sources[s.left_anchor]
        src2 = res.anchor_sources[s.right_anchor]
        keep_lo, keep_hi = src1.lo - 1, src2.hi + 1
        g = rng(12345, 60, trials)
        points = list(c.points)
        for i in range(n):
            if keep_lo <= i <= keep_hi:
                continue
            points[i] = MarkedPoint(
                position=i, base=WeightPair(float(g.uniform()), float(g.uniform()))
            )
        rerolled = Configuration(c.window, "wr_line", tuple(points))
        res2 = exact.wr_unique_marking(rerolled)
        span = slice(s.left_anchor, s.right_anchor + 1)
        assert res2.marks[span] == res.marks[span]
        trials += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 3 PASS: 100/100 re-randomizations left segment marks intact, {elapsed:.0f}s")


def test_criterion_04_both_uniform_tree_markings_locally_optimal():
    """All-plus and all-minus survive every deviation of up to 3 interior
    vertices on depth-5 balls, and every flip deviation respects the
    weight-range bound, for 20 weight draws."""
    t0 = time.monotonic()
    for seed in range(20):
        c = sample_weighted_tree(5, 777, seed, lo=0.9, hi=1.1)
        for sign in ("+", "-"):
            marked = exact.uniform_sign_configuration(c, sign)
            report = exact.tree_local_optimality_check(
                marked, v_max=3, weight_lo=0.9, weight_hi=1.1
            )
            assert report.locally_optimal
            assert report.witness is None
            assert report.deviations_tested > 0
            assert report.flip_sets_tested > 0
            assert report.flip_excess_max <= 0.0
    elapsed = time.monotonic() - t0
    print(f"criterion 4 PASS: 20 seeds x 2 uniform markings, no deviation wins, {elapsed:.0f}s")


def test_criterion_05_lilypond_growth_scores_zero_and_unimprovable():
    """Event-driven growth yields hard-core radii at exact touch (zero
    score everywhere) that no single-radius perturbation improves."""
    t0 = time.monotonic()
    model = LilypondModel()
    window = periodic_cube(2, 20.0)
    for k in range(50):
        c = sample_configuration(model, window, 1.0, 99, k)
        assert c.n_points >= 2
        result = exact.lilypond_solve(c)
        assert result.residual < 1e-9
        radii = np.array(result.radii)
        d = pairwise_torus_distances(c)
        np.fill_diagonal(d, np.inf)
        assert float((d - (radii[:, None] + radii[None, :])).min()) >= -1e-9
        marked = exact.lilypond_radii_configuration(c, result.radii)
        for i in range(c.n_points):
            assert abs(model.checked_score_at(marked, i)) <= 1e-9
        gain, _ = exact.lilypond_perturbation_search(marked, deltas=(1e-3, 1e-2))
        assert gain <= 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 5 PASS: 50 growth solutions, zero scores, no perturbation gain, {elapsed:.0f}s")


def test_criterion_06_access_probabilities_beat_constants_and_are_stationary():
    """The per-point argmax assignment dominates every constant access
    probability on the same draw, and each assigned probability zeroes the
    derivative of its own separable share (or sits at the upper boundary)."""
    t0 = time.monotonic()
    beta = 4.0
    model = AlohaModel(beta=beta)
    window = periodic_cube(2, 10.0)
    for k in range(30):
        c = sample_configuration(model, window, 1.0, 5, k)
        assert c.n_points >= 2
        marked = exact.aloha_optimal_marking(c, beta)
        best = total_window_score(marked, model)
        for step in range(1, 21):
            p = 0.05 * step
            const = c.with_opt_marks({i: AccessProb(p) for i in range(c.n_points)})
            assert best >= total_window_score(const, model) - 1e-9

        coupling = exact.aloha_response_terms(c, beta)
        for i in range(c.n_points):
            row = np.delete(coupling[i], i)
            p = marked.points[i].opt.prob
            slope = 1.0 / p - float((row / (1.0 - p * row)).sum())
            if p >= 1.0 - 1e-12:
                assert slope >= -1e-6
            else:
                assert abs(slope) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 6 PASS: 30 draws, grid of 20 constants dominated, stationary points, {elapsed:.0f}s")


def test_criterion_07_score_sums_reproduce_spatial_averages():
    """Retention score per unit length equals the covered-interval fraction
    exactly; caching score per unit length equals the Monte Carlo hit
    probability within 3 standard errors at a million samples."""
    t0 = time.monotonic()
    hardcore = HardcoreModel()
    window = periodic_cube(1, 6.0)
    worst = 0.0
    for k in range(100):
        c = sample_configuration(hardcore, window, 1.0, 41, k)
        params = SearchParams(k_max=1, mode="exhaustive", seed=k)
        marked, _ = local_search(initialize_marks(c, hardcore, params), hardcore, params)
        check = campbell_identity_check(marked, hardcore)
        worst = max(worst, check.gap)
    assert worst < 1e-12

    caching = CachingModel(popularity=(0.4, 0.3, 0.2, 0.1), k_items=2)
    window = periodic_cube(1, 8.0)
    for k in range(3):
        c = sample_configuration(caching, window, 1.0, 311, k)
        params = SearchParams(k_max=1, mode="exhaustive", seed=k)
        marked, _ = local_search(initialize_marks(c, caching, params), caching, params)
        check = campbell_identity_check(marked, caching, samples=10**6, seed=k)
        assert check.samples == 10**6
        assert check.gap <= 3.0 * check.stderr
    elapsed = time.monotonic() - t0
    print(f"criterion 7 PASS: retention gap {worst:.1e}, caching within 3 sigma, {elapsed:.0f}s")


def test_criterion_08_stabilization_radii_bounded_monotone_and_stable():
    """Retention influence ranges obey the deterministic 4*r_max cap and the
    first-moment tail bound; interference ranges shrink as the tolerance
    grows, truncation at the range loses at most the tolerance, and the
    heavy moment is window-size stable."""
    t0 = time.monotonic()
    hardcore = HardcoreModel()
    sample = stabilization_sample(hardcore, periodic_cube(1, 20.0), 1.0, replicates=200, seed=31)
    r_max = hardcore.radius_hi
    assert float(sample.radii.max()) <= 4.0 * r_max + 1e-12

    grid = np.linspace(0.0, 4.0 * r_max, 10)
    empirical = sample.ccdf(grid)
    per_rep = sample.replicate_ccdf(grid)
    stderr = per_rep.std(axis=0, ddof=1) / math.sqrt(per_rep.shape[0])
    # first-moment bound: expected points capable of overlap beyond r/2,
    # integrated over the triangular density of a two-radius sum
    lo, hi = hardcore.radius_lo, hardcore.radius_hi
    s = np.linspace(2 * lo, 2 * hi, 20001)
    density = np.where(s <= lo + hi, s - 2 * lo, 2 * hi - s) / (hi - lo) ** 2
    for r, emp, se in zip(grid, empirical, stderr):
        bound = float(np.trapezoid(np.maximum(0.0, 2 * s - r) * density, s))
        assert emp <= bound + 3.0 * se

    beta = 4.0
    aloha = AlohaModel(beta=beta)
    window = periodic_cube(2, 10.0)
    eps_grid = (1e-2, 1e-4, 1e-6)
    points = 0
    k = 0
    while points < 1000:
        c = sample_configuration(aloha, window, 1.0, 23, k)
        k += 1
        if c.n_points < 2:
            continue
        radii = {eps: aloha_stab_radii_all(c, eps, beta) for eps in eps_grid}
        for eps_hi, eps_lo in zip(eps_grid, eps_grid[1:]):
            assert (radii[eps_lo][0] >= radii[eps_hi][0] - 1e-12).all()
            assert (radii[eps_lo][1] >= radii[eps_hi][1] - 1e-12).all()
        marked = c.with_opt_marks({i: AccessProb(1.0) for i in range(c.n_points)})
        for eps in (1e-2, 1e-4):
            internal = radii[eps][0]
            for i in range(c.n_points):
                full = aloha.checked_score_at(marked, i)
                trunc = aloha_truncated_score_at(marked, i, beta, float(internal[i]))
                assert abs(full - trunc) <= eps
        points += c.n_points

    moments = []
    for side, replicates in ((10.0, 60), (20.0, 20), (40.0, 8)):
        s2 = stabilization_sample(
            hardcore, periodic_cube(2, side), 1.0, replicates=replicates, seed=17
        )
        moments.append(s2.moments(2, 2.0)[4.0])
    hc_ratio = max(moments) / min(moments)
    assert 1.0 <= hc_ratio <= 2.0

    # interference radii need a tolerance whose radius scale fits inside the
    # smallest window, else the radii just saturate at the window diameter
    moments = []
    for side, replicates in ((10.0, 40), (20.0, 12), (40.0, 4)):
        s3 = stabilization_sample(
            aloha, periodic_cube(2, side), 1.0, replicates=replicates, seed=29, epsilon=0.5
        )
        moments.append(s3.moments(2, 2.0)[4.0])
    aloha_ratio = max(moments) / min(moments)
    assert 1.0 <= aloha_ratio <= 2.0
    elapsed = time.monotonic() - t0
    print(
        f"criterion 8 PASS: cap and tail bound hold, truncation within tolerance on "
        f"{points} points, moment ratios {hc_ratio:.2f} and {aloha_ratio:.2f}, {elapsed:.0f}s"
    )


def test_criterion_09_matching_agrees_with_permutation_enumeration():
    """Four-versus-four matchings: admissible output, total length equal to
    an independent enumeration, and no two-pair repairing improves it."""
    t0 = time.monotonic()
    window = periodic_cube(2, 10.0)
    for k in range(50):
        g = rng(4000, 0, k)
        points = []
        for i in range(8):
            pos = tuple(float(x) for x in g.uniform(0.0, 10.0, size=2))
            points.append(MarkedPoint(position=pos, base=ColorMark("blue" if i < 4 else "red")))
        c = Configuration(window, "matching", tuple(points))
        result = exact.matching_optimum(c)
        assert math.isfinite(result.value)
        partners = tuple(result.configuration.points[b].opt.index - 4 for b in range(4))
        assert sorted(partners) == [0, 1, 2, 3]

        best_cost, best_perm = math.inf, None
        for perm in itertools.permutations(range(4)):
            cost = 0.0
            for b, r in enumerate(perm):
                cost += torus_distance(window, points[b].position, points[4 + r].position)
            if cost < best_cost:
                best_cost, best_perm = cost, perm
        assert partners == best_perm
        length = 0.0
        for b, r in enumerate(partners):
            length += torus_distance(window, points[b].position, points[4 + r].position)
        assert length == best_cost
        assert abs(-result.value / 2.0 - best_cost) < 1e-9

        for b1, b2 in itertools.combinations(range(4), 2):
            r1, r2 = partners[b1], partners[b2]
            old = torus_distance(
                window, points[b1].position, points[4 + r1].position
            ) + torus_distance(window, points[b2].position, points[4 + r2].position)
            alt = torus_distance(
                window, points[b1].position, points[4 + r2].position
            ) + torus_distance(window, points[b2].position, points[4 + r1].position)
            assert alt >= old - 1e-12
    elapsed = time.monotonic() - t0
    print(f"criterion 9 PASS: 50 matchings equal enumeration, repairings never win, {elapsed:.0f}s")


def test_criterion_10_pipeline_reruns_byte_identical(tmp_path):
    """The full generate/optimize/exact/estimate pipeline is byte-stable
    under reruns and thread counts, up to the elapsed-time column."""
    t0 = time.monotonic()
    spec = {
        "name": "determinism",
        "window": {"kind": "cube", "d": 1, "L": 6.0},
        "model": {"kind": "hardcore", "radius_lo": 0.1, "radius_hi": 0.4},
        "intensity": 1.0,
        "policies": ["neutral", "all-retain", "local-search"],
        "search": {"k_max": 2, "mode": "exhaustive"},
        "replicates": 6,
        "seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def csv_without_elapsed(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("elapsed_ms")
        return [row[:drop] + row[drop + 1 :] for row in rows]

    def run_pipeline(out_dir, threads):
        argv_tail = ["--spec", str(spec_path), "--out", str(out_dir), "--threads", threads]
        assert main(["generate", *argv_tail]) == 0
        assert main(["optimize", *argv_tail]) == 0
        search_rows = csv_without_elapsed(out_dir / "results.csv")
        assert main(["exact", *argv_tail]) == 0
        assert main(["estimate", *argv_tail]) == 0
        state = {"optimize_rows": search_rows}
        for name in (
            "manifest.json",
            "optimize_summary.json",
            "exact_summary.json",
            "estimate_summary.json",
        ):
            state[name] = (out_dir / name).read_bytes()
        for sub in ("configs", "marked", "exact"):
            for entry in sorted(os.listdir(out_dir / sub)):
                state[f"{sub}/{entry}"] = (out_dir / sub / entry).read_bytes()
        state["results.csv"] = csv_without_elapsed(out_dir / "results.csv")
        state["results_exact.csv"] = csv_without_elapsed(out_dir / "results_exact.csv")
        return state

    baseline = run_pipeline(tmp_path / "a", "1")
    rerun = run_pipeline(tmp_path / "b", "1")
    threaded = run_pipeline(tmp_path / "c", "4")
    assert set(baseline) == set(rerun) == set(threaded)
    for key in baseline:
        assert rerun[key] == baseline[key], f"rerun differs at {key}"
        assert threaded[key] == baseline[key], f"thread count changed {key}"
    elapsed = time.monotonic() - t0
    print(f"criterion 10 PASS: {len(baseline)} artifacts byte-stable across reruns and threads, {elapsed:.0f}s")
