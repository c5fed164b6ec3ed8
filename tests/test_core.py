"""Extended-score arithmetic, windows, sampling, and serialization."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markopt.core import (
    NEG_INF,
    Configuration,
    GrainRadius,
    MarkedPoint,
    Retain,
    SignMark,
    ValidationError,
    WeightPair,
    check_score,
    configuration_from_json,
    configuration_to_json,
    dump_configuration,
    graph_neighbors,
    integer_line,
    is_admissible,
    load_configuration,
    pairwise_torus_distances,
    pairwise_torus_linf,
    periodic_cube,
    positions_array,
    rng,
    sample_poisson_configuration,
    sample_weighted_line,
    sample_weighted_tree,
    score_diff,
    substream_id,
    sum_score_diffs,
    torus_cross_distances,
    torus_distance,
    torus_distance_linf,
    total_score,
    tree_ball,
    tree_structure,
    tree_vertex_count,
    weight_pair_sampler,
    wrap_position,
)

finite_scores = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
extended_scores = st.one_of(st.just(NEG_INF), finite_scores)


# -- score arithmetic ---------------------------------------------------------


def test_check_score_rejects_nan_and_pos_inf():
    assert check_score(1.5) == 1.5
    assert check_score(NEG_INF) == NEG_INF
    with pytest.raises(AssertionError):
        check_score(float("nan"))
    with pytest.raises(AssertionError):
        check_score(math.inf)


def test_score_diff_table():
    # exhaustive over the {finite, -inf} x {finite, -inf} cases
    assert score_diff(3.0, 1.0) == 2.0
    assert score_diff(NEG_INF, 1.0) == NEG_INF
    assert score_diff(3.0, NEG_INF) == math.inf
    assert score_diff(NEG_INF, NEG_INF) == 0.0


@given(after=extended_scores, before=extended_scores)
def test_score_diff_never_nan(after, before):
    d = score_diff(after, before)
    assert not math.isnan(d)


@given(values=st.lists(extended_scores, max_size=20))
def test_total_score_absorbing(values):
    t = total_score(values)
    if any(v == NEG_INF for v in values):
        assert t == NEG_INF
    else:
        assert t == math.fsum(values) or t == sum(values)


def test_total_score_empty_is_zero():
    assert total_score([]) == 0.0


@given(diffs=st.lists(st.one_of(st.just(NEG_INF), st.just(math.inf), finite_scores), max_size=12))
def test_sum_score_diffs_priority(diffs):
    # any -inf per-point difference dominates, then any +inf repair, else finite
    s = sum_score_diffs(diffs)
    if any(d == NEG_INF for d in diffs):
        assert s == NEG_INF
    elif any(d == math.inf for d in diffs):
        assert s == math.inf
    else:
        assert math.isfinite(s)


def test_is_admissible():
    assert is_admissible(0.0)
    assert is_admissible(-5.0)
    assert not is_admissible(NEG_INF)


# -- windows ------------------------------------------------------------------


def test_periodic_cube_construction():
    w = periodic_cube(1, 10.0)
    assert w.dim == 1 and w.side == 10.0
    assert w.volume == 10.0
    assert periodic_cube(2, 5.0).volume == 25.0


def test_periodic_cube_rejects_bad_params():
    with pytest.raises(ValidationError):
        periodic_cube(0, 5.0)
    with pytest.raises(ValidationError):
        periodic_cube(1, 0.0)
    with pytest.raises(ValidationError):
        periodic_cube(-1, 3.0)


def test_tree_ball_vertex_counts():
    assert tree_vertex_count(0) == 1
    assert tree_vertex_count(1) == 4
    assert tree_vertex_count(2) == 10
    for depth in range(11):
        # root plus 3 branches each doubling per level
        expect = 1 + 3 * (2**depth - 1)
        assert tree_vertex_count(depth) == expect
        assert tree_ball(depth).site_count == expect


def test_integer_line_window():
    w = integer_line(5)
    assert w.n_sites == 5
    assert w.volume == 5.0
    assert graph_neighbors(w, 0) == (1,)
    assert graph_neighbors(w, 2) == (1, 3)
    assert graph_neighbors(w, 4) == (3,)
    with pytest.raises(ValidationError):
        integer_line(0)


def test_tree_structure_degrees():
    adjacency, depths = tree_structure(2)
    assert len(adjacency[0]) == 3
    interior = [v for v in range(len(depths)) if depths[v] == 1]
    for v in interior:
        # parent link plus two children
        assert len(adjacency[v]) == 3
    leaves = [v for v in range(len(depths)) if depths[v] == 2]
    assert all(len(adjacency[v]) == 1 for v in leaves)
    assert len(leaves) == 6
    # adjacency is symmetric
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            assert v in adjacency[u]


def test_torus_distance_basics():
    w = periodic_cube(1, 10.0)
    assert torus_distance(w, (1.0,), (9.0,)) == 2.0
    assert torus_distance(w, (3.0,), (3.0,)) == 0.0
    w2 = periodic_cube(2, 10.0)
    assert torus_distance(w2, (0.0, 0.0), (9.0, 9.0)) == pytest.approx(math.sqrt(2.0))


@given(
    pts=st.lists(
        st.tuples(st.floats(0, 10, exclude_max=True), st.floats(0, 10, exclude_max=True)),
        min_size=3,
        max_size=3,
    )
)
def test_torus_metric_properties(pts):
    w = periodic_cube(2, 10.0)
    x, y, z = pts
    dxy = torus_distance(w, x, y)
    assert dxy == pytest.approx(torus_distance(w, y, x))
    assert torus_distance(w, x, x) == 0.0
    assert dxy <= 10.0 * math.sqrt(2) / 2 + 1e-9
    assert dxy <= torus_distance(w, x, z) + torus_distance(w, z, y) + 1e-9
    assert torus_distance_linf(w, x, y) <= dxy + 1e-12


def test_wrap_position():
    w = periodic_cube(2, 4.0)
    assert wrap_position(w, (5.0, -1.0)) == (1.0, 3.0)


# -- sampling -----------------------------------------------------------------


def test_poisson_sampling_determinism():
    w = periodic_cube(1, 10.0)
    a = sample_poisson_configuration(w, 2.0, "hardcore", None, 7)
    b = sample_poisson_configuration(w, 2.0, "hardcore", None, 7)
    assert a == b
    c = sample_poisson_configuration(w, 2.0, "hardcore", None, 8)
    assert a != c


def test_poisson_sampling_rejects_bad_intensity():
    w = periodic_cube(1, 10.0)
    with pytest.raises(ValidationError):
        sample_poisson_configuration(w, 0.0, "hardcore", None, 1)
    with pytest.raises(ValidationError):
        sample_poisson_configuration(w, -1.0, "hardcore", None, 1)


def test_poisson_mean_count():
    w = periodic_cube(1, 10.0)
    reps = 10_000
    counts = [
        sample_poisson_configuration(w, 2.0, "hardcore", None, 42, k).n_points
        for k in range(reps)
    ]
    mean = sum(counts) / reps
    assert abs(mean - 20.0) <= 3.0 * math.sqrt(20.0 / reps)


def test_weighted_line_shape_and_mean():
    c = sample_weighted_line(5, 3)
    assert c.n_points == 5
    assert [p.position for p in c.points] == list(range(5))
    assert all(isinstance(p.base, WeightPair) for p in c.points)

    big = sample_weighted_line(100_000, 11)
    mean_plus = sum(p.base.w_plus for p in big.points) / big.n_points
    sigma = math.sqrt(1.0 / 12.0 / big.n_points)
    assert abs(mean_plus - 0.5) <= 3.0 * sigma


def test_weighted_tree_shape():
    c = sample_weighted_tree(2, 9)
    assert c.n_points == 10
    assert c.window.kind == "tree"


def test_substream_determinism():
    g1 = rng(5, 1, 2)
    g2 = rng(5, 1, 2)
    assert g1.integers(0, 1 << 30) == g2.integers(0, 1 << 30)
    assert substream_id(1, 2) != substream_id(2, 1)
    assert substream_id() == 0


def test_rng_rejects_out_of_range_seed():
    with pytest.raises(ValidationError):
        rng(-1)
    with pytest.raises(ValidationError):
        rng(1 << 64)


# -- configurations and marks -------------------------------------------------


def test_configuration_validates_positions():
    w = periodic_cube(1, 10.0)
    with pytest.raises(ValidationError):
        Configuration(w, "hardcore", (MarkedPoint(position=(11.0,), base=GrainRadius(1.0)),))
    with pytest.raises(ValidationError):
        # duplicate positions break the simple-process assumption
        Configuration(
            w,
            "hardcore",
            (
                MarkedPoint(position=(1.0,), base=GrainRadius(1.0)),
                MarkedPoint(position=(1.0,), base=GrainRadius(0.5)),
            ),
        )


def test_graph_configuration_site_positions():
    w = integer_line(3)
    with pytest.raises(ValidationError):
        Configuration(w, "wr_line", (MarkedPoint(position=3, base=WeightPair(1, 2)),))


def test_mark_value_validation():
    with pytest.raises(ValidationError):
        GrainRadius(-0.5)
    with pytest.raises(ValidationError):
        SignMark("x")
    with pytest.raises(ValidationError):
        WeightPair(-1.0, 0.5)


def test_with_opt_marks():
    c = sample_weighted_line(4, 0)
    marked = c.with_opt_marks({0: SignMark("+"), 2: SignMark("0")})
    assert marked.points[0].opt == SignMark("+")
    assert marked.points[1].opt is None
    assert marked.points[2].opt == SignMark("0")
    # original untouched
    assert c.points[0].opt is None


def test_pairwise_torus_distances_matches_scalar():
    # bit-equal, not approximate: dense scores rely on this identity
    for dim, side in ((1, 40.0), (2, 10.0), (3, 4.0)):
        w = periodic_cube(dim, side)
        c = sample_poisson_configuration(w, 0.5, "hardcore", None, 3)
        other = sample_poisson_configuration(w, 0.5, "hardcore", None, 4)
        dm = pairwise_torus_distances(c)
        cross = torus_cross_distances(w, positions_array(c), positions_array(other))
        assert dm.shape == (c.n_points, c.n_points)
        assert cross.shape == (c.n_points, other.n_points)
        for i, p in enumerate(c.points):
            for j, q in enumerate(c.points):
                assert dm[i, j] == torus_distance(w, p.position, q.position)
            for j, q in enumerate(other.points):
                assert cross[i, j] == torus_distance(w, p.position, q.position)


def test_pairwise_torus_linf_matches_scalar():
    # bit-equal to the scalar sup-norm metric, including pairs that wrap
    for dim, side in ((1, 40.0), (2, 10.0), (3, 4.0)):
        w = periodic_cube(dim, side)
        c = sample_poisson_configuration(w, 0.5, "hardcore", None, 5)
        linf = pairwise_torus_linf(c)
        assert linf.shape == (c.n_points, c.n_points)
        for i, p in enumerate(c.points):
            for j, q in enumerate(c.points):
                assert linf[i, j] == torus_distance_linf(w, p.position, q.position)
    empty = sample_poisson_configuration(periodic_cube(2, 0.01), 0.5, "hardcore", None, 0)
    assert pairwise_torus_linf(empty).shape == (0, 0)
    with pytest.raises(ValidationError):
        pairwise_torus_linf(sample_weighted_line(3, 0))


# -- serialization ------------------------------------------------------------


@pytest.mark.parametrize("model_id", ["hardcore", "wr_line", "wr_tree"])
def test_json_round_trip(model_id, tmp_path):
    if model_id == "hardcore":
        w = periodic_cube(1, 10.0)
        c = sample_poisson_configuration(w, 1.0, model_id, None, 5)
        c = c.with_opt_marks({i: Retain(i % 2 == 0) for i in range(c.n_points)})
    elif model_id == "wr_line":
        c = sample_weighted_line(6, 5)
        c = c.with_opt_marks({i: SignMark("0") for i in range(6)})
    else:
        c = sample_weighted_tree(2, 5)

    path = os.path.join(tmp_path, "conf.json")
    dump_configuration(c, path)
    back = load_configuration(path)
    assert back == c
    # bit-exact on numeric fields
    for p, q in zip(c.points, back.points):
        assert p.position == q.position


def test_json_round_trip_in_memory():
    c = sample_weighted_line(3, 1)
    assert configuration_from_json(configuration_to_json(c)) == c


def test_empty_configuration_round_trip(tmp_path):
    w = periodic_cube(2, 5.0)
    c = Configuration(w, "hardcore", ())
    path = os.path.join(tmp_path, "empty.json")
    dump_configuration(c, path)
    assert load_configuration(path) == c


def test_truncated_file_raises(tmp_path):
    c = sample_weighted_line(3, 1)
    path = os.path.join(tmp_path, "conf.json")
    dump_configuration(c, path)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(ValidationError):
        load_configuration(path)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_bit_exact_random(seed):
    from markopt.core import grain_radius_sampler

    w = periodic_cube(2, 10.0)
    sampler = grain_radius_sampler(0.05, 0.15)
    c = sample_poisson_configuration(w, 0.3, "hardcore", sampler, seed)
    back = configuration_from_json(configuration_to_json(c))
    assert back == c
    for p, q in zip(c.points, back.points):
        assert p.position == q.position
        assert p.base.radius == q.base.radius


def test_float_array_round_trip_precision():
    # full-precision floats survive the repr path used by the JSON writer
    g = np.random.default_rng(0)
    for x in g.uniform(0, 10, size=50):
        assert float(repr(float(x))) == float(x)
