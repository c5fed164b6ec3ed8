"""Extended-score arithmetic, windows, sampling, and serialization."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markopt.core import (
    NEG_INF,
    AccessProb,
    ColorMark,
    Configuration,
    GrainRadius,
    ItemSet,
    MarkedPoint,
    PartnerIndex,
    RadiusMark,
    ReceiverOffset,
    Retain,
    SignMark,
    ValidationError,
    WeightPair,
    configuration_from_json,
    configuration_text,
    dump_configuration,
    graph_neighbors,
    integer_line,
    is_admissible,
    json_typed,
    load_configuration,
    mark_from_json,
    mark_to_json,
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
    window_from_json,
    window_to_json,
)

finite_scores = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
extended_scores = st.one_of(st.just(NEG_INF), finite_scores)


# -- score arithmetic ---------------------------------------------------------


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


@pytest.mark.parametrize("window, position", [
    (integer_line(2), True),  # True == 1 would pass as site 1
    (periodic_cube(1, 5.0), (True,)),  # and as coordinate 1.0
    (periodic_cube(2, 5.0), (2.0, False)),
])
def test_configuration_refuses_bool_positions(window, position):
    """A bool position would be dumped as true/false, which no reader loads."""
    first = 0 if window.kind == "line" else tuple(0.5 for _ in position)
    points = (MarkedPoint(first), MarkedPoint(position))
    with pytest.raises(ValidationError, match="bool"):
        Configuration(window, "wr_line" if window.kind == "line" else "hardcore", points)


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
    assert configuration_from_json(json.loads(configuration_text(c))) == c


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
    back = configuration_from_json(json.loads(configuration_text(c)))
    assert back == c
    for p, q in zip(c.points, back.points):
        assert p.position == q.position
        assert p.base.radius == q.base.radius


def test_float_array_round_trip_precision():
    # full-precision floats survive the repr path used by the JSON writer
    g = np.random.default_rng(0)
    for x in g.uniform(0, 10, size=50):
        assert float(repr(float(x))) == float(x)


# -- mark and window codecs against the per-class if-chains they replace ------


def _old_window_to_json(window):
    if window.kind == "cube":
        return {"kind": "cube", "d": window.dim, "L": window.side}
    if window.kind == "line":
        return {"kind": "line", "n": window.n_sites}
    return {"kind": "tree", "depth": window.depth}


def _old_window_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"window must be an object with a kind, got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "cube":
            return periodic_cube(json_typed(obj["d"], int, "window d"),
                                 float(json_typed(obj["L"], float, "window L")))
        if kind == "line":
            return integer_line(json_typed(obj["n"], int, "window n"))
        if kind == "tree":
            return tree_ball(json_typed(obj["depth"], int, "window depth"))
    except KeyError as exc:
        raise ValidationError(f"window is missing field {exc}") from exc
    raise ValidationError(f"unknown window kind {kind!r}")


def _old_base_mark_to_json(mark):
    if mark is None:
        return None
    if isinstance(mark, GrainRadius):
        return {"grain": mark.radius}
    if isinstance(mark, ColorMark):
        return {"color": mark.color}
    if isinstance(mark, WeightPair):
        return {"weights": [mark.w_plus, mark.w_minus]}
    if isinstance(mark, ReceiverOffset):
        return {"offset": list(mark.offset)}
    raise ValidationError(f"unknown base mark {mark!r}")


def _old_base_mark_from_json(obj):
    if obj is None:
        return None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"base mark must be a single-key object, got {obj!r}")
    ((tag, value),) = obj.items()
    if tag == "grain":
        return GrainRadius(float(json_typed(value, float, tag)))
    if tag == "color":
        return ColorMark(json_typed(value, str, tag))
    if tag == "weights":
        return WeightPair(*map(float, json_typed(value, tuple[float, float], tag)))
    if tag == "offset":
        return ReceiverOffset(tuple(map(float, json_typed(value, tuple[float, ...], tag))))
    raise ValidationError(f"unknown base mark tag {tag!r}")


def _old_opt_mark_to_json(mark):
    if mark is None:
        return None
    if isinstance(mark, Retain):
        return {"retain": mark.keep}
    if isinstance(mark, SignMark):
        return {"sign": mark.sign}
    if isinstance(mark, RadiusMark):
        return {"radius": mark.radius}
    if isinstance(mark, AccessProb):
        return {"prob": mark.prob}
    if isinstance(mark, ItemSet):
        return {"items": list(mark.items)}
    if isinstance(mark, PartnerIndex):
        return {"partner": mark.index}
    raise ValidationError(f"unknown opt mark {mark!r}")


def _old_opt_mark_from_json(obj):
    if obj is None:
        return None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"opt mark must be a single-key object, got {obj!r}")
    ((tag, value),) = obj.items()
    if tag == "retain":
        return Retain(json_typed(value, bool, tag))
    if tag == "sign":
        return SignMark(json_typed(value, str, tag))
    if tag == "radius":
        return RadiusMark(float(json_typed(value, float, tag)))
    if tag == "prob":
        return AccessProb(float(json_typed(value, float, tag)))
    if tag == "items":
        return ItemSet(tuple(json_typed(value, tuple[int, ...], tag)))
    if tag == "partner":
        return PartnerIndex(json_typed(value, int, tag))
    raise ValidationError(f"unknown opt mark tag {tag!r}")


_OLD_MARK_CODECS = {
    "base": (_old_base_mark_to_json, _old_base_mark_from_json),
    "opt": (_old_opt_mark_to_json, _old_opt_mark_from_json),
}

CODEC_MARKS = [
    ("base", None),
    ("base", GrainRadius(0.25)),
    ("base", ColorMark("blue")),
    ("base", ColorMark("red")),
    ("base", WeightPair(0.5, 0.125)),
    ("base", WeightPair(0.0, 1.0)),
    ("base", ReceiverOffset((0.6, 0.8))),
    ("base", ReceiverOffset((-1.0,))),
    ("base", ReceiverOffset((0.0, 0.6, -0.8))),
    ("opt", None),
    ("opt", Retain(True)),
    ("opt", Retain(False)),
    ("opt", SignMark("+")),
    ("opt", SignMark("0")),
    ("opt", RadiusMark(0.0)),
    ("opt", RadiusMark(1.5)),
    ("opt", AccessProb(0.3)),
    ("opt", AccessProb(1.0)),
    ("opt", ItemSet(())),
    ("opt", ItemSet((2,))),
    ("opt", ItemSet((1, 3, 4))),
    ("opt", PartnerIndex(-1)),
    ("opt", PartnerIndex(7)),
]


@pytest.mark.parametrize("slot, mark", CODEC_MARKS, ids=repr)
def test_mark_codec_matches_if_chains(slot, mark):
    old_to, old_from = _OLD_MARK_CODECS[slot]
    obj = mark_to_json(mark)
    assert obj == old_to(mark) and repr(obj) == repr(old_to(mark))
    back = mark_from_json(obj, slot)
    assert back == old_from(obj) == mark and repr(back) == repr(old_from(obj))


@pytest.mark.parametrize(
    "slot, obj",
    [
        ("base", {"grain": 1}),
        ("base", {"weights": [1, 0]}),
        ("base", {"weights": [0.5, 2]}),
        ("base", {"offset": [0, 1]}),
        ("base", {"offset": [1, 0, 0]}),
        ("opt", {"radius": 2}),
        ("opt", {"prob": 1}),
        ("opt", {"items": [1, 2, 5]}),
    ],
    ids=repr,
)
def test_mark_from_json_makes_ints_in_float_fields_floats(slot, obj):
    back = mark_from_json(obj, slot)
    assert repr(back) == repr(_OLD_MARK_CODECS[slot][1](obj))
    assert mark_to_json(back) == _OLD_MARK_CODECS[slot][0](back)
    if isinstance(back, GrainRadius):
        assert type(back.radius) is float and mark_to_json(back) == {"grain": 1.0}


@pytest.mark.parametrize(
    "slot, obj",
    [
        ("opt", {"grain": 0.5}),
        ("opt", {"weights": [0.5, 0.5]}),
        ("base", {"retain": True}),
        ("base", {"items": [1]}),
        ("base", {"spin": 1}),
        ("opt", {"spin": 1}),
        ("base", {"grain": "abc"}),
        ("base", {"grain": True}),
        ("base", {"color": 1}),
        ("base", {"weights": [0.5]}),
        ("base", {"weights": 0.5}),
        ("base", {"offset": 1.0}),
        ("opt", {"retain": 1}),
        ("opt", {"sign": None}),
        ("opt", {"items": [1.5]}),
        ("opt", {"partner": True}),
        ("opt", {"partner": 1.0}),
        ("base", {"grain": 0.5, "color": "red"}),
        ("opt", {}),
        ("base", [0.5]),
    ],
    ids=repr,
)
def test_mark_from_json_rejects_wrong_slot_tag_and_type(slot, obj):
    with pytest.raises(ValidationError):
        mark_from_json(obj, slot)
    with pytest.raises(ValidationError):
        _OLD_MARK_CODECS[slot][1](obj)


@pytest.mark.parametrize(
    "window",
    [periodic_cube(1, 6.0), periodic_cube(3, 2.5), integer_line(1), integer_line(10), tree_ball(0),
     tree_ball(3)],
    ids=repr,
)
def test_window_codec_matches_if_chain(window):
    obj = window_to_json(window)
    assert obj == _old_window_to_json(window) and repr(obj) == repr(_old_window_to_json(window))
    assert repr(window_from_json(obj)) == repr(_old_window_from_json(obj)) == repr(window)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "cube", "d": 2, "L": 5},
        {"kind": "cube", "d": 1, "L": 0.5, "n": 3},
        {"kind": "line", "n": 4, "L": "ignored"},
        {"kind": "tree", "depth": 2},
    ],
    ids=repr,
)
def test_window_from_json_matches_if_chain(obj):
    assert repr(window_from_json(obj)) == repr(_old_window_from_json(obj))


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "torus", "d": 2, "L": 5.0},
        {"kind": ["cube"], "d": 2, "L": 5.0},
        {"kind": "cube", "d": 2},
        {"kind": "cube", "L": 5.0},
        {"kind": "cube", "d": 2.0, "L": 5.0},
        {"kind": "cube", "d": 2, "L": "5"},
        {"kind": "cube", "d": 2, "L": True},
        {"kind": "cube", "d": 0, "L": 5.0},
        {"kind": "line", "n": "40"},
        {"kind": "line"},
        {"kind": "tree", "depth": -1},
        {"d": 2, "L": 5.0},
        ["cube", 2, 5.0],
    ],
    ids=repr,
)
def test_window_from_json_rejects(obj):
    with pytest.raises(ValidationError):
        window_from_json(obj)
    with pytest.raises(ValidationError):
        _old_window_from_json(obj)


# -- configuration writer against json.dump ------------------------------------


def _old_configuration_to_json(c):
    points = []
    for p in c.points:
        entry = {}
        if c.window.kind == "cube":
            entry["pos"] = list(p.position)
        else:
            entry["site"] = p.position
        entry["base"] = _old_base_mark_to_json(p.base)
        entry["opt"] = _old_opt_mark_to_json(p.opt)
        points.append(entry)
    return {"window": _old_window_to_json(c.window), "model_id": c.model_id, "points": points}


def _old_dump_configuration(c, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_old_configuration_to_json(c), fh, indent=1)
        fh.write("\n")


def _forced_weights(w_plus, w_minus):
    """A weight pair holding values that its constructor refuses."""
    mark = WeightPair(0.0, 0.0)
    object.__setattr__(mark, "w_plus", w_plus)
    object.__setattr__(mark, "w_minus", w_minus)
    return mark


def _every_mark(positions):
    """Points at positions whose base and opt marks cycle through every mark
    class of their slot and None."""
    base = [m for slot, m in CODEC_MARKS if slot == "base"]
    opt = [m for slot, m in CODEC_MARKS if slot == "opt"]
    return tuple(
        MarkedPoint(pos, base[k % len(base)], opt[k % len(opt)]) for k, pos in enumerate(positions)
    )


WRITER_CASES = {
    "cube-1d": Configuration(periodic_cube(1, 10.0), "hardcore",
                             _every_mark([(0.5 * k + 0.1,) for k in range(14)])),
    "cube-2d": Configuration(periodic_cube(2, 5.0), "caching",
                             _every_mark([(0.3 * k, 4.9 - 0.3 * k) for k in range(14)])),
    "cube-3d": Configuration(periodic_cube(3, 2.5), "aloha",
                             _every_mark([(0.1 * k, 0.2, 2.4 - 0.1 * k) for k in range(14)])),
    "line": Configuration(integer_line(14), "wr_line", _every_mark(range(14))),
    "tree": Configuration(tree_ball(3), "wr_tree", _every_mark(range(22))),
    "empty-cube": Configuration(periodic_cube(2, 5.0), "hardcore", ()),
    "empty-line": Configuration(integer_line(5), "wr_line", ()),
    "numbers": Configuration(
        periodic_cube(3, 1e17),
        "mixed",
        (
            MarkedPoint((-0.0, 5e-324, 1e16), GrainRadius(np.float64(0.1) * 3),
                        RadiusMark(1e16)),
            MarkedPoint((3, 1.5, 2.0), _forced_weights(math.inf, -math.inf),
                        AccessProb(np.float64(0.75))),
            MarkedPoint((0.1, 0.2, 0.30000000000000004), _forced_weights(math.nan, 1e-7),
                        ItemSet(())),
            MarkedPoint((7.0, 8.0, 9.0), WeightPair(np.float64(1.5), 2), ItemSet((1, 2, 9, 10))),
        ),
    ),
    "model-id": Configuration(integer_line(2), 'say "hi" \\ caf\u00e9 \u2603\n',
                              _every_mark(range(2))),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_dump_configuration_writes_json_dump_bytes(case, tmp_path):
    c = WRITER_CASES[case]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    dump_configuration(c, str(new))
    _old_dump_configuration(c, str(old))
    assert new.read_bytes() == old.read_bytes()
    assert configuration_text(c) == old.read_text(encoding="utf-8")
